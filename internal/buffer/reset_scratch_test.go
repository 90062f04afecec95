package buffer

import (
	"strings"
	"testing"

	"gcx/internal/xqast"
)

// An idle pooled buffer must not pin freed arena nodes through the
// signOff resolution scratch: Reset clears resA/resB down to their
// backing arrays.
func TestResetClearsResolutionScratch(t *testing.T) {
	b, syms := build(false)
	bib := el(b, syms, b.Root(), "bib")
	el(b, syms, bib, "book")
	el(b, syms, bib, "book")

	steps := []xqast.Step{step(xqast.Child, xqast.NameTest("book"), false)}
	if got := len(b.Resolve(bib, steps, names(syms, steps))); got != 2 {
		t.Fatalf("resolution sanity: got %d targets, want 2", got)
	}
	if cap(b.resA) == 0 && cap(b.resB) == 0 {
		t.Fatal("expected resolution scratch to have grown")
	}

	b.Reset()
	for i, tg := range b.resA[:cap(b.resA)] {
		if tg.node != nil || tg.mult != 0 {
			t.Errorf("resA[%d] still references a node after Reset: %+v", i, tg)
		}
	}
	for i, tg := range b.resB[:cap(b.resB)] {
		if tg.node != nil || tg.mult != 0 {
			t.Errorf("resB[%d] still references a node after Reset: %+v", i, tg)
		}
	}
}

// An idle pooled buffer keeps every text chunk the last document made it
// hold and none of the text, and Retained counts the chunks: a
// FullBuffer-style run (nothing purged) of 512 KB in short texts plus one
// oversized text leaves every chunk free, no arena node referencing
// character data, and Retained no lower than before the Reset.
func TestResetKeepsTextChunks(t *testing.T) {
	b, syms := build(false)
	doc := el(b, syms, b.Root(), "doc")
	b.AddRole(doc, 1, 1)
	line := strings.Repeat("x", 1<<10)
	for held := 0; held < 512<<10; held += len(line) {
		b.AppendText(doc, line)
	}
	b.AppendText(doc, strings.Repeat("y", 2*textChunkBytes))

	st := b.Stats()
	if st.TextLiveAtPeak != st.TextLiveBytes || st.TextHeldAtPeak != st.TextHeldBytes {
		t.Errorf("nothing was purged, so the peak is now: %+v", st)
	}
	chunks := len(b.text.chunks)
	if int64(chunks)*textChunkBytes != st.TextHeldBytes-2*textChunkBytes {
		t.Fatalf("sanity: %d chunks for %d held bytes", chunks, st.TextHeldBytes)
	}
	retained := b.Retained()
	if retained < int64(chunks)*textChunkBytes {
		t.Errorf("Retained is %d, below the %d bytes of chunks", retained, chunks*textChunkBytes)
	}
	b.Reset()
	checkIdle(t, b)
	if len(b.text.chunks) != chunks || b.Retained() < retained {
		t.Errorf("Reset: %d chunks, Retained %d; before it %d chunks, Retained %d", len(b.text.chunks), b.Retained(), chunks, retained)
	}

	// The next run starts on the kept chunks.
	n := b.AppendText(b.Root(), "again")
	if n.Text != "again" || n.chunk == 0 || len(b.text.chunks) != chunks {
		t.Errorf("run after Reset: text %q in chunk %d of %d", n.Text, n.chunk, len(b.text.chunks))
	}
}
