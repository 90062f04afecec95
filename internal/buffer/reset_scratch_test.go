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

// An idle pooled buffer keeps text chunks up to the retention cap and not
// one over it, whatever the last document made it hold — and none of the
// text: a FullBuffer-style run (nothing purged) of twice the cap in short
// texts plus one oversized text leaves chunk capacity within the cap,
// every chunk free, and no arena node referencing character data.
func TestResetCapsRetainedText(t *testing.T) {
	b, syms := build(false)
	doc := el(b, syms, b.Root(), "doc")
	b.AddRole(doc, 1, 1)
	line := strings.Repeat("x", 1<<10)
	for held := 0; held < 2*maxRetainedTextBytes; held += len(line) {
		b.AppendText(doc, line)
	}
	b.AppendText(doc, strings.Repeat("y", 2*textChunkBytes))

	st := b.Stats()
	if st.TextHeldBytes <= maxRetainedTextBytes {
		t.Fatalf("sanity: the run held %d bytes of text, want more than the cap %d", st.TextHeldBytes, maxRetainedTextBytes)
	}
	if st.TextLiveAtPeak != st.TextLiveBytes || st.TextHeldAtPeak != st.TextHeldBytes {
		t.Errorf("nothing was purged, so the peak is now: %+v", st)
	}
	b.Reset()
	checkIdle(t, b)
	if got := len(b.text.chunks) * textChunkBytes; got != maxRetainedTextBytes {
		t.Errorf("idle buffer retains %d bytes of chunks, want the cap %d", got, maxRetainedTextBytes)
	}

	// The next run starts on the retained chunks.
	n := b.AppendText(b.Root(), "again")
	if n.Text != "again" || n.chunk == 0 || len(b.text.chunks)*textChunkBytes != maxRetainedTextBytes {
		t.Errorf("run after Reset: text %q in chunk %d of %d", n.Text, n.chunk, len(b.text.chunks))
	}
}
