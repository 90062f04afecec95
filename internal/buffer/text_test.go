package buffer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// debugChunk is the chunk size these tests run the slab at: small enough
// that a few texts roll a chunk over, and it switches the poisoning on.
const debugChunk = 256

// checkText verifies the slab against a shadow copy of every live text:
// each linked text node still reads what was appended (a released text is
// overwritten with 0xFF, so a chunk handed out twice or reclaimed early
// shows), the byte counters equal the recomputed sums, and the slab pins
// no more than the live text plus one chunk's worth per chunk in use.
func checkText(t *testing.T, b *Buffer, shadow map[*Node]string) {
	t.Helper()
	var live, big int64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == KindText {
			want, ok := shadow[n]
			if !ok {
				t.Fatalf("live text node %q has no shadow", n.Text)
			}
			if n.Text != want {
				t.Fatalf("live text reads %q, was appended as %q", n.Text, want)
			}
			live += int64(len(want))
			if n.chunk < 0 {
				big += int64(len(want))
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			walk(c)
		}
	}
	walk(b.root)

	st := b.Stats()
	if st.TextLiveBytes != live {
		t.Fatalf("TextLiveBytes %d, live texts sum to %d", st.TextLiveBytes, live)
	}
	inUse := int64(0)
	for i := range b.text.chunks {
		if b.text.chunks[i].live > 0 {
			inUse++
		}
	}
	if st.TextChunks != inUse {
		t.Fatalf("TextChunks %d, %d chunks have live text", st.TextChunks, inUse)
	}
	if want := inUse*int64(b.text.chunkBytes) + big; st.TextHeldBytes != want {
		t.Fatalf("TextHeldBytes %d, want %d (%d chunks in use, %d oversized bytes)", st.TextHeldBytes, want, inUse, big)
	}
	if st.TextHeldBytes > live+inUse*int64(b.text.chunkBytes) {
		t.Fatalf("slab holds %d bytes for %d live in %d chunks", st.TextHeldBytes, live, inUse)
	}
	if st.TextPeakHeldBytes < st.TextHeldBytes {
		t.Fatalf("TextPeakHeldBytes %d below TextHeldBytes %d", st.TextPeakHeldBytes, st.TextHeldBytes)
	}
}

// checkIdle verifies what a Reset buffer may still pin: chunk capacity up
// to the retention cap, every chunk of it free, and no text at all.
func checkIdle(t *testing.T, b *Buffer) {
	t.Helper()
	if len(b.text.free) != len(b.text.chunks) || b.text.cur != -1 {
		t.Fatalf("idle buffer: %d of %d chunks free, cur %d", len(b.text.free), len(b.text.chunks), b.text.cur)
	}
	if st := b.Stats(); st.TextLiveBytes != 0 || st.TextHeldBytes != 0 || st.TextChunks != 0 || st.TextPeakHeldBytes != 0 {
		t.Fatalf("idle buffer still counts text: %+v", st)
	}
	for _, slab := range b.arena.slabs {
		for i := range slab {
			if slab[i].Text != "" {
				t.Fatalf("idle buffer: arena node still references text %q", slab[i].Text)
			}
		}
	}
}

// randText draws a text length from the cases the slab distinguishes:
// empty, short, right at the oversize threshold and one past it, exactly a
// chunk, and longer than a chunk.
func randText(r *rand.Rand, id int) string {
	var n int
	switch r.Intn(12) {
	case 0:
		n = 0
	case 1:
		n = debugChunk / oversizeDivisor
	case 2:
		n = debugChunk/oversizeDivisor + 1
	case 3:
		n = debugChunk
	case 4:
		n = debugChunk + 1 + r.Intn(3*debugChunk)
	default:
		n = 1 + r.Intn(40)
	}
	// Every text differs from its neighbours, so reading another node's
	// bytes never passes for reading one's own.
	return strings.Repeat(string(rune('a'+id%26)), n)
}

// TestQuickTextSlab drives append/role/finish/signOff sequences, purges
// included, against a shadow map, and then a Reset.
func TestQuickTextSlab(t *testing.T) {
	defer SetTextDebug(debugChunk)()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		syms := xmlstream.NewSymTab()
		const roles = 3
		b := New(syms, roles, []bool{false, false, true, false})
		shadow := make(map[*Node]string)

		type held struct {
			n    *Node
			role xqast.Role
		}
		var holds []held
		open := []*Node{b.Root()}
		for round := 0; round < 2; round++ {
			for step := 0; step < 300; step++ {
				parent := open[len(open)-1]
				switch r.Intn(10) {
				case 0, 1:
					n := b.AppendElement(parent, syms.Intern("e"))
					if r.Intn(2) == 0 {
						role := xqast.Role(1 + r.Intn(roles))
						b.AddRole(n, role, 1)
						holds = append(holds, held{n, role})
					}
					open = append(open, n)
				case 2, 3, 4, 5:
					text := randText(r, step)
					n := b.AppendText(parent, text)
					shadow[n] = text
					if r.Intn(3) == 0 {
						role := xqast.Role(1 + r.Intn(roles))
						b.AddRole(n, role, 1)
						holds = append(holds, held{n, role})
					} else {
						b.collect(n) // a role-free text outside any cover is purged at once
					}
				case 6, 7:
					if len(open) > 1 {
						b.Finish(parent)
						open = open[:len(open)-1]
					}
				default:
					if len(holds) > 0 {
						i := r.Intn(len(holds))
						h := holds[i]
						holds = append(holds[:i], holds[i+1:]...)
						if err := b.SignOff(h.n, nil, nil, h.role); err != nil {
							t.Logf("seed %d: signOff: %v", seed, err)
							return false
						}
					}
				}
				for n := range shadow {
					if n.unlinked {
						delete(shadow, n)
					}
				}
				checkText(t, b, shadow)
			}
			b.Reset()
			checkIdle(t, b)
			clear(shadow)
			holds, open = holds[:0], append(open[:0], b.Root())
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTextChunkLifeCycle pins the slab's moves one at a time.
func TestTextChunkLifeCycle(t *testing.T) {
	defer SetTextDebug(debugChunk)()
	b, syms := build(false, false)
	e := el(b, syms, b.Root(), "e")
	b.AddRole(e, 1, 1)
	shadow := make(map[*Node]string)
	add := func(text string) *Node {
		n := b.AppendText(e, text)
		b.AddRole(n, 2, 1)
		shadow[n] = text
		checkText(t, b, shadow)
		return n
	}
	drop := func(n *Node) {
		if err := b.SignOff(n, nil, nil, 2); err != nil {
			t.Fatal(err)
		}
		if !n.unlinked {
			t.Fatal("signed-off text still linked")
		}
		delete(shadow, n)
		checkText(t, b, shadow)
	}
	const limit = debugChunk / oversizeDivisor

	if n := add(""); n.Text != "" || n.chunk != 0 || len(b.text.chunks) != 0 {
		t.Fatalf("empty text took slab space: chunk %d, %d chunks", n.chunk, len(b.text.chunks))
	}

	// Four texts at the threshold fill chunk 0 exactly; the fifth opens
	// chunk 1.
	var first []*Node
	for i := 0; i < oversizeDivisor; i++ {
		first = append(first, add(strings.Repeat(string(rune('a'+i)), limit)))
	}
	if len(b.text.chunks) != 1 || b.text.chunks[0].used != debugChunk {
		t.Fatalf("threshold texts: %d chunks, %d used", len(b.text.chunks), b.text.chunks[0].used)
	}
	fifth := add("z")
	if len(b.text.chunks) != 2 || fifth.chunk != 2 {
		t.Fatalf("full chunk not rolled over: %d chunks, fifth in %d", len(b.text.chunks), fifth.chunk)
	}

	// A chunk is pinned by its last live text and reusable the moment
	// that one goes: the next roll-over takes it back, not a third chunk.
	for _, n := range first[:len(first)-1] {
		drop(n)
	}
	if got := b.Stats().TextChunks; got != 2 {
		t.Fatalf("one live text must pin its chunk: %d chunks in use", got)
	}
	drop(first[len(first)-1])
	if got := b.Stats().TextChunks; got != 1 {
		t.Fatalf("emptied chunk still in use: %d", got)
	}
	for i := 0; len(b.text.free) > 0; i++ {
		add(strings.Repeat(string(rune('k'+i)), limit))
	}
	if len(b.text.chunks) != 2 {
		t.Fatalf("freed chunk was not reused: %d chunks", len(b.text.chunks))
	}

	// The chunk being filled rewinds in place when its last text goes.
	b.Reset()
	checkIdle(t, b)
	clear(shadow)
	e = el(b, syms, b.Root(), "e")
	b.AddRole(e, 1, 1)
	for i := 0; i < 10; i++ {
		drop(add(strings.Repeat("r", limit)))
	}
	if len(b.text.chunks) != 2 || b.text.chunks[b.text.cur].used != 0 {
		t.Fatalf("append/purge cycles grew the slab: %d chunks, %d used", len(b.text.chunks), b.text.chunks[b.text.cur].used)
	}

	// Oversized texts — one past the threshold, exactly a chunk, several
	// chunks — are allocations of their own, counted while linked.
	chunks := len(b.text.chunks)
	for _, size := range []int{limit + 1, debugChunk, 3*debugChunk + 7} {
		n := add(strings.Repeat("o", size))
		if n.chunk != -1 || len(b.text.chunks) != chunks {
			t.Fatalf("text of %d bytes was carved from a chunk", size)
		}
		if got := b.Stats().TextHeldBytes; got != int64(size) {
			t.Fatalf("oversized text of %d bytes: %d held", size, got)
		}
		drop(n)
		if got := b.Stats().TextHeldBytes; got != 0 {
			t.Fatalf("purged oversized text still held: %d", got)
		}
	}
}

// TestReleasedTextIsPoisoned is the hook's own check: a string header
// copied out of a node reads 0xFF once the node is purged, and once the
// buffer is Reset.
func TestReleasedTextIsPoisoned(t *testing.T) {
	defer SetTextDebug(debugChunk)()
	ff := func(n int) string { return strings.Repeat("\xff", n) }
	for _, size := range []int{5, debugChunk} {
		b, syms := build(false, false)
		e := el(b, syms, b.Root(), "e")
		b.AddRole(e, 1, 1)
		purged := b.AppendText(e, strings.Repeat("p", size))
		kept := b.AppendText(e, strings.Repeat("k", size))
		b.AddRole(purged, 2, 1)
		b.AddRole(kept, 2, 1)
		stalePurged, staleKept := purged.Text, kept.Text
		if err := b.SignOff(purged, nil, nil, 2); err != nil {
			t.Fatal(err)
		}
		if stalePurged != ff(size) {
			t.Errorf("size %d: alias of a purged text reads %q", size, stalePurged)
		}
		if staleKept != strings.Repeat("k", size) {
			t.Errorf("size %d: a purge damaged a live neighbour: %q", size, staleKept)
		}
		b.Reset()
		if staleKept != ff(size) {
			t.Errorf("size %d: alias surviving Reset reads %q", size, staleKept)
		}
	}
}
