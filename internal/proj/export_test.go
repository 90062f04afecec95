package proj

import (
	"unsafe"

	"gcx/internal/xmlstream"
)

// Test-only windows into the projector for the external suite.

// Matched is the multiset of projection nodes matched on the innermost open
// element, as node ID → multiplicity: the multiplicities of every entry on
// its frame summed per node, and none inside a dead subtree, whose elements
// have no frame. It is Example 1's multiset for the element's tag path.
func (p *Projector) Matched() map[int]int {
	m := map[int]int{}
	if p.dead > 0 {
		return m
	}
	for _, e := range p.stack[len(p.stack)-1].matches {
		m[e.pn.ID] += e.mult
	}
	return m
}

// Skipped is the number of tokens the tokenizer counted for skipDead
// without building them; TokensRead less Skipped were built by Next.
func (p *Projector) Skipped() int64 { return p.skipped }

// OpenFrames is the number of open frames, the document node's among them.
func (p *Projector) OpenFrames() int { return len(p.stack) }

// Observer is the token observer Step currently calls (nil when none).
func (p *Projector) Observer() func(xmlstream.Token) { return p.observe }

// Pooled reports what the projector keeps for its next run: its pooled
// frames, and whether one of them still links to a frame, an entry or a
// buffer node.
func (p *Projector) Pooled() (frames int, linked bool) {
	for _, f := range p.pool {
		if f.parent != nil || f.node != nil || f.attach != nil || f.scopes != nil || len(f.firstUsed) > 0 {
			linked = true
		}
		for _, e := range f.matches[:cap(f.matches)] {
			linked = linked || e != (entry{})
		}
		for _, c := range f.captures[:cap(f.captures)] {
			linked = linked || c != (capture{})
		}
	}
	return len(p.pool), linked
}

// FrameBytes is the size of one frame.
const FrameBytes = int64(unsafe.Sizeof(frame{}))
