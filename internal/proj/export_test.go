package proj

import "gcx/internal/xmlstream"

// Test-only windows into the projector for the external suite.

// Matched is the multiset of projection nodes matched on the innermost open
// frame, as node ID → multiplicity: the multiplicities of every entry on the
// frame summed per node. It is Example 1's multiset for the frame's tag path.
func (p *Projector) Matched() map[int]int {
	m := map[int]int{}
	for _, e := range p.stack[len(p.stack)-1].matches {
		m[e.pn.ID] += e.mult
	}
	return m
}

// Observer is the token observer Step currently calls (nil when none).
func (p *Projector) Observer() func(xmlstream.Token) { return p.observe }

// Retained reports what the projector keeps for its next run: its pooled
// frames, the room its open-element stack and scope arena keep, and
// whether a pooled frame still links to a frame, an entry or a buffer
// node.
func (p *Projector) Retained() (frames, stack, scopes int, linked bool) {
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
	return len(p.pool), cap(p.stack), cap(p.scopeArena), linked
}

// MaxRetainedFrames is maxRetainedFrames, for the external suite.
const MaxRetainedFrames = maxRetainedFrames
