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
