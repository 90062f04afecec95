package buffer

import (
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Test-only windows into the buffer for the suite.

// RoleCount returns the multiplicity of role r on n.
func (b *Buffer) RoleCount(n *Node, r xqast.Role) int {
	if e := b.entry(n, r); e != nil {
		return int(e.n)
	}
	return 0
}

// Resolve exposes signOff path resolution: it returns the nodes reached
// by steps from binding, in document order.
func (b *Buffer) Resolve(binding *Node, steps []xqast.Step, names []xmlstream.Sym) []*Node {
	ts := b.resolve(binding, steps, names)
	out := make([]*Node, len(ts))
	for i, t := range ts {
		out[i] = t.node
	}
	return out
}
