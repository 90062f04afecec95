package static

import (
	"gcx/internal/projtree"
	"gcx/internal/xqast"
)

// MergeTrees unions the projection trees of several independently analyzed
// queries into one combined tree for shared-stream workload evaluation
// (see DESIGN.md, "Merged projection trees, per-query role spaces").
//
// Projection trees are prefix-closed path sets, so their union under a
// common root is again a valid projection tree; a document projected with
// the union tree is a valid projected document for *each* member query,
// because every path a member's evaluation navigates is still covered and
// the structural guard of Section 2 (case (2)) now ranges over the
// combined configuration — an element another query preserves can never be
// promoted into a false child-axis match of this query.
//
// Structurally identical nodes of DIFFERENT member queries are shared:
// when query i's node has the same location step (including the [1]
// predicate), the same variable/chain class, and the same cancellation
// anchor class as an existing node of an earlier query, the existing node
// absorbs it as an extra role lane (projtree.RoleRef) instead of a clone.
// Matching work per stream token then scales with the number of DISTINCT
// path structures in the workload, not with the query count — the
// registry regime of 10k subscriptions over a few hundred shapes. The
// projector assigns roles and applies signOff cancellation per lane, so
// per-query role accounting is unchanged.
//
// Nodes of the SAME query are never shared with each other: within one
// member, dependency chains stay separate (each chain node belongs to
// exactly one role — required by signOff cancellation, see build.go), and
// sharing across variable/chain classes is refused because chain lanes
// are subject to cancellation reduction while binding lanes are exempt.
//
// Roles are renumbered into per-query role spaces: query i's roles occupy
// the half-open ID range (off[i], off[i+1]] of the combined role table,
// where off is the returned offset slice (off[i] is added to each of query
// i's solo role IDs). The combined role table is the concatenation of the
// member tables, so a role ID identifies its owning query by range.
func MergeTrees(trees []*projtree.Tree) (*projtree.Tree, []xqast.Role) {
	m := projtree.New()
	offsets := make([]xqast.Role, len(trees))
	// claimed maps a merged node to the index of the last tree that
	// placed one of its nodes there: a tree must never map two of its own
	// nodes onto one merged node (solo matching structure is preserved
	// per member), so only nodes claimed by EARLIER trees are share
	// targets.
	claimed := map[*projtree.Node]int{m.Root: -1}
	for qi, t := range trees {
		off := xqast.Role(len(m.Roles) - 1)
		offsets[qi] = off
		cloneOf := make(map[*projtree.Node]*projtree.Node, len(t.Nodes))
		cloneOf[t.Root] = m.Root
		// Nodes are stored in creation order, so parents precede children.
		for _, n := range t.Nodes[1:] {
			mp := cloneOf[n.Parent]
			lane := shift(n.Lane(0), off)
			var target *projtree.Node
			for _, s := range mp.Children {
				if last, ok := claimed[s]; ok && last < qi && shareable(s, n) {
					target = s
					break
				}
			}
			if target != nil {
				// Absorb as an extra lane; the shared node keeps the
				// first owner's own lane and Var.
				if lane != (projtree.RoleRef{}) {
					target.Extra = append(target.Extra, lane)
				}
			} else {
				target = m.AddNode(mp, n.Step)
				target.Var = n.Var
				target.AnchorSelf = n.AnchorSelf
				target.Role, target.ChainRole = lane.Role, lane.Chain
			}
			claimed[target] = qi
			cloneOf[n] = target
		}
		for _, r := range t.Roles[1:] {
			m.Roles = append(m.Roles, &projtree.Role{
				ID:         r.ID + off,
				Kind:       r.Kind,
				Var:        r.Var,
				Aggregate:  r.Aggregate,
				Eliminated: r.Eliminated,
				Node:       cloneOf[r.Node],
				Desc:       r.Desc,
			})
		}
	}
	return m, offsets
}

// shift moves a member's role lane into the merged role space: a set role
// or chain is offset by off, an unset one (0) stays unset.
func shift(l projtree.RoleRef, off xqast.Role) projtree.RoleRef {
	if l.Role != 0 {
		l.Role += off
	}
	if l.Chain != 0 {
		l.Chain += off
	}
	return l
}

// shareable reports whether an existing merged node can absorb an
// incoming member node as an extra lane: same location step (axis, test,
// and [1] predicate), same variable/chain class (chain lanes undergo
// cancellation reduction, binding lanes are exempt — see
// proj.Projector.remaining), and same self-anchoring class (the
// anchor frame resolution in openElement is keyed on the node).
func shareable(s *projtree.Node, n *projtree.Node) bool {
	return s.Step == n.Step &&
		(s.Var == "") == (n.Var == "") &&
		s.AnchorSelf == n.AnchorSelf
}
