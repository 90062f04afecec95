package buffer

import (
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// target is a node reached by a signOff path together with its derivation
// multiplicity (the number of distinct step-binding derivations reaching
// it). Role assignment during projection counts derivations the same way —
// a node reached twice (e.g. //a//b over /a/a/b, Figure 4(c)) holds the
// role twice and must lose it twice.
type target struct {
	node *Node
	mult int
}

// SignOff implements the runtime semantics of signOff($x/π, r)
// (Section 3): all nodes reachable from binding via π lose role r (once
// per derivation), and localized garbage collection (Figure 10) runs from
// each updated node.
//
// If the binding's subtree is still unfinished, the projector is first told
// to cancel future assignments of r below binding, so that tokens read
// later are neither tagged nor buffered on behalf of a role that has
// already been signed off.
//
// names resolves the steps' tag names: names[s.Test.ID] is the symbol of
// step s's name test in this buffer's symbol table (the evaluator interns
// its query's vocabulary once per run).
func (b *Buffer) SignOff(binding *Node, steps []xqast.Step, names []xmlstream.Sym, role xqast.Role) error {
	b.stats.SignOffs++
	if b.canceller != nil && !binding.finished {
		b.canceller.CancelRole(binding, role)
	}
	targets := b.resolve(binding, steps, names)
	isAgg := b.aggregate[role]
	for _, t := range targets {
		if err := b.removeRole(t.node, role, t.mult); err != nil {
			return err
		}
		if isAgg {
			// Removing an aggregate role uncovers the subtree: prune what
			// only the cover kept alive.
			b.sweep(t.node)
		}
		if !t.node.unlinked {
			b.collect(t.node)
		}
	}
	return nil
}

// resolve walks steps from start through the buffered tree using the
// buffer's ping-pong scratch slices, so steady-state signOff execution
// does not allocate. The returned slice is valid until the next resolve.
// Each step takes its matches from every context through NextMatch, the
// first only under [1]. A node reached from several contexts sums their
// multiplicities; only a non-child step from two or more contexts can
// reach one twice (a node has one parent, and one context's walk visits
// a node once), so only that case merges.
func (b *Buffer) resolve(start *Node, steps []xqast.Step, names []xmlstream.Sym) []target {
	cur := append(b.resA[:0], target{start, 1})
	next := b.resB[:0]
	for _, s := range steps {
		var sym xmlstream.Sym
		if s.Test.Kind == xqast.TestName {
			sym = names[s.Test.ID]
		}
		merge := s.Axis != xqast.Child && len(cur) > 1
		next = next[:0]
		for _, t := range cur {
			for n := NextMatch(t.node, nil, s.Axis, s.Test.Kind, sym); n != nil; n = NextMatch(t.node, n, s.Axis, s.Test.Kind, sym) {
				if merge {
					next = addTarget(next, n, t.mult)
				} else {
					next = append(next, target{n, t.mult})
				}
				if s.First {
					break
				}
			}
		}
		cur, next = next, cur
	}
	b.resA, b.resB = cur, next
	return cur
}

// addTarget merges (n, m) into out: a node reached through several
// derivations accumulates its multiplicities (Figure 4(c)).
func addTarget(out []target, n *Node, m int) []target {
	for i := range out {
		if out[i].node == n {
			out[i].mult += m
			return out
		}
	}
	return append(out, target{n, m})
}

// NextMatch returns the buffered match of a location step from ctx that
// follows after in document order (the first one when after is nil), or
// nil when the buffered region holds no further match. It never blocks:
// whether more can arrive is the caller's question. It is the one step
// matcher: evaluator cursors and signOff paths both walk through it.
//
//gcxlint:noalloc
func NextMatch(ctx, after *Node, axis xqast.Axis, kind xqast.TestKind, sym xmlstream.Sym) *Node {
	switch axis {
	case xqast.Child:
		n := ctx.FirstChild
		if after != nil {
			n = after.NextSib
		}
		for ; n != nil; n = n.NextSib {
			if matchTest(kind, sym, n) {
				return n
			}
		}
	case xqast.Descendant, xqast.DescendantOrSelf:
		n := after
		if n == nil {
			if axis == xqast.DescendantOrSelf && matchTest(kind, sym, ctx) {
				return ctx
			}
			n = ctx
		}
		// Depth-first through ctx's buffered subtree.
		for {
			if n.FirstChild != nil {
				n = n.FirstChild
			} else {
				for n != nil && n != ctx && n.NextSib == nil {
					n = n.Parent
				}
				if n == nil || n == ctx {
					return nil
				}
				n = n.NextSib
			}
			if matchTest(kind, sym, n) {
				return n
			}
		}
	}
	return nil
}

// matchTest evaluates a node test against a buffered node; sym is the
// resolved tag of a name test (ignored by the other kinds). It runs once
// per node a cursor or a signOff path visits.
//
//gcxlint:noalloc
func matchTest(kind xqast.TestKind, sym xmlstream.Sym, n *Node) bool {
	switch kind {
	case xqast.TestName:
		return n.Kind == KindElement && n.Sym == sym
	case xqast.TestStar:
		return n.Kind == KindElement
	case xqast.TestText:
		return n.Kind == KindText
	case xqast.TestNode:
		// node() also matches the virtual root: a dos::node() step from
		// the root variable includes it (its "self"), and the capture
		// assigns the role there.
		return n.Kind == KindElement || n.Kind == KindText || n.Kind == KindRoot
	default:
		return false
	}
}
