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
func (b *Buffer) resolve(start *Node, steps []xqast.Step, names []xmlstream.Sym) []target {
	cur := append(b.resA[:0], target{start, 1})
	next := b.resB[:0]
	for _, s := range steps {
		var sym xmlstream.Sym
		if s.Test.Kind == xqast.TestName {
			sym = names[s.Test.ID]
		}
		next = next[:0]
		for _, t := range cur {
			next = b.stepMatches(t.node, s, sym, t.mult, next)
		}
		cur, next = next, cur
	}
	b.resA, b.resB = cur, next
	return cur
}

// addTarget merges (n, m) into out: a node reached through several
// derivations accumulates its multiplicities (Figure 4(c)). Target sets
// are small, so a linear scan beats a map.
func addTarget(out []target, n *Node, m int) []target {
	for i := range out {
		if out[i].node == n {
			out[i].mult += m
			return out
		}
	}
	return append(out, target{n, m})
}

// stepMatches appends the matches of one location step from ctx in
// document order. With a [1] predicate, only the first match per context is
// reported — mirroring first-witness role assignment during projection.
func (b *Buffer) stepMatches(ctx *Node, s xqast.Step, sym xmlstream.Sym, mult int, out []target) []target {
	switch s.Axis {
	case xqast.Child:
		for c := ctx.FirstChild; c != nil; c = c.NextSib {
			if MatchTest(s.Test.Kind, sym, c) {
				out = addTarget(out, c, mult)
				if s.First {
					return out
				}
			}
		}
	case xqast.Descendant:
		out, _ = b.walkDescendants(ctx, s, sym, mult, out)
	case xqast.DescendantOrSelf:
		if MatchTest(s.Test.Kind, sym, ctx) {
			out = addTarget(out, ctx, mult)
			if s.First {
				return out
			}
		}
		out, _ = b.walkDescendants(ctx, s, sym, mult, out)
	}
	return out
}

// walkDescendants appends matching proper descendants of ctx in document
// order; with First set it stops after the first match (stop=true).
func (b *Buffer) walkDescendants(ctx *Node, s xqast.Step, sym xmlstream.Sym, mult int, out []target) (_ []target, stop bool) {
	for c := ctx.FirstChild; c != nil; c = c.NextSib {
		if MatchTest(s.Test.Kind, sym, c) {
			out = addTarget(out, c, mult)
			if s.First {
				return out, true
			}
		}
		if out, stop = b.walkDescendants(c, s, sym, mult, out); stop {
			return out, true
		}
	}
	return out, false
}

// MatchTest evaluates a node test against a buffered node; sym is the
// resolved tag of a name test (ignored by the other kinds). It runs once
// per node a cursor or a signOff path visits.
//
//gcxlint:noalloc
func MatchTest(kind xqast.TestKind, sym xmlstream.Sym, n *Node) bool {
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
