package projtree

import (
	"strings"

	"gcx/internal/xqast"
)

// Test-only helpers: what the suite reads off a tree that no production
// code needs.

// Role returns the role with the given ID, or nil.
func (t *Tree) Role(id xqast.Role) *Role {
	if id <= 0 || int(id) >= len(t.Roles) {
		return nil
	}
	return t.Roles[id]
}

// ActiveRoleCount returns the number of non-eliminated roles.
func (t *Tree) ActiveRoleCount() int {
	n := 0
	for _, r := range t.Roles[1:] {
		if !r.Eliminated {
			n++
		}
	}
	return n
}

// PathTo returns the steps from the root to n.
func PathTo(n *Node) []xqast.Step {
	var rev []xqast.Step
	for cur := n; cur != nil && !cur.IsRoot; cur = cur.Parent {
		rev = append(rev, cur.Step)
	}
	steps := make([]xqast.Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return steps
}

// XPath renders the absolute XPath of n in the paper's abbreviated
// notation, e.g. "/bib/*/price[1]" or "/book/title/dos::node()".
func XPath(n *Node) string {
	if n.IsRoot {
		return "/"
	}
	var b strings.Builder
	for _, s := range PathTo(n) {
		switch s.Axis {
		case xqast.Child:
			b.WriteByte('/')
		case xqast.Descendant:
			b.WriteString("//")
		case xqast.DescendantOrSelf:
			b.WriteString("/dos::")
			b.WriteString(s.Test.String())
			if s.First {
				b.WriteString("[1]")
			}
			continue
		}
		b.WriteString(s.Test.String())
		if s.First {
			b.WriteString("[1]")
		}
	}
	return b.String()
}
