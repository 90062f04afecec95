// Package projtree defines projection trees and the role table
// (Section 2 of the paper).
//
// A projection tree is an unranked, unordered tree whose root is labeled "/"
// and whose inner nodes are labeled with location steps axis::x[p], where
// axis is child, descendant, or descendant-or-self, x is a tag name, "*",
// text(), or node(), and p is either true (omitted) or position()=1.
// Leaves labeled dos::node() denote that entire subtrees must be preserved.
//
// Each projection-tree node defines at most one role (the paper's function
// rpi); role-carrying matches make document nodes relevant for buffering,
// and signOff statements remove those roles again at runtime.
package projtree

import (
	"fmt"
	"sort"
	"strings"

	"gcx/internal/xqast"
)

// RoleKind records why a role exists; it drives signOff placement and the
// optimizations of Section 6.
type RoleKind uint8

const (
	// RoleBinding is a for-loop binding role: the nodes a variable
	// iterates over are relevant as iteration anchors.
	RoleBinding RoleKind = iota + 1
	// RoleExists keeps the first witness of an existence check ([1]
	// predicate, Definition 2 first bullet).
	RoleExists
	// RoleOutput keeps full subtrees that are copied to the output
	// (Definition 2, second and third bullets).
	RoleOutput
	// RoleCompare keeps full subtrees whose string values feed
	// comparisons.
	RoleCompare
)

// String names the role kind.
func (k RoleKind) String() string {
	switch k {
	case RoleBinding:
		return "binding"
	case RoleExists:
		return "exists"
	case RoleOutput:
		return "output"
	case RoleCompare:
		return "compare"
	default:
		return "kind?"
	}
}

// Role describes one role from the statically derived role table.
type Role struct {
	ID   xqast.Role
	Kind RoleKind
	// Var is the variable whose dependency (or binding) created the role.
	Var string
	// Aggregate marks roles assigned once at a subtree root instead of at
	// every subtree node (Section 6, "Aggregate Roles").
	Aggregate bool
	// Eliminated marks roles removed by redundant-role elimination
	// (Section 6): they are neither assigned during projection nor signed
	// off at runtime.
	Eliminated bool
	// Node is the projection-tree node that assigns this role.
	Node *Node
	// Desc is a human-readable origin, e.g. `exists($x/price)`.
	Desc string
}

// RoleRef is one role lane: an (assigned role, cancellation chain) pair.
// Every node has its own lane (the Role/ChainRole fields); a shared merged
// tree (static.MergeTrees) collapses structurally identical nodes of
// different member queries into one node carrying the extra members'
// lanes in Extra.
type RoleRef struct {
	// Role is the role assigned to matching document nodes (0 if none).
	Role xqast.Role
	// Chain identifies the dependency chain for signOff cancellation.
	Chain xqast.Role
}

// Node is a projection-tree node.
type Node struct {
	ID     int
	Parent *Node
	// Step is the location step label. For the root node, Step is
	// meaningless and IsRoot is true.
	Step   xqast.Step
	IsRoot bool
	// Role is the role this node assigns to matching document nodes
	// (0 if none). Eliminated roles stay recorded here but are flagged in
	// the role table.
	Role xqast.Role
	// ChainRole identifies the dependency chain this node belongs to: for
	// nodes materialized from a dependency path it is the leaf's role; for
	// variable nodes it is the binding role. Used by signOff cancellation.
	ChainRole xqast.Role
	// Extra holds the role lanes of the other member queries sharing this
	// node in a merged tree; a node of one query has none, so its only
	// lane is its own. The projector reads every node through Lanes and
	// Lane: role assignment and signOff cancellation run per lane, while
	// matching, [1] witnesses, and the structural guard run once per node.
	Extra []RoleRef
	// Var is the variable this node binds (variable nodes only).
	Var string
	// AnchorSelf marks nodes whose match instances anchor signOff
	// cancellation at their own frame: the root and straight variables
	// (fsa($x) = $x). Dependency chains inherit their anchor from the
	// nearest such ancestor instance.
	AnchorSelf bool
	Children   []*Node
}

// Lanes returns the number of role lanes the node carries: its own and
// one per Extra entry.
//
//gcxlint:noalloc
func (n *Node) Lanes() int { return 1 + len(n.Extra) }

// Lane returns role lane i: lane 0 is the node's own (Role, ChainRole),
// lane i > 0 is Extra[i-1].
//
//gcxlint:noalloc
func (n *Node) Lane(i int) RoleRef {
	if i == 0 {
		return RoleRef{Role: n.Role, Chain: n.ChainRole}
	}
	return n.Extra[i-1]
}

// IsDosLeaf reports whether the node is a descendant-or-self::node() leaf
// (whole-subtree preservation).
func (n *Node) IsDosLeaf() bool {
	return !n.IsRoot && n.Step.Axis == xqast.DescendantOrSelf && n.Step.Test.Kind == xqast.TestNode
}

// Label renders the node's step label in the paper's notation.
func (n *Node) Label() string {
	if n.IsRoot {
		return "/"
	}
	switch n.Step.Axis {
	case xqast.Child:
		s := "/" + n.Step.Test.String()
		if n.Step.First {
			s += "[1]"
		}
		return s
	case xqast.Descendant:
		s := "//" + n.Step.Test.String()
		if n.Step.First {
			s += "[1]"
		}
		return s
	default:
		return "dos::" + n.Step.Test.String()
	}
}

// Tree is a projection tree plus its role table.
type Tree struct {
	Root  *Node
	Nodes []*Node // all nodes, indexed by ID
	// Roles is indexed by role ID (entry 0 unused).
	Roles []*Role
}

// New returns a tree containing only the root node.
func New() *Tree {
	root := &Node{ID: 0, IsRoot: true, AnchorSelf: true}
	return &Tree{Root: root, Nodes: []*Node{root}, Roles: []*Role{nil}}
}

// AddNode appends a child node under parent with the given step.
func (t *Tree) AddNode(parent *Node, step xqast.Step) *Node {
	n := &Node{ID: len(t.Nodes), Parent: parent, Step: step}
	t.Nodes = append(t.Nodes, n)
	parent.Children = append(parent.Children, n)
	return n
}

// AddRole allocates a role and attaches it to node n.
func (t *Tree) AddRole(n *Node, kind RoleKind, v string, aggregate bool, desc string) *Role {
	r := &Role{
		ID:        xqast.Role(len(t.Roles)),
		Kind:      kind,
		Var:       v,
		Aggregate: aggregate,
		Node:      n,
		Desc:      desc,
	}
	t.Roles = append(t.Roles, r)
	n.Role = r.ID
	return r
}

// Format renders the tree with one node per line, children indented, roles
// in braces — the textual analogue of the paper's Figure 1. Children are
// printed in insertion order (variable nodes before dependency chains).
func (t *Tree) Format() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "n%d: %s", n.ID, n.Label())
		if n.Role != 0 {
			r := t.Roles[n.Role]
			status := ""
			if r.Aggregate {
				status = " agg"
			}
			if r.Eliminated {
				status += " eliminated"
			}
			fmt.Fprintf(&b, "  {r%d%s}", n.Role, status)
		}
		for _, l := range n.Extra {
			// Shared merged trees only: one lane per additional member
			// query sharing this node.
			if l.Role != 0 {
				fmt.Fprintf(&b, "  +{r%d c%d}", l.Role, l.Chain)
			} else {
				fmt.Fprintf(&b, "  +{c%d}", l.Chain)
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}

// FormatRoles renders the role table sorted by ID, for diagnostics and
// golden tests.
func (t *Tree) FormatRoles() string {
	roles := append([]*Role(nil), t.Roles[1:]...)
	sort.Slice(roles, func(i, j int) bool { return roles[i].ID < roles[j].ID })
	var b strings.Builder
	for _, r := range roles {
		flags := ""
		if r.Aggregate {
			flags += " aggregate"
		}
		if r.Eliminated {
			flags += " eliminated"
		}
		fmt.Fprintf(&b, "r%-3d %-8s $%-8s %s%s\n", r.ID, r.Kind, r.Var, r.Desc, flags)
	}
	return b.String()
}
