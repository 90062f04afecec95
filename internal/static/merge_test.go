package static

import (
	"testing"

	"gcx/internal/projtree"
	"gcx/internal/xqast"
)

// Tests for the shared-automaton merge: structurally identical nodes of
// DIFFERENT member queries collapse to one merged node carrying extra role
// lanes, and nodes of the SAME member never collapse.

func trees(t *testing.T, queries ...string) []*projtree.Tree {
	t.Helper()
	out := make([]*projtree.Tree, len(queries))
	for i, q := range queries {
		out[i] = analyze(t, q, AllOptimizations()).Tree
	}
	return out
}

func laneCount(tr *projtree.Tree) int {
	n := 0
	for _, node := range tr.Nodes {
		n += len(node.Extra)
	}
	return n
}

// TestMergeSharesCommonPrefix: two queries over /bib/book with different
// leaf interests share the /bib and /book spine; only the leaves stay
// separate.
func TestMergeSharesCommonPrefix(t *testing.T) {
	q1 := `<q>{ for $b in /bib/book return $b/title }</q>`
	q2 := `<q>{ for $p in /bib/book return $p/price }</q>`
	ts := trees(t, q1, q2)
	solo1, solo2 := len(ts[0].Nodes), len(ts[1].Nodes)

	m, offsets := MergeTrees(ts)
	disjointSize := solo1 + solo2 - 1 // shared root only
	if len(m.Nodes) >= disjointSize {
		t.Fatalf("merged tree has %d nodes, expected sharing below the disjoint size %d:\n%s",
			len(m.Nodes), disjointSize, m.Format())
	}
	// The shared spine is /bib and /book: exactly two nodes carry a lane.
	if got := laneCount(m); got != 2 {
		t.Fatalf("expected 2 lane refs (shared /bib and /book), got %d:\n%s", got, m.Format())
	}
	// Role spaces stay disjoint: query 2's roles are offset past query 1's.
	if offsets[0] != 0 {
		t.Fatalf("first query's offset must be 0, got %d", offsets[0])
	}
	soloRoles1 := xqast.Role(len(ts[0].Roles) - 1)
	if offsets[1] != soloRoles1 {
		t.Fatalf("second query's offset must be %d, got %d", soloRoles1, offsets[1])
	}
	if want := int(soloRoles1) + len(ts[1].Roles) - 1 + 1; len(m.Roles) != want {
		t.Fatalf("combined role table has %d entries, want %d", len(m.Roles), want)
	}
	// Every combined role's node must live in the merged tree.
	inMerged := map[*projtree.Node]bool{}
	for _, n := range m.Nodes {
		inMerged[n] = true
	}
	for _, r := range m.Roles[1:] {
		if r.Node != nil && !inMerged[r.Node] {
			t.Fatalf("role r%d points outside the merged tree", r.ID)
		}
	}
}

// TestMergeIdenticalQueries: N copies of the same query collapse to the
// solo tree shape — the node count stays constant as copies are added,
// which is the sublinearity the subscription registry relies on.
func TestMergeIdenticalQueries(t *testing.T) {
	q := `<q>{ for $b in /bib/book return if (exists($b/price)) then $b/title else () }</q>`
	ts := trees(t, q, q, q, q)
	solo := len(ts[0].Nodes)

	m, offsets := MergeTrees(ts)
	if len(m.Nodes) != solo {
		t.Fatalf("four identical queries merged to %d nodes, want the solo %d:\n%s",
			len(m.Nodes), solo, m.Format())
	}
	// Role spaces still stack: each copy owns a full range.
	soloRoles := len(ts[0].Roles) - 1
	for i, off := range offsets {
		if int(off) != i*soloRoles {
			t.Fatalf("offset[%d] = %d, want %d", i, off, i*soloRoles)
		}
	}
	if len(m.Roles) != 4*soloRoles+1 {
		t.Fatalf("combined role table has %d entries, want %d", len(m.Roles), 4*soloRoles+1)
	}
}

// TestMergeNeverSharesWithinOneQuery: a query whose own tree contains two
// structurally identical sibling subtrees keeps them separate after the
// merge — sharing is strictly cross-member (each member's solo matching
// structure is preserved).
func TestMergeNeverSharesWithinOneQuery(t *testing.T) {
	q := `<q>{ (for $a in /bib/book return <x/>), (for $b in /bib/book return <y/>) }</q>`
	ts := trees(t, q)
	solo := len(ts[0].Nodes)

	m, _ := MergeTrees(ts)
	if len(m.Nodes) != solo {
		t.Fatalf("single-member merge changed the node count: %d vs solo %d:\n%s",
			len(m.Nodes), solo, m.Format())
	}
	if got := laneCount(m); got != 0 {
		t.Fatalf("single-member merge must not create lanes, got %d", got)
	}

	// Two copies of the duplicate-path query: cross-member sharing still
	// collapses the trees onto each other (same count as one), and each
	// member's two /bib/book chains land on two DISTINCT merged nodes.
	m2, _ := MergeTrees(trees(t, q, q))
	if len(m2.Nodes) != solo {
		t.Fatalf("two copies merged to %d nodes, want %d:\n%s", len(m2.Nodes), solo, m2.Format())
	}
}

// TestShareablePredicate: the sharing guard refuses every mismatch that
// would change matching or cancellation semantics — different steps
// (including the [1] predicate), variable/chain class (binding lanes are
// exempt from the cancellation reduction chain lanes undergo), and
// self-anchoring.
func TestShareablePredicate(t *testing.T) {
	step := func(name string, first bool) xqast.Step {
		return xqast.Step{Axis: xqast.Child, Test: xqast.NameTest(name), First: first}
	}
	base := &projtree.Node{Step: step("book", false), Var: "b", AnchorSelf: true}
	cases := []struct {
		name string
		n    *projtree.Node
		want bool
	}{
		{"identical shape", &projtree.Node{Step: step("book", false), Var: "p", AnchorSelf: true}, true},
		{"different tag", &projtree.Node{Step: step("price", false), Var: "p", AnchorSelf: true}, false},
		{"[1] predicate differs", &projtree.Node{Step: step("book", true), Var: "p", AnchorSelf: true}, false},
		{"chain vs binding class", &projtree.Node{Step: step("book", false), Var: "", AnchorSelf: true}, false},
		{"anchor class differs", &projtree.Node{Step: step("book", false), Var: "p", AnchorSelf: false}, false},
	}
	for _, c := range cases {
		if got := shareable(base, c.n); got != c.want {
			t.Errorf("%s: shareable = %v, want %v", c.name, got, c.want)
		}
	}
}
