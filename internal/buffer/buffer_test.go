package buffer

import (
	"strings"
	"testing"

	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// build constructs a buffer with the given aggregate flags (1-based role
// IDs).
func build(aggregate ...bool) (*Buffer, *xmlstream.SymTab) {
	syms := xmlstream.NewSymTab()
	return New(syms, len(aggregate), append([]bool{false}, aggregate...)), syms
}

func el(b *Buffer, syms *xmlstream.SymTab, parent *Node, name string) *Node {
	return b.AppendElement(parent, syms.Intern(name))
}

func step(axis xqast.Axis, test xqast.NodeTest, first bool) xqast.Step {
	return xqast.Step{Axis: axis, Test: test, First: first}
}

// names numbers the steps' name tests in place and interns them, as
// xqast.Resolve and the evaluator's Reset do for a compiled query.
func names(syms *xmlstream.SymTab, steps []xqast.Step) []xmlstream.Sym {
	var out []xmlstream.Sym
	for i := range steps {
		if steps[i].Test.Kind == xqast.TestName {
			steps[i].Test.ID = len(out)
			out = append(out, syms.Intern(steps[i].Test.Name))
		}
	}
	return out
}

func TestAppendAndLinks(t *testing.T) {
	b, syms := build(false)
	bib := el(b, syms, b.Root(), "bib")
	book1 := el(b, syms, bib, "book")
	book2 := el(b, syms, bib, "book")
	txt := b.AppendText(book1, "hello")

	if bib.FirstChild != book1 || bib.LastChild != book2 {
		t.Fatal("child links wrong")
	}
	if book1.NextSib != book2 || book2.PrevSib != book1 {
		t.Fatal("sibling links wrong")
	}
	if txt.Parent != book1 || !txt.Finished() {
		t.Fatal("text node wrong")
	}
	if got := b.Stats().LiveNodes; got != 5 { // root + 4
		t.Fatalf("LiveNodes = %d, want 5", got)
	}
}

func TestRoleMultiset(t *testing.T) {
	b, syms := build(false, false)
	n := el(b, syms, b.Root(), "a")
	b.AddRole(n, 1, 1)
	b.AddRole(n, 2, 2)
	b.AddRole(n, 1, 1)
	if b.RoleCount(n, 1) != 2 || b.RoleCount(n, 2) != 2 {
		t.Fatalf("multiset: %s", b.RolesString(n))
	}
	if b.RolesString(n) != "{r1,r1,r2,r2}" {
		t.Fatalf("roles string: %s", b.RolesString(n))
	}
	if n.SubtreeRoles() != 4 || b.Root().SubtreeRoles() != 4 {
		t.Fatal("subtree accounting wrong")
	}
}

func TestUndefinedRemoval(t *testing.T) {
	b, syms := build(false)
	n := el(b, syms, b.Root(), "a")
	b.Finish(n)
	// n is pruned at finish (roleless); rebuild.
	n = el(b, syms, b.Root(), "a")
	b.AddRole(n, 1, 1)
	if err := b.SignOff(n, nil, nil, 1); err != nil {
		t.Fatalf("first removal: %v", err)
	}
	n2 := el(b, syms, b.Root(), "a")
	if err := b.SignOff(n2, nil, nil, 1); err == nil {
		t.Fatal("second removal must be undefined (Section 2 remρ)")
	}
}

// TestLocalizedGCUpwardPropagation reproduces Figure 10's bottom-up walk:
// removing the last role of a leaf deletes it and then its now-irrelevant
// ancestors, stopping at the first relevant one.
func TestLocalizedGCUpwardPropagation(t *testing.T) {
	b, syms := build(false, false)
	bib := el(b, syms, b.Root(), "bib")
	book := el(b, syms, bib, "book")
	title := el(b, syms, book, "title")
	b.AddRole(bib, 1, 1)   // keeps bib alive
	b.AddRole(title, 2, 1) // keeps book+title alive
	for _, n := range []*Node{title, book, bib} {
		b.Finish(n)
	}

	if err := b.SignOff(title, nil, nil, 2); err != nil {
		t.Fatal(err)
	}
	if !title.Unlinked() || !book.Unlinked() {
		t.Fatal("title and book must be reclaimed bottom-up")
	}
	if bib.Unlinked() {
		t.Fatal("bib still carries a role and must survive")
	}
	if b.Stats().LiveNodes != 2 { // root + bib
		t.Fatalf("LiveNodes = %d, want 2", b.Stats().LiveNodes)
	}
}

// TestUnfinishedNodesDeferred: the paper marks unfinished nodes deleted and
// purges them when the closing tag arrives.
func TestUnfinishedNodesDeferred(t *testing.T) {
	b, syms := build(false)
	a := el(b, syms, b.Root(), "a")
	b.AddRole(a, 1, 1)
	// a is still unfinished when the role disappears.
	if err := b.SignOff(a, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if a.Unlinked() {
		t.Fatal("unfinished node must not be reclaimed yet")
	}
	b.Finish(a)
	if !a.Unlinked() {
		t.Fatal("node must be purged when its closing tag is read")
	}
}

// TestPinnedNodesDeferred: evaluator cursors get the same treatment.
func TestPinnedNodesDeferred(t *testing.T) {
	b, syms := build(false)
	a := el(b, syms, b.Root(), "a")
	b.AddRole(a, 1, 1)
	b.Finish(a)
	b.Pin(a)
	if err := b.SignOff(a, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if a.Unlinked() {
		t.Fatal("pinned node must not be reclaimed")
	}
	b.Unpin(a)
	if !a.Unlinked() {
		t.Fatal("node must be reclaimed at unpin")
	}
}

// TestPinnedDescendantBlocksAncestorDeletion: a pin anywhere in the subtree
// keeps the whole chain.
func TestPinnedDescendantBlocksAncestorDeletion(t *testing.T) {
	b, syms := build(false)
	a := el(b, syms, b.Root(), "a")
	b.AddRole(a, 1, 1)
	c := el(b, syms, a, "c")
	b.Pin(c)
	b.Finish(c)
	b.Finish(a)
	if err := b.SignOff(a, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if a.Unlinked() || c.Unlinked() {
		t.Fatal("pinned subtree must survive")
	}
	b.Unpin(c)
	if !c.Unlinked() || !a.Unlinked() {
		t.Fatal("unpin must trigger deferred collection up the chain")
	}
}

// TestClosePrune: finished, role-free, uncovered nodes are reclaimed when
// their closing tag is read (skeleton nodes can never become relevant
// afterwards).
func TestClosePrune(t *testing.T) {
	b, syms := build(false)
	a := el(b, syms, b.Root(), "a")
	x := el(b, syms, a, "x") // skeleton node, never gets roles
	b.AddRole(a, 1, 1)
	b.Finish(x)
	if !x.Unlinked() {
		t.Fatal("roleless finished leaf must be pruned at close")
	}
	if a.Unlinked() {
		t.Fatal("parent with roles must survive")
	}
}

// TestAggregateCoverPreventsPrune: descendants of a node carrying an
// aggregate role are covered and must survive even without own roles.
func TestAggregateCoverPreventsPrune(t *testing.T) {
	b, syms := build(true) // r1 aggregate
	book := el(b, syms, b.Root(), "book")
	b.AddRole(book, 1, 1)
	author := el(b, syms, book, "author")
	b.Finish(author)
	if author.Unlinked() {
		t.Fatal("covered node must not be pruned at close")
	}
	b.Finish(book)

	// Removing the aggregate role sweeps the subtree.
	if err := b.SignOff(book, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if !author.Unlinked() || !book.Unlinked() {
		t.Fatal("aggregate removal must reclaim the whole subtree")
	}
}

// TestAggregateSweepKeepsRoledDescendants: the sweep must not touch
// descendants that carry own roles (e.g. the title holding r7 while the
// book's r5 disappears, as in the paper's step 6/7 of Figure 2).
func TestAggregateSweepKeepsRoledDescendants(t *testing.T) {
	b, syms := build(true, false) // r1 aggregate, r2 plain
	book := el(b, syms, b.Root(), "book")
	title := el(b, syms, book, "title")
	author := el(b, syms, book, "author")
	b.AddRole(book, 1, 1)
	b.AddRole(title, 2, 1)
	for _, n := range []*Node{title, author, book} {
		b.Finish(n)
	}

	if err := b.SignOff(book, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if author.Unlinked() == false {
		t.Fatal("author (roleless) must be swept")
	}
	if title.Unlinked() {
		t.Fatal("title (role r2) must survive the sweep")
	}
	if book.Unlinked() {
		t.Fatal("book must survive while title holds a role")
	}

	if err := b.SignOff(title, nil, nil, 2); err != nil {
		t.Fatal(err)
	}
	if !title.Unlinked() || !book.Unlinked() {
		t.Fatal("final signoff must empty the buffer")
	}
	if err := b.CheckBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestNestedAggregateSkipsCoveredBranch: sweeping must not descend into a
// branch covered by its own aggregate role.
func TestNestedAggregateSkipsCoveredBranch(t *testing.T) {
	b, syms := build(true, true)
	outer := el(b, syms, b.Root(), "outer")
	inner := el(b, syms, outer, "inner")
	leaf := el(b, syms, inner, "leaf")
	b.AddRole(outer, 1, 1)
	b.AddRole(inner, 2, 1)
	for _, n := range []*Node{leaf, inner, outer} {
		b.Finish(n)
	}
	if err := b.SignOff(outer, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if leaf.Unlinked() || inner.Unlinked() {
		t.Fatal("branch covered by inner aggregate must survive outer sweep")
	}
	if err := b.SignOff(inner, nil, nil, 2); err != nil {
		t.Fatal(err)
	}
	if !leaf.Unlinked() || !inner.Unlinked() || !outer.Unlinked() {
		t.Fatal("inner signoff must reclaim everything")
	}
}

// TestResolveDerivationMultiplicity reproduces Figure 4(c): //a//b over
// /a/a/b reaches the deep b twice, so the role is removed twice.
func TestResolveDerivationMultiplicity(t *testing.T) {
	b, syms := build(false)
	a1 := el(b, syms, b.Root(), "a")
	a2 := el(b, syms, a1, "a")
	deep := el(b, syms, a2, "b")
	shallow := el(b, syms, a1, "b")
	_ = shallow

	// Assign role r1 twice to deep (two derivations) and once to shallow,
	// mimicking the projector's multiset assignment in Figure 4(c).
	b.AddRole(deep, 1, 2)
	b.AddRole(shallow, 1, 1)
	for _, n := range []*Node{deep, a2, shallow, a1} {
		b.Finish(n)
	}

	steps := []xqast.Step{
		step(xqast.Descendant, xqast.NameTest("a"), false),
		step(xqast.Descendant, xqast.NameTest("b"), false),
	}
	if err := b.SignOff(b.Root(), steps, names(syms, steps), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckBalance(); err != nil {
		t.Fatalf("derivation-counting removal must balance: %v", err)
	}
	if b.Stats().LiveNodes != 1 {
		t.Fatalf("LiveNodes = %d, want 1 (root only)\n%s", b.Stats().LiveNodes, b.Dump())
	}
}

// TestResolveFirstWitness: [1] steps select only the first match per
// context, as the projector does when buffering witnesses.
func TestResolveFirstWitness(t *testing.T) {
	b, syms := build(false)
	book := el(b, syms, b.Root(), "book")
	p1 := el(b, syms, book, "price")
	b.AddRole(p1, 1, 1)
	// Second price was never buffered by projection ([1] suppression), but
	// even if it were, [1] resolution must pick only the first.
	p2 := el(b, syms, book, "price")
	for _, n := range []*Node{p1, p2, book} {
		b.Finish(n)
	}

	steps := []xqast.Step{step(xqast.Child, xqast.NameTest("price"), true)}
	got := b.Resolve(book, steps, names(syms, steps))
	if len(got) != 1 || got[0] != p1 {
		t.Fatalf("Resolve([1]) = %v, want [p1]", got)
	}
	if err := b.SignOff(book, steps, names(syms, steps), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckBalance(); err != nil {
		t.Fatal(err)
	}
}

func TestResolveDosIncludesSelfAndText(t *testing.T) {
	b, syms := build(false)
	x := el(b, syms, b.Root(), "x")
	c := el(b, syms, x, "c")
	txt := b.AppendText(c, "v")

	got := b.Resolve(x, []xqast.Step{step(xqast.DescendantOrSelf, xqast.NodeKindTest(), false)}, nil)
	if len(got) != 3 || got[0] != x || got[1] != c || got[2] != txt {
		t.Fatalf("dos::node() = %d nodes, want self+c+text", len(got))
	}
}

func TestStatsPeaks(t *testing.T) {
	b, syms := build(false)
	a := el(b, syms, b.Root(), "a")
	kids := make([]*Node, 0, 10)
	for i := 0; i < 10; i++ {
		k := el(b, syms, a, "k")
		b.AddRole(k, 1, 1)
		b.Finish(k)
		kids = append(kids, k)
	}
	peak := b.Stats().PeakNodes
	if peak != 12 { // root + a + 10 kids
		t.Fatalf("PeakNodes = %d, want 12", peak)
	}
	for _, k := range kids {
		if err := b.SignOff(k, nil, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.PeakNodes != 12 {
		t.Fatalf("peak must be sticky, got %d", st.PeakNodes)
	}
	// a itself is unfinished and survives; kids are gone.
	if st.LiveNodes != 2 {
		t.Fatalf("LiveNodes = %d, want 2\n%s", st.LiveNodes, b.Dump())
	}
	if st.LiveBytes <= 0 || st.PeakBytes < st.LiveBytes {
		t.Fatalf("byte accounting inconsistent: %+v", st)
	}
}

func TestDumpFormat(t *testing.T) {
	b, syms := build(false, false)
	bib := el(b, syms, b.Root(), "bib")
	book := el(b, syms, bib, "book")
	b.AddRole(bib, 1, 1)
	b.AddRole(book, 2, 2)
	b.Finish(book)
	dump := b.Dump()
	if !strings.Contains(dump, "bib{r1}*") {
		t.Fatalf("dump missing unfinished bib with role:\n%s", dump)
	}
	if !strings.Contains(dump, "book{r2,r2}") {
		t.Fatalf("dump missing book with role multiset:\n%s", dump)
	}
}

// cancellerSpy records cancellation calls.
type cancellerSpy struct {
	calls []xqast.Role
}

func (c *cancellerSpy) CancelRole(binding *Node, role xqast.Role) {
	c.calls = append(c.calls, role)
}

func TestSignOffCancellationOnlyWhenUnfinished(t *testing.T) {
	b, syms := build(false)
	spy := &cancellerSpy{}
	b.SetCanceller(spy)

	open := el(b, syms, b.Root(), "open")
	b.AddRole(open, 1, 1)
	if err := b.SignOff(open, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if len(spy.calls) != 1 || spy.calls[0] != 1 {
		t.Fatalf("unfinished binding must trigger cancellation: %v", spy.calls)
	}

	b.Finish(open)
	closed := el(b, syms, b.Root(), "closed")
	b.AddRole(closed, 1, 1)
	b.Finish(closed)
	if err := b.SignOff(closed, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if len(spy.calls) != 1 {
		t.Fatalf("finished binding must not trigger cancellation: %v", spy.calls)
	}
}

func TestCheckBalanceDetectsLeak(t *testing.T) {
	b, syms := build(false)
	n := el(b, syms, b.Root(), "a")
	b.AddRole(n, 1, 1)
	if err := b.CheckBalance(); err == nil {
		t.Fatal("CheckBalance must detect unremoved roles")
	}
}
