package proj_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/ifpush"
	"gcx/internal/normalize"
	"gcx/internal/proj"
	"gcx/internal/projtree"
	"gcx/internal/queries"
	"gcx/internal/static"
	"gcx/internal/xmark"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
	"gcx/internal/xqparser"
)

// project runs the full projection of doc under the analysis of src,
// without evaluating the query (so no signOffs run): the buffer ends up
// holding the complete projected document with roles, as in the paper's
// Figures 3 and 4.
func project(t *testing.T, src, doc string, opts static.Options) (*buffer.Buffer, *static.Analysis) {
	t.Helper()
	q, err := xqparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := normalize.Normalize(q)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	a, err := static.Analyze(ifpush.Push(n), opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}

	syms := xmlstream.NewSymTab()
	agg := make([]bool, len(a.Tree.Roles))
	for i, r := range a.Tree.Roles {
		if i > 0 && r.Aggregate {
			agg[i] = true
		}
	}
	buf := buffer.New(syms, len(a.Tree.Roles)-1, agg)
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(doc), xmlstream.DefaultOptions())
	p := proj.New(tok, buf, a.Tree, proj.Options{AggregateRoles: opts.AggregateRoles})
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
		if !more {
			break
		}
	}
	return buf, a
}

func dumpOf(t *testing.T, src, doc string, opts static.Options) string {
	t.Helper()
	buf, _ := project(t, src, doc, opts)
	return buf.Dump()
}

// TestFigure4RoleAssignment reproduces Figure 4(c): with projection paths
// //a and .//b below it, the b node at depth 3 of <a><a><b/></a><b/></a>
// receives the b role twice (two derivations through the nested a's).
func TestFigure4RoleAssignment(t *testing.T) {
	src := `<q>{ for $a in //a return for $b in $a//b return <hit/> }</q>`
	doc := `<a><a><b/></a><b/></a>`
	dump := dumpOf(t, src, doc, static.Options{})
	// Deep b: two derivations -> {r2,r2}; shallow b: one derivation.
	if !strings.Contains(dump, "b{r2,r2}") {
		t.Fatalf("deep b must carry the role twice (Figure 4(c)):\n%s", dump)
	}
	if !strings.Contains(dump, "b{r2}\n") {
		t.Fatalf("shallow b must carry the role once:\n%s", dump)
	}
	// The nested a matches //a twice? No: //a from the root yields one
	// derivation per node; the outer a carries r1 once, the inner a once.
	if strings.Contains(dump, "a{r1,r1}") {
		t.Fatalf("a nodes must carry the binding role once each:\n%s", dump)
	}
}

// TestExample2StructuralGuard reproduces Example 2: with both /a/b and
// /a//b in the projection tree, an unmatched intermediate node must be
// preserved to avoid promoting a deep b into a false child match.
func TestExample2StructuralGuard(t *testing.T) {
	src := `<q>{ (for $x in /a return for $y in $x/b return <c1/>,
	               for $u in /a return for $v in $u//b return <c2/>) }</q>`
	doc := `<a><x><b/></x></a>`
	dump := dumpOf(t, src, doc, static.Options{})
	// The x element matches nothing but must be kept (skeleton), with b
	// below it — not promoted to a child of a.
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 buffered nodes (a, x, b), got:\n%s", dump)
	}
	if !strings.HasPrefix(lines[1], "  x") {
		t.Fatalf("x must be preserved as a skeleton below a:\n%s", dump)
	}
	if !strings.HasPrefix(lines[2], "    b") {
		t.Fatalf("b must stay below x (no promotion):\n%s", dump)
	}
}

// TestPromotionWithoutGuard: with only a descendant path, intermediate
// nodes are discarded and matches are promoted — the paper's more
// aggressive projection ("we only preserve node n4" for //b, Figure 3).
func TestPromotionWithoutGuard(t *testing.T) {
	src := `<q>{ for $v in //b return <hit/> }</q>`
	doc := `<a><x><b/></x><b/></a>`
	dump := dumpOf(t, src, doc, static.Options{})
	if strings.Contains(dump, "x") {
		t.Fatalf("unmatched intermediate must be discarded:\n%s", dump)
	}
	if strings.Contains(dump, "a") && !strings.Contains(dump, "b") {
		t.Fatalf("bs must be kept:\n%s", dump)
	}
	// Both b's end up as children of the root (a itself is unmatched too).
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want exactly the two b nodes:\n%s", dump)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "b{r1}") {
			t.Fatalf("want promoted b{r1} at top level, got %q:\n%s", l, dump)
		}
	}
}

// TestFirstWitnessSuppression: an exists() dependency buffers only the
// first witness per context instance (the [1] predicate of Section 2).
func TestFirstWitnessSuppression(t *testing.T) {
	src := `<q>{ for $x in /bib/book return if (exists($x/price)) then <y/> else () }</q>`
	doc := `<bib><book><price>1</price><price>2</price></book><book><price>3</price></book></bib>`
	dump := dumpOf(t, src, doc, static.Options{})
	if got := strings.Count(dump, "price"); got != 2 {
		t.Fatalf("want one witness per book (2 total), got %d:\n%s", got, dump)
	}
	// Witness subtrees are not needed: the text content below price is
	// irrelevant for exists and must not be buffered.
	if strings.Contains(dump, `"1"`) {
		t.Fatalf("witness subtree must not be buffered:\n%s", dump)
	}
}

// TestCaptureAggregateVsPerNode compares the two role assignment schemes of
// Section 6 ("Aggregate Roles").
func TestCaptureAggregateVsPerNode(t *testing.T) {
	src := `<q>{ for $x in /bib/book return $x }</q>`
	doc := `<bib><book><title>t</title></book></bib>`

	// Role numbering: r1 = binding of the fresh bib loop (normalization
	// splits /bib/book), r2 = binding of $x, r3 = the dos output role.
	// Base technique: every node of the subtree carries the dos role.
	plain := dumpOf(t, src, doc, static.Options{})
	if !strings.Contains(plain, "book{r2,r3}") {
		t.Fatalf("book must carry binding+dos roles:\n%s", plain)
	}
	if !strings.Contains(plain, "title{r3}") || !strings.Contains(plain, `"t"{r3}`) {
		t.Fatalf("per-node mode must tag every subtree node with r3:\n%s", plain)
	}

	// Aggregate: only the subtree root carries the role; descendants are
	// covered implicitly.
	agg := dumpOf(t, src, doc, static.Options{AggregateRoles: true})
	if !strings.Contains(agg, "book{r2,r3}") {
		t.Fatalf("aggregate mode keeps both roles on the root:\n%s", agg)
	}
	if !strings.Contains(agg, "title{") {
		// title must be buffered but role-free.
		if !strings.Contains(agg, "title") {
			t.Fatalf("title must be buffered:\n%s", agg)
		}
	} else {
		t.Fatalf("aggregate mode must not tag descendants:\n%s", agg)
	}
}

// TestIrrelevantRegionsSkipped: tokens outside all projection paths are
// never buffered.
func TestIrrelevantRegionsSkipped(t *testing.T) {
	src := `<q>{ for $p in /site/people return $p/name }</q>`
	doc := `<site><junk><deep><stuff>xxx</stuff></deep></junk><people><name>Ann</name></people></site>`
	buf, _ := project(t, src, doc, static.Options{AggregateRoles: true})
	dump := buf.Dump()
	if strings.Contains(dump, "junk") || strings.Contains(dump, "stuff") {
		t.Fatalf("irrelevant region buffered:\n%s", dump)
	}
	// site, people, name, text = 4 nodes + root.
	if buf.Stats().LiveNodes != 5 {
		t.Fatalf("LiveNodes = %d, want 5:\n%s", buf.Stats().LiveNodes, dump)
	}
}

// TestEliminatedRolesNotAssigned: redundant-role elimination must suppress
// assignment, not just signoffs (Figure 12).
func TestEliminatedRolesNotAssigned(t *testing.T) {
	src := `<q>{ for $x in /bib/book return $x }</q>`
	doc := `<bib><book><title>t</title></book></bib>`
	dump := dumpOf(t, src, doc, static.Options{AggregateRoles: true, EliminateRedundantRoles: true})
	// The binding role of $x (r2) is eliminated (bare dos dependency), and
	// the fresh bib loop's binding role (r1) by navigation transparency, so
	// book carries only the aggregate output role r3 and bib is a skeleton.
	if !strings.Contains(dump, "book{r3}") {
		t.Fatalf("book must carry only the dos role after elimination:\n%s", dump)
	}
	if !strings.Contains(dump, "bib\n") {
		t.Fatalf("bib must be buffered role-free:\n%s", dump)
	}
}

// TestTextRoles: text() dependencies tag text nodes directly.
func TestTextRoles(t *testing.T) {
	src := `<q>{ for $n in /a/name return $n/text() }</q>`
	doc := `<a><name>Bob<sub>x</sub>more</name></a>`
	dump := dumpOf(t, src, doc, static.Options{})
	// r1/r2 are the binding roles of the (split) a and name loops; r3 is
	// the text() output role.
	if !strings.Contains(dump, `"Bob"{r3}`) || !strings.Contains(dump, `"more"{r3}`) {
		t.Fatalf("text nodes must carry the output role:\n%s", dump)
	}
	// The sub element matches nothing (text() test) and is dropped.
	if strings.Contains(dump, "sub") {
		t.Fatalf("elements must not match text():\n%s", dump)
	}
}

// --- Figure 5 and Example 1, on the projector that runs ---

// fig5Tree builds the projection tree of Figure 5(a): /a/b/dos::node() and
// /a//b/dos::node().
func fig5Tree() *projtree.Tree {
	t := projtree.New()
	v2 := t.AddNode(t.Root, xqast.Step{Axis: xqast.Child, Test: xqast.NameTest("a")})
	v3 := t.AddNode(v2, xqast.Step{Axis: xqast.Child, Test: xqast.NameTest("b")})
	t.AddNode(v3, xqast.Step{Axis: xqast.DescendantOrSelf, Test: xqast.NodeKindTest()})
	v5 := t.AddNode(t.Root, xqast.Step{Axis: xqast.Child, Test: xqast.NameTest("a")})
	v6 := t.AddNode(v5, xqast.Step{Axis: xqast.Descendant, Test: xqast.NameTest("b")})
	t.AddNode(v6, xqast.Step{Axis: xqast.DescendantOrSelf, Test: xqast.NodeKindTest()})
	return t
}

// observeMatches runs a projector for tree over doc and calls at with the
// open-element path and the projector after every start tag (and once for
// the document node, path nil, before the first token).
func observeMatches(t *testing.T, tree *projtree.Tree, doc string, at func(path []string, p *proj.Projector)) {
	t.Helper()
	buf := buffer.New(xmlstream.NewSymTab(), len(tree.Roles)-1, nil)
	p := proj.New(xmlstream.NewTokenizerOptions(strings.NewReader(doc), xmlstream.DefaultOptions()), buf, tree, proj.Options{})
	at(nil, p)
	var path []string
	p.Observe(func(tk xmlstream.Token) {
		switch tk.Kind {
		case xmlstream.StartElement:
			path = append(path, buf.Syms().Name(tk.Sym))
			at(path, p)
		case xmlstream.EndElement:
			path = path[:len(path)-1]
		}
	})
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
		if !more {
			return
		}
	}
}

// pathMultisets renders the projector's matched multiset at every
// open-element path of doc ("/" for the document node), like "{n1, n4}".
func pathMultisets(t *testing.T, tree *projtree.Tree, doc string) map[string]string {
	t.Helper()
	got := map[string]string{}
	observeMatches(t, tree, doc, func(path []string, p *proj.Projector) {
		var ids []string
		for id, mult := range p.Matched() {
			for range mult {
				ids = append(ids, fmt.Sprintf("n%d", id))
			}
		}
		slices.Sort(ids)
		got["/"+strings.Join(path, "/")] = "{" + strings.Join(ids, ", ") + "}"
	})
	return got
}

// TestFigure5LazyDFA checks the state-to-multiset mapping of Example 1 for
// the projection tree of Figure 5(a): each DFA state of Figure 5(b) is a tag
// path, and the multiset is read off the projector's open frame at that
// path. Node numbering: n0=root(v1), n1=v2(/a), n2=v3(/a/b), n4=v5(/a),
// n5=v6(/a//b).
func TestFigure5LazyDFA(t *testing.T) {
	got := pathMultisets(t, fig5Tree(), `<a><a><b/></a><b/></a>`)
	for _, c := range []struct{ state, path, want string }{
		{"q0", "/", "{n0}"},
		{"q1", "/a", "{n1, n4}"},
		{"q2", "/a/a", "{}"},
		{"q3", "/a/a/b", "{n5}"},
		{"q4", "/a/b", "{n2, n5}"},
	} {
		if got[c.path] != c.want {
			t.Errorf("%s (path %s) maps to %s, want %s", c.state, c.path, got[c.path], c.want)
		}
	}
}

// TestExample1Multiplicity: for the projection tree of Figure 4(b)
// (//a with .//b below), the path /a/a/b maps to the multiset {v3, v3}.
func TestExample1Multiplicity(t *testing.T) {
	tr := projtree.New()
	v2 := tr.AddNode(tr.Root, xqast.Step{Axis: xqast.Descendant, Test: xqast.NameTest("a")})
	tr.AddNode(v2, xqast.Step{Axis: xqast.Descendant, Test: xqast.NameTest("b")})

	if got := pathMultisets(t, tr, `<a><a><b/></a></a>`)["/a/a/b"]; got != "{n2, n2}" {
		t.Fatalf("path /a/a/b maps to %s, want {n2, n2} (multiplicity 2)", got)
	}
}

// example1 is Example 1's definition of the multiset a tag path maps to,
// written without the projector: a child step extends the matches of the
// parent, a descendant step the matches of every ancestor, and the
// multiplicities of all derivations add up.
func example1(tree *projtree.Tree, path []string) map[int]int {
	levels := []map[int]int{{tree.Root.ID: 1}}
	for k, name := range path {
		next := map[int]int{}
		for j, level := range levels {
			for id, mult := range level {
				for _, c := range tree.Nodes[id].Children {
					test := c.Step.Test
					named := test.Kind == xqast.TestStar || test.Kind == xqast.TestName && test.Name == name
					if named && (c.Step.Axis == xqast.Descendant || c.Step.Axis == xqast.Child && j == k) {
						next[c.ID] += mult
					}
				}
			}
		}
		levels = append(levels, next)
	}
	return levels[len(path)]
}

// randProjTree draws a projection tree over a, b and * with child and
// descendant steps (no [1], no roles, so nothing is ever signed off).
func randProjTree(r *rand.Rand) *projtree.Tree {
	tests := []xqast.NodeTest{xqast.NameTest("a"), xqast.NameTest("b"), xqast.StarTest()}
	tr := projtree.New()
	var grow func(n *projtree.Node, depth int)
	grow = func(n *projtree.Node, depth int) {
		for k := r.Intn(3); k > 0 && depth < 4; k-- {
			axis := xqast.Child
			if r.Intn(2) == 0 {
				axis = xqast.Descendant
			}
			grow(tr.AddNode(n, xqast.Step{Axis: axis, Test: tests[r.Intn(len(tests))]}), depth+1)
		}
	}
	grow(tr.Root, 0)
	return tr
}

// randTagDoc draws a document over a, b and c, at most 6 elements deep.
func randTagDoc(r *rand.Rand) string {
	var b strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		name := string(rune('a' + r.Intn(3)))
		b.WriteString("<" + name + ">")
		for k := r.Intn(4); k > 0 && depth < 6; k-- {
			if r.Intn(4) == 0 {
				b.WriteString("t")
			} else {
				elem(depth + 1)
			}
		}
		b.WriteString("</" + name + ">")
	}
	elem(1)
	return b.String()
}

// TestMatcherMatchesExample1 checks the production matcher against Example 1's
// definition: at every start tag of random documents, the multiset matched
// on the open frame equals example1 of the open-element path.
func TestMatcherMatchesExample1(t *testing.T) {
	tags := 0
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := randProjTree(r)
		for range 3 {
			doc := randTagDoc(r)
			observeMatches(t, tree, doc, func(path []string, p *proj.Projector) {
				tags++
				if got, want := p.Matched(), example1(tree, path); !maps.Equal(got, want) {
					t.Fatalf("seed %d, tree\n%s\ndoc %s\npath /%s: projector matched %v, Example 1 gives %v",
						seed, tree.Format(), doc, strings.Join(path, "/"), got, want)
				}
			})
		}
	}
	if tags < 5000 {
		t.Fatalf("only %d start tags checked", tags)
	}
}

// The observer is per run: a fresh projector has none, and Reset drops the
// one a traced run installed, so the next run pays nothing for it.
func TestObserverOffByDefault(t *testing.T) {
	const doc = `<r>a&amp;b<x>C&amp;D</x></r>`
	buf := buffer.New(xmlstream.NewSymTab(), 0, nil)
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(doc), xmlstream.DefaultOptions())
	p := proj.New(tok, buf, projtree.New(), proj.Options{})
	if p.Observer() != nil {
		t.Fatal("fresh projector has an observer")
	}
	seen := 0
	p.Observe(func(xmlstream.Token) { seen++ })
	drain := func() {
		for {
			more, err := p.Step()
			if err != nil {
				t.Fatalf("step: %v", err)
			}
			if !more {
				return
			}
		}
	}
	drain()
	if seen != 7 {
		t.Fatalf("observer saw %d tokens, want 7", seen)
	}
	tok.Reset(strings.NewReader(doc))
	buf.Reset()
	p.Reset()
	if p.Observer() != nil {
		t.Fatal("Reset kept the observer")
	}
	drain()
	if seen != 7 {
		t.Fatalf("observer of the previous run saw %d more tokens", seen-7)
	}
}

// TestProjectionStatsTokens: the projector counts every token it consumes.
func TestProjectionStatsTokens(t *testing.T) {
	src := `<q>{ for $b in /a/b return <x/> }</q>`
	doc := `<a><b/><c/>text</a>`
	q, _ := xqparser.Parse(src)
	n, _ := normalize.Normalize(q)
	a, err := static.Analyze(ifpush.Push(n), static.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := buffer.New(xmlstream.NewSymTab(), len(a.Tree.Roles)-1, nil)
	p := proj.New(xmlstream.NewTokenizerOptions(strings.NewReader(doc), xmlstream.DefaultOptions()), buf, a.Tree, proj.Options{})
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	// <a> <b> </b> <c> </c> text </a> EOF = 8 token events.
	if p.TokensRead() != 8 {
		t.Fatalf("TokensRead = %d, want 8", p.TokensRead())
	}
	// Past the end, Step keeps reporting false and reads nothing more.
	if more, err := p.Step(); more || err != nil || p.TokensRead() != 8 {
		t.Fatalf("Step after EOF = %v, %v (%d tokens), want false, nil (8)", more, err, p.TokensRead())
	}
	if !buf.Root().Finished() {
		t.Fatal("root must be finished at EOF")
	}
}

// TestDeadSubtreeIsOneStep: an element below which no projection path
// can match gets no frame at its start tag, and the next Step reads its
// subtree through its end tag; StepN still counts tokens, inside a dead
// subtree too.
func TestDeadSubtreeIsOneStep(t *testing.T) {
	const doc = `<a><c><d>x</d><e k="v"/></c><b>1</b></a>`
	p, buf, tok := newProjector(t, `<q>{ for $b in /a/b return $b }</q>`)
	buf.Reset()
	tok.Reset(strings.NewReader(doc))
	p.Reset()
	// After each Step: tokens read so far, open frames, pooled frames.
	for i, want := range [][3]int{
		{1, 2, 0},  // <a>
		{2, 2, 0},  // <c>: dead, no frame
		{11, 2, 0}, // <d> x </d> <e> <k> v </k> </e> </c> in one Step
		{12, 3, 0}, // <b>
	} {
		if more, err := p.Step(); !more || err != nil {
			t.Fatalf("step %d: %v, %v", i+1, more, err)
		}
		pooled, _ := p.Pooled()
		if got := [3]int{int(p.TokensRead()), p.OpenFrames(), pooled}; got != want {
			t.Fatalf("after step %d: tokens, open and pooled frames %v, want %v", i+1, got, want)
		}
	}

	buf.Reset()
	tok.Reset(strings.NewReader(doc))
	p.Reset()
	for i, c := range []struct {
		budget, n int64
		more      bool
	}{{3, 3, true}, {4, 4, true}, {2, 2, true}, {100, 7, false}, {5, 0, false}} {
		n, more, err := p.StepN(c.budget)
		if err != nil || n != c.n || more != c.more {
			t.Fatalf("StepN %d (call %d) = %d, %v, %v; want %d, %v", c.budget, i+1, n, more, err, c.n, c.more)
		}
	}
	if p.TokensRead() != 16 {
		t.Fatalf("TokensRead = %d, want 16", p.TokensRead())
	}
}

// chainDoc is BenchmarkDeepNesting's document: a chain of depth <a>
// elements under <site>.
func chainDoc(depth int) string {
	return "<site>" + strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth) + "</site>"
}

// newProjector builds a projector for src, with its buffer and tokenizer,
// over an empty input.
func newProjector(t *testing.T, src string) (*proj.Projector, *buffer.Buffer, *xmlstream.Tokenizer) {
	t.Helper()
	_, a := project(t, src, "", static.Options{})
	buf := buffer.New(xmlstream.NewSymTab(), len(a.Tree.Roles)-1, make([]bool, len(a.Tree.Roles)))
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(""), xmlstream.DefaultOptions())
	return proj.New(tok, buf, a.Tree, proj.Options{}), buf, tok
}

// projectAll resets the projector, its buffer and its tokenizer onto doc
// and projects doc to its end.
func projectAll(t *testing.T, p *proj.Projector, buf *buffer.Buffer, tok *xmlstream.Tokenizer, doc string) {
	t.Helper()
	buf.Reset()
	tok.Reset(strings.NewReader(doc))
	p.Reset()
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatalf("projection: %v", err)
		}
		if !more {
			return
		}
	}
}

// TestIdleProjectorRetentionIsBounded: whatever depth the last document
// reached, a reset projector keeps a frame for each level, Retained
// counts them — what the pass bounds an idle run state by — and no
// pooled frame links into the last run; the next run is the run a fresh
// projector makes.
// The document is BenchmarkDeepNesting's chain of <a> elements; the
// queries match every level, the second with a descendant step below it,
// which makes every level a scope frame. (The benchmark's own queries
// copy the chain, and without an evaluator's signOffs every level then
// carries a role of every level above: cubic work.)
func TestIdleProjectorRetentionIsBounded(t *testing.T) {
	const small = "<site><a><a>x</a></a><b/></site>"
	for _, c := range []struct {
		src   string
		depth int
	}{
		{`<r>{ for $a in //a return <hit/> }</r>`, 10000},
		{`<r>{ for $a in //a return if (exists($a//b)) then <hit/> else () }</r>`, 1500},
	} {
		p, buf, tok := newProjector(t, c.src)
		projectAll(t, p, buf, tok, chainDoc(c.depth))
		buf.Reset()
		p.Reset()
		frames, linked := p.Pooled()
		if frames < c.depth {
			t.Errorf("%s: sanity: a %d-deep document left only %d pooled frames", c.src, c.depth, frames)
		}
		if got, want := p.Retained(), int64(frames)*proj.FrameBytes; got < want {
			t.Errorf("%s: Retained reports %d for %d pooled frames of %d bytes", c.src, got, frames, proj.FrameBytes)
		}
		if linked {
			t.Errorf("%s: a pooled frame still links into the last run", c.src)
		}
		fresh, fbuf, ftok := newProjector(t, c.src)
		projectAll(t, p, buf, tok, small)
		projectAll(t, fresh, fbuf, ftok, small)
		if p.TokensRead() != fresh.TokensRead() || buf.Stats() != fbuf.Stats() || buf.Dump() != fbuf.Dump() {
			t.Errorf("%s: run after a deep one:\n%s%+v\nfresh projector:\n%s%+v", c.src, buf.Dump(), buf.Stats(), fbuf.Dump(), fbuf.Stats())
		}
	}
}

// TestScopeRetentionIsLinearInDepth: a descendant step below every level
// of a chain makes every frame a scope frame, and each links the next
// scope frame up instead of holding the chain above it, so what the
// projector keeps doubles with the depth (a copy per level quadruples
// it). Retained counts capacity, not time: the gate is deterministic.
func TestScopeRetentionIsLinearInDepth(t *testing.T) {
	const src = `<r>{ for $a in //a return if (exists($a//b)) then <hit/> else () }</r>`
	retained := func(depth int) int64 {
		p, buf, tok := newProjector(t, src)
		projectAll(t, p, buf, tok, chainDoc(depth))
		return p.Retained()
	}
	shallow, deep := retained(1000), retained(2000)
	t.Logf("Retained: %d bytes at 1,000 deep, %d at 2,000 (%.2fx)", shallow, deep, float64(deep)/float64(shallow))
	if float64(deep) > 2.2*float64(shallow) {
		t.Errorf("Retained grows %.2fx from 1,000 to 2,000 levels (%d to %d bytes), want at most 2.2x",
			float64(deep)/float64(shallow), shallow, deep)
	}
}

// TestMatchingIgnoresSymbolNumbering: the projector matches a tag by its
// Sym alone, so which numbers its table hands out must not matter. Each
// tree runs through two projectors: one over a fresh table, one over a
// table that first interned 1,000 unrelated names, so no name of the tree
// has the same Sym in both. After every token the two buffers dump alike,
// and both projectors read the same number of tokens. The inputs are the
// Figure 2 document under the introduction's query (a * step), and 64 KB
// of XMark under the five Table 1 queries (descendant steps, a join's
// kept region) and Example 2's guard.
func TestMatchingIgnoresSymbolNumbering(t *testing.T) {
	var xm strings.Builder
	if _, err := xmark.Generate(&xm, xmark.Config{Factor: xmark.FactorForSize(64 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	type run struct{ src, doc string }
	runs := []run{{`<r>{ for $bib in /bib return
	  ((for $x in $bib/* return if (not(exists($x/price))) then $x else ()),
	   for $b in $bib/book return $b/title) }</r>`,
		`<bib><book><title>T1</title><author>A1</author></book></bib>`}}
	for _, q := range queries.All() {
		runs = append(runs, run{q.Text, xm.String()})
	}
	runs = append(runs, run{`<q>{ (for $x in /site return for $y in $x/people return <c1/>,
	  for $u in /site return for $v in $u//person return <c2/>) }</q>`, xm.String()})
	for _, r := range runs {
		_, a := project(t, r.src, "", static.Options{})
		side := func(unrelated int) (*proj.Projector, *buffer.Buffer) {
			syms := xmlstream.NewSymTab()
			for i := range unrelated {
				syms.Intern(fmt.Sprintf("unrelated-%d", i))
			}
			buf := buffer.New(syms, len(a.Tree.Roles)-1, make([]bool, len(a.Tree.Roles)))
			tok := xmlstream.NewTokenizerOptions(strings.NewReader(r.doc), xmlstream.DefaultOptions())
			return proj.New(tok, buf, a.Tree, proj.Options{}), buf
		}
		p1, b1 := side(0)
		p2, b2 := side(1000)
		for _, n := range a.Tree.Nodes {
			if test := n.Step.Test; test.Kind == xqast.TestName && b1.Syms().Intern(test.Name) == b2.Syms().Intern(test.Name) {
				t.Fatalf("%s: %s has Sym %d in both tables", r.src, test.Name, b1.Syms().Intern(test.Name))
			}
		}
		for more := true; more; {
			_, more1, err1 := p1.StepN(1)
			_, more2, err2 := p2.StepN(1)
			if err1 != nil || err2 != nil || more1 != more2 {
				t.Fatalf("%s: steps end apart: %v, %v / %v, %v", r.src, more1, err1, more2, err2)
			}
			if d1, d2 := b1.Dump(), b2.Dump(); d1 != d2 {
				t.Fatalf("%s: after token %d the buffers differ:\n%s\nvs\n%s", r.src, p1.TokensRead(), d1, d2)
			}
			more = more1
		}
		if p1.TokensRead() != p2.TokensRead() {
			t.Fatalf("%s: TokensRead %d vs %d", r.src, p1.TokensRead(), p2.TokensRead())
		}
	}
}
