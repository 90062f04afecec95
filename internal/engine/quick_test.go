package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/static"
	"gcx/internal/xqast"
)

// --- randomized documents ---

var quickTags = []string{"a", "b", "c", "d", "e"}
var quickTexts = []string{"1", "7", "42", "x", "yy", "person0", "v1", "v2"}

// randDoc draws a document over quickTags. An element repeats its
// parent's tag one time in four, so descendant bindings nest: a //a
// loop binds both of two nested a, and what lies below the inner one is
// reached from each.
func randDoc(r *rand.Rand) string {
	var b strings.Builder
	var gen func(depth int, parent string)
	gen = func(depth int, parent string) {
		tag := quickTags[r.Intn(len(quickTags))]
		if parent != "" && r.Intn(4) == 0 {
			tag = parent
		}
		b.WriteString("<" + tag + ">")
		n := r.Intn(4)
		if depth >= 4 {
			n = 0
		}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				b.WriteString(quickTexts[r.Intn(len(quickTexts))])
			} else {
				gen(depth+1, tag)
			}
		}
		b.WriteString("</" + tag + ">")
	}
	b.WriteString("<root>")
	for i := 0; i < 1+r.Intn(3); i++ {
		gen(0, "")
	}
	b.WriteString("</root>")
	return b.String()
}

// --- randomized queries over the XQ fragment ---

type queryGen struct {
	r       *rand.Rand
	counter int
}

func (g *queryGen) fresh() string {
	g.counter++
	return fmt.Sprintf("v%d", g.counter)
}

func (g *queryGen) step() xqast.Step {
	axis := xqast.Child
	if g.r.Intn(3) == 0 {
		axis = xqast.Descendant
	}
	var test xqast.NodeTest
	switch g.r.Intn(8) {
	case 0:
		test = xqast.StarTest()
	case 1:
		test = xqast.TextTest()
	default:
		test = xqast.NameTest(quickTags[g.r.Intn(len(quickTags))])
	}
	return xqast.Step{Axis: axis, Test: test}
}

// elementStep avoids text() (for loop paths that will be navigated from).
func (g *queryGen) elementStep() xqast.Step {
	s := g.step()
	if s.Test.Kind == xqast.TestText {
		s.Test = xqast.NameTest(quickTags[g.r.Intn(len(quickTags))])
	}
	return s
}

func (g *queryGen) path(env []string, steps int, element bool) xqast.Path {
	p := xqast.Path{Var: env[g.r.Intn(len(env))]}
	for i := 0; i < steps; i++ {
		if element || i < steps-1 {
			p.Steps = append(p.Steps, g.elementStep())
		} else {
			p.Steps = append(p.Steps, g.step())
		}
	}
	return p
}

// deepPath is a multi-step descendant path such as $y//a//b/c: over
// nested a it reaches one c through several derivations of one binding.
func (g *queryGen) deepPath(env []string) xqast.Path {
	tag := func() xqast.NodeTest { return xqast.NameTest(quickTags[g.r.Intn(len(quickTags))]) }
	return xqast.Path{Var: env[g.r.Intn(len(env))], Steps: []xqast.Step{
		{Axis: xqast.Descendant, Test: tag()},
		{Axis: xqast.Descendant, Test: tag()},
		{Axis: xqast.Child, Test: tag()},
	}}
}

func (g *queryGen) cond(env []string, depth int) xqast.Cond {
	switch g.r.Intn(8) {
	case 6:
		return xqast.Exists{Path: g.deepPath(env)}
	case 7:
		// Equality with a literal concludes at the first witness.
		return xqast.Compare{LHS: xqast.Operand{Path: g.deepPath(env)}, Op: xqast.OpEq,
			RHS: xqast.Operand{IsLiteral: true, Lit: quickTexts[g.r.Intn(len(quickTexts))]}}
	case 0:
		return xqast.TrueCond{}
	case 1:
		if depth < 2 {
			return xqast.And{L: g.cond(env, depth+1), R: g.cond(env, depth+1)}
		}
		fallthrough
	case 2:
		if depth < 2 {
			return xqast.Not{C: g.cond(env, depth+1)}
		}
		fallthrough
	case 3:
		lhs := xqast.Operand{Path: g.path(env, 1+g.r.Intn(2), false)}
		var rhs xqast.Operand
		if g.r.Intn(2) == 0 {
			rhs = xqast.Operand{IsLiteral: true, Lit: quickTexts[g.r.Intn(len(quickTexts))]}
		} else {
			rhs = xqast.Operand{Path: g.path(env, 1+g.r.Intn(2), false)}
		}
		ops := []xqast.RelOp{xqast.OpEq, xqast.OpNe, xqast.OpLt, xqast.OpLe, xqast.OpGt, xqast.OpGe}
		return xqast.Compare{LHS: lhs, Op: ops[g.r.Intn(len(ops))], RHS: rhs}
	default:
		return xqast.Exists{Path: g.path(env, 1+g.r.Intn(2), false)}
	}
}

func (g *queryGen) expr(env []string, depth int) xqast.Expr {
	max := 8
	if depth >= 3 {
		max = 3 // only leaves
	}
	switch g.r.Intn(max) {
	case 0:
		return xqast.Text{Data: "t"}
	case 1:
		// Bare variable output.
		return xqast.VarRef{Var: env[g.r.Intn(len(env))]}
	case 2:
		return xqast.PathExpr{Path: g.path(env, 1+g.r.Intn(2), false)}
	case 3:
		return xqast.Element{Name: "x", Child: g.expr(env, depth+1)}
	case 4:
		items := []xqast.Expr{g.expr(env, depth+1), g.expr(env, depth+1)}
		return xqast.Sequence{Items: items}
	case 5:
		return xqast.If{Cond: g.cond(env, 0), Then: g.expr(env, depth+1), Else: g.expr(env, depth+1)}
	case 6:
		v := g.fresh()
		in := g.path(env, 1+g.r.Intn(2), g.r.Intn(4) != 0)
		body := g.expr(append(append([]string(nil), env...), v), depth+1)
		return xqast.For{Var: v, In: in, Return: body}
	default:
		// Nested descendant bindings, for $x in //a return for $y in
		// $x//b: over nested a, one b is bound once per a above it, and a
		// condition on $x that concludes early signs $x off while $y's
		// element is still open.
		x, y := g.fresh(), g.fresh()
		desc := func(v string) xqast.Path {
			return xqast.Path{Var: v, Steps: []xqast.Step{{Axis: xqast.Descendant, Test: xqast.NameTest(quickTags[g.r.Intn(len(quickTags))])}}}
		}
		inner := append(append([]string(nil), env...), x, y)
		body := xqast.If{Cond: g.cond(inner, 0), Then: g.expr(inner, depth+2), Else: g.expr(inner, depth+2)}
		return xqast.For{Var: x, In: desc(env[g.r.Intn(len(env))]), Return: xqast.For{Var: y, In: desc(x), Return: body}}
	}
}

func (g *queryGen) query() string {
	root := xqast.Element{Name: "out", Child: g.expr([]string{xqast.RootVar}, 0)}
	return xqast.Format(&xqast.Query{Root: root})
}

// TestTheorem1Equivalence is the paper's correctness theorem as a property
// test: for random documents and random XQ queries, the GCX evaluation
// (projection + signOffs + active GC, under every optimization mix) equals
// the reference evaluation over the fully buffered document, and the role
// balance invariants hold.
func TestTheorem1Equivalence(t *testing.T) {
	optsets := []static.Options{
		{},
		{AggregateRoles: true},
		{EarlyUpdates: true},
		{EliminateRedundantRoles: true},
		static.AllOptimizations(),
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &queryGen{r: r}
		src := g.query()
		doc := randDoc(r)

		ref, err := Compile(src, Config{Mode: ModeFullBuffer})
		if err != nil {
			t.Logf("seed %d: compile: %v\n%s", seed, err, src)
			return false
		}
		var want strings.Builder
		if _, err := ref.Run(strings.NewReader(doc), &want); err != nil {
			t.Logf("seed %d: reference run: %v\n%s\n%s", seed, err, src, doc)
			return false
		}

		for i := range optsets {
			o := optsets[i]
			c, err := Compile(src, Config{Mode: ModeGCX, Static: &o})
			if err != nil {
				t.Logf("seed %d opts %+v: compile: %v", seed, o, err)
				return false
			}
			var got strings.Builder
			if _, err := c.RunChecked(strings.NewReader(doc), &got); err != nil {
				t.Logf("seed %d opts %+v: gcx run: %v\nquery:\n%s\ndoc: %s", seed, o, err, src, doc)
				return false
			}
			if got.String() != want.String() {
				t.Logf("seed %d opts %+v: output mismatch\nquery:\n%s\ndoc: %s\ngcx:  %s\nref:  %s",
					seed, o, src, doc, got.String(), want.String())
				return false
			}
		}
		// StaticOnly must agree as well (projection alone is lossless).
		so, err := Compile(src, Config{Mode: ModeStaticOnly})
		if err != nil {
			return false
		}
		var got strings.Builder
		if _, err := so.Run(strings.NewReader(doc), &got); err != nil {
			t.Logf("seed %d: static-only run: %v\nquery:\n%s\ndoc: %s", seed, err, src, doc)
			return false
		}
		if got.String() != want.String() {
			t.Logf("seed %d: static-only mismatch\nquery:\n%s\ndoc: %s\nso:  %s\nref: %s",
				seed, src, doc, got.String(), want.String())
			return false
		}
		return true
	}
	n := 150
	if testing.Short() {
		n = 25
	}
	checkProperty(t, prop, n)
}

// fixedSeeds are drawn by every randomized equivalence property on each
// run, beside its quick.Check draw, so that part of what a property
// covers is the same from one run to the next.
var fixedSeeds = []int64{1, 2, 3, 7, 42, 99, 256, 1000, 4096, 31337, 65537, 123456, 999983, 2718281, 31415926, 1 << 40}

// checkProperty holds prop on fixedSeeds, then on n quick.Check draws.
func checkProperty(t *testing.T, prop func(seed int64) bool, n int) {
	t.Helper()
	for _, seed := range fixedSeeds {
		if !prop(seed) {
			t.Fatalf("fixed seed %d fails", seed)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}
