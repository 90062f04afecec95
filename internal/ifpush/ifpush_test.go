package ifpush

import (
	"strings"
	"testing"

	"gcx/internal/normalize"
	"gcx/internal/xqast"
	"gcx/internal/xqparser"
)

func prep(t *testing.T, src string) *xqast.Query {
	t.Helper()
	q, err := xqparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := normalize.Normalize(q)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return n
}

// assertNoForInsideIf checks the postcondition the rewriting exists for.
func assertNoForInsideIf(t *testing.T, q *xqast.Query) {
	t.Helper()
	var check func(e xqast.Expr, insideIf bool)
	check = func(e xqast.Expr, insideIf bool) {
		switch e := e.(type) {
		case xqast.If:
			check(e.Then, true)
			check(e.Else, true)
		case xqast.For:
			if insideIf {
				t.Fatalf("for-loop remains inside an if-expression:\n%s", xqast.Format(q))
			}
			check(e.Return, insideIf)
		case xqast.Sequence:
			for _, item := range e.Items {
				check(item, insideIf)
			}
		case xqast.Element:
			check(e.Child, insideIf)
		}
	}
	check(q.Root, false)
}

func TestRuleFOR(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then for $y in $x/b return $y else () }</q>`)
	out := Push(q)
	assertNoForInsideIf(t, out)
	// The loop over b must now contain the if.
	outer := out.Root.Child.(xqast.For)
	inner, ok := outer.Return.(xqast.For)
	if !ok {
		t.Fatalf("FOR rule did not hoist the loop: %T\n%s", outer.Return, xqast.Format(out))
	}
	if _, ok := inner.Return.(xqast.If); !ok {
		t.Fatalf("if not pushed into loop body: %T", inner.Return)
	}
}

func TestRuleSEQ(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then ($x, for $y in $x/b return $y, $x) else () }</q>`)
	out := PushAll(q)
	assertNoForInsideIf(t, out)
	body := out.Root.Child.(xqast.For).Return
	seq, ok := body.(xqast.Sequence)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("SEQ rule result: %#v", body)
	}
	if _, ok := seq.Items[0].(xqast.If); !ok {
		t.Fatalf("first item: %T", seq.Items[0])
	}
	if _, ok := seq.Items[1].(xqast.For); !ok {
		t.Fatalf("second item: %T", seq.Items[1])
	}
}

func TestRuleNC(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then <hit>{ for $y in $x/b return $y }</hit> else () }</q>`)
	out := Push(q)
	assertNoForInsideIf(t, out)
	body := out.Root.Child.(xqast.For).Return
	seq, ok := body.(xqast.Sequence)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("NC rule result: %#v", body)
	}
	openTag, ok := seq.Items[0].(xqast.CondTag)
	if !ok || !openTag.Open || openTag.Name != "hit" {
		t.Fatalf("open tag: %#v", seq.Items[0])
	}
	closeTag, ok := seq.Items[2].(xqast.CondTag)
	if !ok || closeTag.Open || closeTag.Name != "hit" {
		t.Fatalf("close tag: %#v", seq.Items[2])
	}
	if xqast.FormatCond(openTag.Cond) != xqast.FormatCond(closeTag.Cond) {
		t.Fatal("NC must emit syntactically equal conditions (well-formedness requirement of Figure 6)")
	}
	if _, ok := seq.Items[1].(xqast.For); !ok {
		t.Fatalf("middle: %T", seq.Items[1])
	}
}

func TestRuleDECOMP(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then for $y in $x/b return $y else for $z in $x/c return $z }</q>`)
	out := Push(q)
	assertNoForInsideIf(t, out)
	body := out.Root.Child.(xqast.For).Return
	seq, ok := body.(xqast.Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("DECOMP result: %#v", body)
	}
	// Second branch must be guarded by the negated condition.
	f2 := seq.Items[1].(xqast.For)
	iff := f2.Return.(xqast.If)
	if _, ok := iff.Cond.(xqast.Not); !ok {
		t.Fatalf("else branch must get not(...) condition, got %s", xqast.FormatCond(iff.Cond))
	}
}

func TestSelectiveLeavesSimpleIfs(t *testing.T) {
	// The introduction's query: its if contains no for-loop, so selective
	// pushing must leave it untouched.
	q := prep(t, `
<r> {
  for $bib in /bib return
  ((for $x in $bib/* return
      if (not(exists($x/price))) then $x else ()),
   for $b in $bib/book return $b/title)
} </r>`)
	before := xqast.Format(q)
	out := Push(q)
	after := xqast.Format(out)
	if before != after {
		t.Fatalf("selective push must be identity here:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestNestedIfsMerge(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then if (exists($x/q)) then for $y in $x/b return $y else () else () }</q>`)
	out := PushAll(q)
	assertNoForInsideIf(t, out)
	// The two conditions must combine conjunctively inside the loop.
	inner := out.Root.Child.(xqast.For).Return.(xqast.For).Return.(xqast.If)
	if !strings.Contains(xqast.FormatCond(inner.Cond), "and") {
		t.Fatalf("merged condition: %s", xqast.FormatCond(inner.Cond))
	}
}

func TestFixpointIdempotent(t *testing.T) {
	srcs := []string{
		`<q>{ for $x in /a return if (exists($x/p)) then <h>{ ($x, for $y in $x/b return <i>{ $y }</i>) }</h> else ($x, for $z in $x/c return $z) }</q>`,
		`<q>{ for $x in /a return if (true()) then for $y in $x/b return if (exists($y/k)) then $y else () else () }</q>`,
	}
	for _, src := range srcs {
		q := prep(t, src)
		once := Push(q)
		twice := Push(once)
		if xqast.Format(once) != xqast.Format(twice) {
			t.Fatalf("Push not idempotent for %s:\nonce:\n%s\ntwice:\n%s", src, xqast.Format(once), xqast.Format(twice))
		}
		assertNoForInsideIf(t, once)
	}
}

func TestPushAllFullDecomposition(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return if (exists($x/p)) then <h>{ $x }</h> else () }</q>`)
	out := PushAll(q)
	body := out.Root.Child.(xqast.For).Return
	seq, ok := body.(xqast.Sequence)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("PushAll NC result: %#v", body)
	}
	mid, ok := seq.Items[1].(xqast.If)
	if !ok {
		t.Fatalf("middle: %T", seq.Items[1])
	}
	if _, ok := mid.Then.(xqast.VarRef); !ok {
		t.Fatalf("innermost then: %T", mid.Then)
	}
}

func TestContainsFor(t *testing.T) {
	q := prep(t, `<q>{ for $x in /a return $x }</q>`)
	if !ContainsFor(q.Root) {
		t.Fatal("ContainsFor false negative")
	}
	if ContainsFor(xqast.VarRef{Var: "x"}) {
		t.Fatal("ContainsFor false positive")
	}
}
