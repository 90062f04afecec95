package xqparser

import (
	"strings"
	"testing"

	"gcx/internal/xqast"
)

// introQuery is the example from the paper's introduction.
const introQuery = `
<r> {
  for $bib in /bib return
  ((for $x in $bib/* return
      if (not(exists($x/price))) then $x else ()),
   for $b in $bib/book return $b/title)
} </r>`

func mustParse(t *testing.T, src string) *xqast.Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseIntroQuery(t *testing.T) {
	q := mustParse(t, introQuery)
	if q.Root.Name != "r" {
		t.Fatalf("root element %q, want r", q.Root.Name)
	}
	vars := xqast.Vars(q)
	want := []string{"root", "bib", "x", "b"}
	if len(vars) != len(want) {
		t.Fatalf("vars %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("vars %v, want %v", vars, want)
		}
	}
}

func TestParseAbsolutePaths(t *testing.T) {
	q := mustParse(t, `<q>{ for $a in /site/people return $a }</q>`)
	f := q.Root.Child.(xqast.For)
	if f.In.Var != xqast.RootVar {
		t.Fatalf("absolute path rooted at %q, want root", f.In.Var)
	}
	if len(f.In.Steps) != 2 || f.In.Steps[0].Test.Name != "site" || f.In.Steps[1].Test.Name != "people" {
		t.Fatalf("steps: %v", f.In.Steps)
	}
	if f.In.Steps[0].Axis != xqast.Child {
		t.Fatal("leading / must be child axis")
	}
}

func TestParseDescendantAxis(t *testing.T) {
	q := mustParse(t, `<q>{ for $a in //a return for $b in $a//b return $b }</q>`)
	outer := q.Root.Child.(xqast.For)
	if outer.In.Steps[0].Axis != xqast.Descendant {
		t.Fatal("// must be descendant axis")
	}
	inner := outer.Return.(xqast.For)
	if inner.In.Var != "a" || inner.In.Steps[0].Axis != xqast.Descendant {
		t.Fatalf("inner loop path: %v", inner.In)
	}
}

func TestParseExplicitAxes(t *testing.T) {
	q := mustParse(t, `<q>{ for $a in $root/child::site return $a/descendant::item }</q>`)
	f := q.Root.Child.(xqast.For)
	if f.In.Steps[0].Axis != xqast.Child || f.In.Steps[0].Test.Name != "site" {
		t.Fatalf("explicit child:: parse: %v", f.In.Steps)
	}
	pe := f.Return.(xqast.PathExpr)
	if pe.Path.Steps[0].Axis != xqast.Descendant {
		t.Fatalf("explicit descendant:: parse: %v", pe.Path.Steps)
	}
}

func TestParseDosAxisAndPredicate(t *testing.T) {
	e, err := ParseExpr(`$x/dos::node()`)
	if err != nil {
		t.Fatal(err)
	}
	pe := e.(xqast.PathExpr)
	s := pe.Path.Steps[0]
	if s.Axis != xqast.DescendantOrSelf || s.Test.Kind != xqast.TestNode {
		t.Fatalf("dos::node() parse: %v", s)
	}

	e2, err := ParseExpr(`$x/price[1]`)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.(xqast.PathExpr).Path.Steps[0].First {
		t.Fatal("[1] predicate not parsed")
	}
}

func TestParseAttributeSugar(t *testing.T) {
	q := mustParse(t, `<q>{ for $p in /people return if ($p/@id = "person0") then $p/name else () }</q>`)
	f := q.Root.Child.(xqast.For)
	iff := f.Return.(xqast.If)
	cmp := iff.Cond.(xqast.Compare)
	if cmp.LHS.Path.Steps[0].Test.Name != "id" || cmp.LHS.Path.Steps[0].Axis != xqast.Child {
		t.Fatalf("@id must become child::id, got %v", cmp.LHS.Path.Steps)
	}
	if !cmp.RHS.IsLiteral || cmp.RHS.Lit != "person0" {
		t.Fatalf("literal side: %v", cmp.RHS)
	}
}

func TestParseTextTest(t *testing.T) {
	e, err := ParseExpr(`$x/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if e.(xqast.PathExpr).Path.Steps[0].Test.Kind != xqast.TestText {
		t.Fatal("text() test not parsed")
	}
}

func TestParseWhereDesugarsToIf(t *testing.T) {
	q := mustParse(t, `<q>{ for $t in /a/b where $t/c = "x" return $t }</q>`)
	f := q.Root.Child.(xqast.For)
	// Multi-step paths stay intact at parse time; where becomes If.
	if len(f.In.Steps) != 2 {
		t.Fatalf("multi-step path must stay intact at parse time: %v", f.In)
	}
	inner, ok := f.Return.(xqast.If)
	if !ok {
		t.Fatalf("where must desugar to if, got %T", f.Return)
	}
	if _, ok := inner.Else.(xqast.Empty); !ok {
		t.Fatal("where-if must have empty else branch")
	}
}

func TestParseMultiBindingFor(t *testing.T) {
	q := mustParse(t, `<q>{ for $a in /x, $b in $a/y return $b }</q>`)
	outer := q.Root.Child.(xqast.For)
	if outer.Var != "a" {
		t.Fatalf("outer var %q", outer.Var)
	}
	inner, ok := outer.Return.(xqast.For)
	if !ok || inner.Var != "b" {
		t.Fatalf("multi-binding must nest: %T", outer.Return)
	}
}

func TestParseConditions(t *testing.T) {
	q := mustParse(t, `<q>{
	  for $x in /a return
	  if (true() and not(exists($x/b)) or $x/c >= "5" and $x/d != $x/e) then $x else ()
	}</q>`)
	iff := q.Root.Child.(xqast.For).Return.(xqast.If)
	or, ok := iff.Cond.(xqast.Or)
	if !ok {
		t.Fatalf("top-level cond must be Or (and binds tighter), got %T", iff.Cond)
	}
	if _, ok := or.L.(xqast.And); !ok {
		t.Fatalf("left of or: %T", or.L)
	}
	if _, ok := or.R.(xqast.And); !ok {
		t.Fatalf("right of or: %T", or.R)
	}
}

func TestParseNotWithoutParens(t *testing.T) {
	// The paper's grammar writes "not cond" without parentheses.
	q := mustParse(t, `<q>{ for $x in /a return if (not exists($x/b)) then $x else () }</q>`)
	iff := q.Root.Child.(xqast.For).Return.(xqast.If)
	n, ok := iff.Cond.(xqast.Not)
	if !ok {
		t.Fatalf("cond: %T", iff.Cond)
	}
	if _, ok := n.C.(xqast.Exists); !ok {
		t.Fatalf("not operand: %T", n.C)
	}
}

func TestParseNestedConstructors(t *testing.T) {
	q := mustParse(t, `<out><header>report</header>{ for $x in /a return <row>{ $x/name }</row> }</out>`)
	seq, ok := q.Root.Child.(xqast.Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("content: %#v", q.Root.Child)
	}
	hdr := seq.Items[0].(xqast.Element)
	if hdr.Name != "header" {
		t.Fatalf("header name %q", hdr.Name)
	}
	if txt, ok := hdr.Child.(xqast.Text); !ok || txt.Data != "report" {
		t.Fatalf("header content: %#v", hdr.Child)
	}
}

func TestParseSelfClosingConstructor(t *testing.T) {
	q := mustParse(t, `<q>{ for $x in /a return <hit/> }</q>`)
	el := q.Root.Child.(xqast.For).Return.(xqast.Element)
	if el.Name != "hit" {
		t.Fatalf("element %q", el.Name)
	}
	if _, ok := el.Child.(xqast.Empty); !ok {
		t.Fatalf("self-closing child: %T", el.Child)
	}
}

func TestParseNumericLiteral(t *testing.T) {
	q := mustParse(t, `<q>{ for $p in /people return if ($p/income > 100000) then $p else () }</q>`)
	cmp := q.Root.Child.(xqast.For).Return.(xqast.If).Cond.(xqast.Compare)
	if !cmp.RHS.IsLiteral || cmp.RHS.Lit != "100000" {
		t.Fatalf("numeric literal: %v", cmp.RHS)
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, `<q>{ (: outer (: nested :) comment :) for $x in /a return $x }</q>`)
	if _, ok := q.Root.Child.(xqast.For); !ok {
		t.Fatalf("child: %T", q.Root.Child)
	}
}

func TestParseEmptySequenceAndCommas(t *testing.T) {
	e, err := ParseExpr(`($x, (), $y, ($z, $w))`)
	if err != nil {
		t.Fatal(err)
	}
	seq := e.(xqast.Sequence)
	// Parser keeps structure; flattening is normalize's job. Top level has 4 items.
	if len(seq.Items) != 4 {
		t.Fatalf("items: %d (%#v)", len(seq.Items), seq)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"let unsupported", `<q>{ let $x := /a return $x }</q>`, "let-expressions"},
		{"not an element", `for $x in /a return $x`, "element constructor"},
		{"mismatched tags", `<a>{ () }</b>`, "mismatched closing tag"},
		{"unterminated constructor", `<a>{ () }`, "unterminated element"},
		{"literal vs literal", `<q>{ if ("a" = "b") then () else () }</q>`, "at least one side"},
		{"bad predicate", `<q>{ $root/a[2] }</q>`, "[1]"},
		{"loop over bare var", `<q>{ for $x in $y return $x }</q>`, "bare variable"},
		{"unterminated string", `<q>{ if ($x/a = "oops) then () else () }</q>`, "unterminated string"},
		{"unterminated comment", `<q>{ (: oops }</q>`, "unterminated comment"},
		{"trailing garbage", `<a>{ () }</a> $x`, "after end of query"},
		{"bad axis", `<q>{ $x/parent::a }</q>`, "unsupported axis"},
		{"attr in constructor", `<q id="1">{ () }</q>`, "attributes"},
		{"missing in", `<q>{ for $x /a return $x }</q>`, `keyword "in"`},
		{"missing return", `<q>{ for $x in /a $x }</q>`, `keyword "return"`},
		{"stray character", `<q>{ /a # }</q>`, `unexpected character '#'`},
		{"colon ends a name", `<q>{ /a/dc: }</q>`, `expected '::'`},
		{"typographic quote", `<q>{ for $c in /a/café where $c = “noir” return $c }</q>`, `unexpected character '“'`},
		{"typographic quote ends a name", `<q>{ /a/b’ }</q>`, `unexpected character '’'`},
		{"no-break space", "<q>{ for $c\u00a0in /a return $c }</q>", `unexpected character '\u00a0'`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("<q>{\n  for $x in /a\n  retrun $x\n}</q>")
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if perr.Line != 3 {
		t.Fatalf("error line %d, want 3 (%v)", perr.Line, perr)
	}
}

// TestFormatRoundTrip checks that the canonical printer output reparses to
// the same canonical form for a corpus of queries.
func TestFormatRoundTrip(t *testing.T) {
	corpus := []string{
		introQuery,
		`<q>{ for $a in //a return <a>{ for $b in $a//b return <b/> }</a> }</q>`,
		`<q>{ for $a in //a return <a>{ for $b in //b return <b/> }</a> }</q>`,
		`<q>{ for $p in /site/people/person return if ($p/id = "person0") then $p/name else () }</q>`,
		`<q>{ (for $x in /a/b return $x, for $y in /a/c return ($y, $y/d)) }</q>`,
		`<q>{ if (exists($root/a)) then <yes>{ text { "hit" } }</yes> else <no/> }</q>`,
	}
	for i, src := range corpus {
		q1 := mustParse(t, src)
		s1 := xqast.Format(q1)
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("case %d: reparse of formatted output failed: %v\n%s", i, err, s1)
		}
		s2 := xqast.Format(q2)
		if s1 != s2 {
			t.Fatalf("case %d: format not stable:\nfirst:\n%s\nsecond:\n%s", i, s1, s2)
		}
	}
}
