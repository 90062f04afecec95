package gcx

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/corpus"
	"gcx/internal/dtd"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
	"gcx/internal/xqparser"
)

// TestNameReadersAgree: the four parsers that read a name — the
// tokenizer, the corpus splitter's framing, the query lexer and the DTD
// parser — accept the same names, because they share one grammar
// (xmlstream.IsNameStart, IsNameByte).
func TestNameReadersAgree(t *testing.T) {
	readers := []struct {
		name   string
		accept func(name string) bool
	}{
		{"tokenizer", func(name string) bool {
			tok, syms := xmlstream.NewTokenizerOptions(strings.NewReader("<"+name+"/>"), xmlstream.DefaultOptions()), xmlstream.NewSymTab()
			tok.SetSymTab(syms)
			tk, err := tok.Next()
			return err == nil && tk.Kind == xmlstream.StartElement && syms.Name(tk.Sym) == name
		}},
		{"splitter", func(name string) bool {
			// Two documents frame as two only where "<" opens a tag.
			doc := "<" + name + "/>"
			sp := corpus.NewSplitter(strings.NewReader(doc + "\n" + doc))
			for range 2 {
				got, err := sp.Next(nil)
				if err != nil || string(got) != doc {
					return false
				}
			}
			_, err := sp.Next(nil)
			return errors.Is(err, io.EOF)
		}},
		{"query lexer", func(name string) bool {
			step, err := lastStep("<q>{ /r/" + name + " }</q>")
			return err == nil && step.Test.Name == name
		}},
		{"DTD parser", func(name string) bool {
			s, err := dtd.Parse("<!ELEMENT " + name + " EMPTY>")
			if err != nil {
				return false
			}
			syms := xmlstream.NewSymTab()
			s.Bind(syms)
			return s.EmptyElement(syms.Intern(name))
		}},
	}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"a", true},
		{"title", true},
		{"_x.y-z9", true},
		{"dc:title", true},
		{"a:b:c", true},
		{"café", true},
		{"名前", true},
		{"élan:été", true},
		{"1a", false},
		{"-a", false},
		{".a", false},
	} {
		for _, r := range readers {
			if got := r.accept(tc.name); got != tc.ok {
				t.Errorf("%s reads %q as a name: %v, want %v", r.name, tc.name, got, tc.ok)
			}
		}
	}
}

// TestQualifiedAndNonASCIINames: queries over qualified and non-ASCII
// names compile, with and without a DTD that declares them, and produce
// FullBuffer's bytes in every strategy.
func TestQualifiedAndNonASCIINames(t *testing.T) {
	const doc = `<r><dc:title>Streams</dc:title><café>noir</café><x/><dc:title>Buffers</dc:title><café>crème</café></r>`
	const schema = `<!ELEMENT r (dc:title | café | x)*>
<!ELEMENT dc:title (#PCDATA)>
<!ELEMENT café (#PCDATA)>
<!ELEMENT x EMPTY>`
	for _, tc := range []struct{ q, selects string }{
		{`<out>{ /r/dc:title }</out>`, "<dc:title>Buffers</dc:title>"},
		{`<out>{ /r/café }</out>`, "<café>crème</café>"},
		{`<out>{ for $t in /r/dc:title return <t>{ $t/text() }</t> }</out>`, "<t>Streams</t>"},
		{`<out>{ for $c in //café return if ($c = "noir") then <dc:hit>{ $c }</dc:hit> else () }</out>`, "<dc:hit><café>noir</café></dc:hit>"},
	} {
		q := tc.q
		want, _, err := MustCompile(q, WithStrategy(FullBuffer)).RunString(doc)
		if err != nil {
			t.Fatalf("%s: FullBuffer: %v", q, err)
		}
		if !strings.Contains(want, tc.selects) {
			t.Fatalf("%s: FullBuffer gave %q, which lacks %q", q, want, tc.selects)
		}
		for _, opts := range [][]Option{
			nil,
			{WithDTD(schema)},
			{WithStrategy(StaticOnly)},
			{WithStrategy(StaticOnly), WithDTD(schema)},
		} {
			e, err := Compile(q, opts...)
			if err != nil {
				t.Fatalf("%s (%d options): %v", q, len(opts), err)
			}
			got, _, err := e.RunString(doc)
			if err != nil || got != want {
				t.Errorf("%s (%d options): got %q, %v; want %q", q, len(opts), got, err, want)
			}
		}
	}
}

// TestAxisStepsStillParse: with ':' a name byte, `child::a` and
// `descendant::a` are still an axis and a name.
func TestAxisStepsStillParse(t *testing.T) {
	for _, tc := range []struct {
		src  string
		axis xqast.Axis
	}{
		{"/r/child::a", xqast.Child},
		{"/r/descendant::a", xqast.Descendant},
		{"/r/child:: a", xqast.Child},
	} {
		step, err := lastStep("<q>{ " + tc.src + " }</q>")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if step.Axis != tc.axis || step.Test.Name != "a" {
			t.Fatalf("%s: last step %v, want %v::a", tc.src, step, tc.axis)
		}
	}
}

// lastStep parses query, a constructor around a path of two steps, and
// returns the path's second step.
func lastStep(query string) (xqast.Step, error) {
	q, err := xqparser.Parse(query)
	if err != nil {
		return xqast.Step{}, err
	}
	p, ok := q.Root.Child.(xqast.PathExpr)
	if !ok || len(p.Path.Steps) != 2 {
		return xqast.Step{}, fmt.Errorf("parsed as %v", q.Root.Child)
	}
	return p.Path.Steps[1], nil
}
