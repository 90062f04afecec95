package xmlstream

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// collect drains all tokens from input with the given options.
func collect(t *testing.T, input string, opts Options) []Token {
	t.Helper()
	tok := NewTokenizerOptions(strings.NewReader(input), opts)
	var out []Token
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatalf("Next: %v (after %d tokens)", err, len(out))
		}
		if tk.Kind == EOF {
			return out
		}
		out = append(out, tk)
	}
}

func collectErr(input string, opts Options) ([]Token, error) {
	tok := NewTokenizerOptions(strings.NewReader(input), opts)
	var out []Token
	for {
		tk, err := tok.Next()
		if err != nil {
			return out, err
		}
		if tk.Kind == EOF {
			return out, nil
		}
		out = append(out, tk)
	}
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameToken(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameToken compares what two tokens say: Kind, Name and Data. A Sym
// means something only in its own tokenizer's table.
func sameToken(a, b Token) bool {
	return a.Kind == b.Kind && a.Name == b.Name && a.Data == b.Data
}

func TestSimpleDocument(t *testing.T) {
	got := collect(t, `<bib><book><title>TCP/IP</title><author/></book></bib>`, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "bib"},
		{Kind: StartElement, Name: "book"},
		{Kind: StartElement, Name: "title"},
		{Kind: Text, Data: "TCP/IP"},
		{Kind: EndElement, Name: "title"},
		{Kind: StartElement, Name: "author"},
		{Kind: EndElement, Name: "author"},
		{Kind: EndElement, Name: "book"},
		{Kind: EndElement, Name: "bib"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestAttributesBecomeSubelements(t *testing.T) {
	got := collect(t, `<person id="person0" score="7"><name>Ann</name></person>`, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "person"},
		{Kind: StartElement, Name: "id"},
		{Kind: Text, Data: "person0"},
		{Kind: EndElement, Name: "id"},
		{Kind: StartElement, Name: "score"},
		{Kind: Text, Data: "7"},
		{Kind: EndElement, Name: "score"},
		{Kind: StartElement, Name: "name"},
		{Kind: Text, Data: "Ann"},
		{Kind: EndElement, Name: "name"},
		{Kind: EndElement, Name: "person"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestSelfClosingAttributeOrder(t *testing.T) {
	got := collect(t, `<item id="i1"/>`, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "item"},
		{Kind: StartElement, Name: "id"},
		{Kind: Text, Data: "i1"},
		{Kind: EndElement, Name: "id"},
		{Kind: EndElement, Name: "item"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestEmptyAttributeValue(t *testing.T) {
	got := collect(t, `<a x=""/>`, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "a"},
		{Kind: StartElement, Name: "x"},
		{Kind: EndElement, Name: "x"},
		{Kind: EndElement, Name: "a"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestEntities(t *testing.T) {
	got := collect(t, `<t>a &amp; b &lt;c&gt; &apos;d&apos; &quot;e&quot; &#65;&#x42;</t>`, DefaultOptions())
	if len(got) != 3 || got[1].Data != `a & b <c> 'd' "e" AB` {
		t.Fatalf("got %v", got)
	}
}

func TestEntityInAttribute(t *testing.T) {
	got := collect(t, `<t a="x &amp; y"/>`, DefaultOptions())
	if len(got) != 5 || got[2].Data != "x & y" {
		t.Fatalf("got %v", got)
	}
}

func TestWhitespaceSuppression(t *testing.T) {
	input := "<a>\n  <b> x </b>\n</a>"
	got := collect(t, input, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "a"},
		{Kind: StartElement, Name: "b"},
		{Kind: Text, Data: " x "},
		{Kind: EndElement, Name: "b"},
		{Kind: EndElement, Name: "a"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestCommentsPIsDoctypeSkipped(t *testing.T) {
	input := `<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><!-- hi --><a><!-- x --><?pi data?><b/></a>`
	got := collect(t, input, DefaultOptions())
	want := []Token{
		{Kind: StartElement, Name: "a"},
		{Kind: StartElement, Name: "b"},
		{Kind: EndElement, Name: "b"},
		{Kind: EndElement, Name: "a"},
	}
	if !tokensEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestDoctypeInternalSubsetOpaqueContent(t *testing.T) {
	// Quoted literals, comments, and PIs inside the internal subset may
	// legally contain '<', '>', and quote characters; the declaration
	// skipper must treat them as opaque instead of counting them toward
	// the nesting (or scanning a comment's apostrophe as a quote).
	for _, input := range []string{
		`<!DOCTYPE a [<!ENTITY lt "<">]><a/>`,
		`<!DOCTYPE a [<!ENTITY gt '>'>]><a/>`,
		"<!DOCTYPE a [<!-- don't < > -->]><a/>",
		"<!DOCTYPE a [<?p quote ' bracket > ?>]><a/>",
		`<!DOCTYPE a [<!ELEMENT a EMPTY><!-- x --><!ATTLIST a b CDATA "<">]><a/>`,
	} {
		got := collect(t, input, DefaultOptions())
		want := []Token{
			{Kind: StartElement, Name: "a"},
			{Kind: EndElement, Name: "a"},
		}
		if !tokensEqual(got, want) {
			t.Errorf("%s: got %v\nwant %v", input, got, want)
		}
	}
}

func TestCommentDashRuns(t *testing.T) {
	// A comment whose terminator overlaps extra dashes ("--->") ends at
	// the first "-->" occurrence; the old skipUntil matcher lost its
	// match progress on dash runs and read such comments as
	// unterminated, swallowing the rest of the document.
	for _, input := range []string{
		"<a><!-- x ---></a>",
		"<a><!-- x ----></a>",
		"<a><!----></a>",
		"<a><!-- - -- ---></a>",
	} {
		got := collect(t, input, DefaultOptions())
		want := []Token{
			{Kind: StartElement, Name: "a"},
			{Kind: EndElement, Name: "a"},
		}
		if !tokensEqual(got, want) {
			t.Errorf("%s: got %v\nwant %v", input, got, want)
		}
	}
}

func TestCDATA(t *testing.T) {
	got := collect(t, `<a><![CDATA[x < y & z ]] ]]></a>`, DefaultOptions())
	if len(got) != 3 || got[1].Data != "x < y & z ]] " {
		t.Fatalf("got %v", got)
	}
}

func TestCDATABracketRuns(t *testing.T) {
	// CDATA content ending in ']' overlaps the "]]>" terminator; only
	// the final two brackets of a run belong to the terminator. The old
	// matcher flushed the whole run and read valid sections like
	// "<![CDATA[x]]]>" as unterminated.
	for _, tc := range []struct{ input, want string }{
		{`<a><![CDATA[x]]]></a>`, "x]"},
		{`<a><![CDATA[x]]]]></a>`, "x]]"},
		{`<a><![CDATA[]]]]></a>`, "]]"},
		{`<a><![CDATA[a]b]]]></a>`, "a]b]"},
	} {
		got := collect(t, tc.input, DefaultOptions())
		if len(got) != 3 || got[1].Data != tc.want {
			t.Errorf("%s: got %v, want CDATA %q", tc.input, got, tc.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"mismatched close", `<a><b></a></b>`},
		{"unclosed", `<a><b>`},
		{"stray close", `</a>`},
		{"text outside root", `hello<a/>`},
		{"two roots", `<a/><b/>`},
		{"bad entity", `<a>&bogus;</a>`},
		{"unterminated comment", `<a><!-- x</a>`},
		{"attr missing eq", `<a x"1"/>`},
		{"attr missing quote", `<a x=1/>`},
		{"unterminated cdata", `<a><![CDATA[x</a>`},
		{"garbage tag", `<a><<b/></a>`},
		{"truncated tag", `<a`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := collectErr(tc.input, DefaultOptions()); err == nil {
				t.Fatalf("input %q: want error, got none", tc.input)
			}
		})
	}
}

func TestEOFSticky(t *testing.T) {
	tok := NewTokenizer(strings.NewReader(`<a/>`))
	for i := 0; i < 2; i++ {
		if _, err := tok.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		tk, err := tok.Next()
		if err != nil || tk.Kind != EOF {
			t.Fatalf("want sticky EOF, got %v %v", tk, err)
		}
	}
}

// shortReader returns at most n bytes per Read to exercise buffer refills.
type shortReader struct {
	r io.Reader
	n int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

func TestShortReads(t *testing.T) {
	input := `<bib><book id="b1"><title>Streaming &amp; Buffers</title></book></bib>`
	want := collect(t, input, DefaultOptions())
	for _, n := range []int{1, 2, 3, 7} {
		tok := NewTokenizerOptions(&shortReader{strings.NewReader(input), n}, DefaultOptions())
		var got []Token
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if tk.Kind == EOF {
				break
			}
			got = append(got, tk)
		}
		if !tokensEqual(got, want) {
			t.Fatalf("n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestDepth(t *testing.T) {
	tok := NewTokenizer(strings.NewReader(`<a><b><c></c></b></a>`))
	depths := []int{1, 2, 3, 2, 1, 0}
	for i := 0; ; i++ {
		tk, err := tok.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tk.Kind == EOF {
			break
		}
		if tok.Depth() != depths[i] {
			t.Fatalf("token %d (%v): depth %d, want %d", i, tk, tok.Depth(), depths[i])
		}
	}
}

// randomTree produces a random XML document string and its expected token
// stream, for round-trip testing.
func randomTree(r *rand.Rand, depth int, sb *strings.Builder, toks *[]Token) {
	names := []string{"a", "b", "item", "x1", "long-name"}
	name := names[r.Intn(len(names))]
	sb.WriteString("<" + name + ">")
	*toks = append(*toks, Token{Kind: StartElement, Name: name})
	n := r.Intn(3)
	if depth > 4 {
		n = 0
	}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			text := [][2]string{{"hello", "hello"}, {"a&b", "a&amp;b"}, {"1 < 2", "1 &lt; 2"}}[r.Intn(3)]
			sb.WriteString(text[1])
			*toks = append(*toks, Token{Kind: Text, Data: text[0]})
		} else {
			randomTree(r, depth+1, sb, toks)
		}
	}
	sb.WriteString("</" + name + ">")
	*toks = append(*toks, Token{Kind: EndElement, Name: name})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		var want []Token
		randomTree(r, 0, &sb, &want)
		got, err := collectErr(sb.String(), DefaultOptions())
		if err != nil {
			t.Logf("doc %q: %v", sb.String(), err)
			return false
		}
		// Adjacent text tokens may merge; normalize both sides.
		return tokensEqual(mergeText(got), mergeText(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mergeText(toks []Token) []Token {
	var out []Token
	for _, tk := range toks {
		if tk.Kind == Text && len(out) > 0 && out[len(out)-1].Kind == Text {
			out[len(out)-1].Data += tk.Data
			continue
		}
		out = append(out, tk)
	}
	return out
}

func TestWriterRoundTrip(t *testing.T) {
	input := `<bib><book id="b1"><title>a &amp; b</title><empty/></book></bib>`
	toks := collect(t, input, DefaultOptions())
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, tk := range toks {
		w.WriteToken(tk)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Re-tokenize the writer output; token streams must agree.
	got := collect(t, sb.String(), DefaultOptions())
	if !tokensEqual(got, toks) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", toks, got)
	}
}

func TestWriterBalanceErrors(t *testing.T) {
	w := NewWriter(io.Discard)
	w.StartElement("a")
	w.EndElement("b")
	if w.Err() == nil {
		t.Fatal("want mismatch error")
	}

	w2 := NewWriter(io.Discard)
	w2.StartElement("a")
	if err := w2.Flush(); err == nil {
		t.Fatal("want unclosed-element error")
	}

	w3 := NewWriter(io.Discard)
	w3.EndElement("a")
	if w3.Err() == nil {
		t.Fatal("want stray-close error")
	}
}

func TestSymTab(t *testing.T) {
	s := NewSymTab()
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b {
		t.Fatal("distinct names must get distinct symbols")
	}
	if s.Intern("alpha") != a {
		t.Fatal("Intern must be stable")
	}
	if s.Name(a) != "alpha" || s.Name(b) != "beta" {
		t.Fatal("Name mismatch")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func BenchmarkTokenizer(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString(`<item id="i1"><name>some name here</name><payload>lorem ipsum dolor sit amet</payload></item>`)
	}
	doc := "<root>" + sb.String() + "</root>"
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok := NewTokenizer(strings.NewReader(doc))
		for {
			tk, err := tok.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tk.Kind == EOF {
				break
			}
		}
	}
}
