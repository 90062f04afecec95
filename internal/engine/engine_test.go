package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gcx/internal/static"
	"gcx/internal/xmlstream"
)

// introQuery is the running example of the paper's introduction.
const introQuery = `
<r> {
  for $bib in /bib return
  ((for $x in $bib/* return
      if (not(exists($x/price))) then $x else ()),
   for $b in $bib/book return $b/title)
} </r>`

// introDoc extends the stream of Figure 2 with a priced book, so both
// if-branches and the cancellation path are exercised.
const introDoc = `<bib>` +
	`<book><title>T1</title><author>A1</author></book>` +
	`<book><title>T2</title><price>9</price><postprice>x</postprice></book>` +
	`</bib>`

func compile(t *testing.T, src string, cfg Config) *Compiled {
	t.Helper()
	c, err := Compile(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func runQuery(t *testing.T, src, doc string, cfg Config) (string, Stats) {
	t.Helper()
	c := compile(t, src, cfg)
	var out strings.Builder
	st, err := c.RunChecked(strings.NewReader(doc), &out)
	if err != nil {
		t.Fatalf("run (%s): %v", cfg.Mode, err)
	}
	return out.String(), st
}

// allConfigs enumerates the mode × optimization matrix used by the
// equivalence tests.
func allConfigs() []Config {
	optsets := []static.Options{
		{},
		{AggregateRoles: true},
		{EarlyUpdates: true},
		{EliminateRedundantRoles: true},
		{AggregateRoles: true, EliminateRedundantRoles: true},
		static.AllOptimizations(),
	}
	var cfgs []Config
	for i := range optsets {
		o := optsets[i]
		cfgs = append(cfgs, Config{Mode: ModeGCX, Static: &o})
	}
	cfgs = append(cfgs,
		Config{Mode: ModeStaticOnly},
		Config{Mode: ModeFullBuffer},
	)
	return cfgs
}

// TestWhitespaceTextSurvivesOutput: a whitespace-only text, which only
// CDATA or a character reference can put in the input, is written so
// that it reads back: GCX and FullBuffer write the same bytes, and they
// tokenize to the tokens of the input, whose one element is the output.
func TestWhitespaceTextSurvivesOutput(t *testing.T) {
	const query = `<r>{ for $a in //a return $a }</r>`
	const doc = `<r><a><![CDATA[ ]]></a></r>`
	gcx, _ := runQuery(t, query, doc, Config{Mode: ModeGCX})
	full, _ := runQuery(t, query, doc, Config{Mode: ModeFullBuffer})
	if gcx != full {
		t.Fatalf("GCX wrote %q, FullBuffer %q", gcx, full)
	}
	syms := xmlstream.NewSymTab()
	read := func(in string) []xmlstream.Token {
		tok := xmlstream.NewTokenizerOptions(strings.NewReader(in), xmlstream.DefaultOptions())
		tok.SetSymTab(syms)
		var toks []xmlstream.Token
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatalf("reading %q: %v", in, err)
			}
			if tk.Kind == xmlstream.EOF {
				return toks
			}
			toks = append(toks, *tk)
		}
	}
	if got, want := read(gcx), read(doc); !slices.Equal(got, want) {
		t.Fatalf("output %q reads back as %v, the input as %v", gcx, got, want)
	}
}

func TestIntroExampleOutput(t *testing.T) {
	want := `<r>` +
		`<book><title>T1</title><author>A1</author></book>` +
		`<title>T1</title><title>T2</title>` +
		`</r>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, introQuery, introDoc, cfg)
		if got != want {
			t.Fatalf("%s %+v:\ngot  %s\nwant %s", cfg.Mode, cfg.Static, got, want)
		}
	}
}

// TestFigure2Trace replays the paper's Figure 2: on the stream
// <bib><book><title/><author/></book>..., the author node is purged from
// the buffer as soon as the book's signOff batch has run, while the title
// survives for the later for$b loop.
func TestFigure2Trace(t *testing.T) {
	// Disable optimizations to match the paper's base technique (per-node
	// dos roles, no early updates).
	opts := static.Options{}
	c := compile(t, introQuery, Config{Mode: ModeGCX, Static: &opts})

	tr := &Tracer{}
	var out strings.Builder
	if _, err := c.Trace(context.Background(), strings.NewReader(introDoc), &out, tr); err != nil {
		t.Fatalf("run: %v", err)
	}

	trace := FormatSteps(tr.Steps)

	// Step 3 of Figure 2: after reading <book>, the node carries its
	// binding role and the dos role of $x plus the binding role of $b
	// (paper: book{r3,r5,r6}; our numbering: r2, r3, r5).
	if !strings.Contains(trace, "book{r2,r3,r5}") {
		t.Fatalf("book must carry three roles after being read:\n%s", trace)
	}
	// The author node carries only the dos role (paper: author{r5}).
	if !strings.Contains(trace, "author{r3}") {
		t.Fatalf("author must carry exactly the dos role:\n%s", trace)
	}

	// Find the last signOff of the first for$x iteration (the dos signoff
	// r3) and check the buffer no longer holds the author but still holds
	// the title (Figure 2 step 7).
	steps := tr.Steps
	idx := -1
	for i, s := range steps {
		if strings.Contains(s.Event, "signOff($x/dos::node(), r3)") {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("dos signoff not traced:\n%s", trace)
	}
	after := steps[idx].Buffer
	if strings.Contains(after, "author") {
		t.Fatalf("author must be purged after the for$x batch (Figure 2 step 7):\n%s", after)
	}
	if !strings.Contains(after, "title") {
		t.Fatalf("title must survive for the for$b loop (Figure 2 step 7):\n%s", after)
	}
	// The book itself must survive carrying the for$b binding role.
	if !strings.Contains(after, "book{r5}") {
		t.Fatalf("book must retain exactly the $b binding role:\n%s", after)
	}
}

// TestTraceEntityTextRuns pins a whole trace whose two text runs both
// carry an entity, so each is assembled in the tokenizer's one shared text
// scratch and the second overwrites the first: the tracer must format each
// token while the projector's observer holds it, never keep the token.
func TestTraceEntityTextRuns(t *testing.T) {
	c := compile(t, `<q>{ for $x in //x return $x }</q>`, Config{Mode: ModeGCX})
	tr := &Tracer{}
	var out strings.Builder
	if _, err := c.Trace(context.Background(), strings.NewReader(`<r>a&amp;b<x>C&amp;D</x></r>`), &out, tr); err != nil {
		t.Fatal(err)
	}
	if out.String() != `<q><x>C&amp;D</x></q>` {
		t.Fatalf("output %s", out.String())
	}
	want := []TraceStep{
		{`read <r>`, ``},
		{`read "a&b"`, ``},
		{`read <x>`, "x{r2}*\n"},
		{`read "C&D"`, "x{r2}*\n  \"C&D\"\n"},
		{`read </x>`, "x{r2}\n  \"C&D\"\n"},
		{`signOff($x, r2)`, "x\n"},
		{`read </r>`, "x\n"},
		{`read EOF`, "x\n"},
	}
	if !slices.Equal(tr.Steps, want) {
		t.Fatalf("trace\n%s", FormatSteps(tr.Steps))
	}
}

// TestCancellation exercises the signOff-on-unfinished-subtree path: the
// second book of introDoc contains a price, so the for$x batch runs while
// the book is still open; the trailing postprice element must not be
// buffered on behalf of the cancelled dos role, and the balance must hold
// (RunChecked verifies it).
func TestCancellation(t *testing.T) {
	for _, cfg := range allConfigs() {
		if cfg.Mode != ModeGCX {
			continue
		}
		c := compile(t, introQuery, cfg)
		tr := &Tracer{}
		var out strings.Builder
		if _, err := c.Trace(context.Background(), strings.NewReader(introDoc), &out, tr); err != nil {
			t.Fatalf("%+v: %v", cfg.Static, err)
		}
		// After the postprice element is read, it must not linger in the
		// buffer: the dos role was signed off before it arrived.
		for _, s := range tr.Steps {
			if strings.Contains(s.Event, "read <postprice>") && strings.Contains(s.Buffer, "postprice{") {
				t.Fatalf("%+v: postprice buffered with roles after cancellation:\n%s", cfg.Static, s.Buffer)
			}
		}
		// And the balance invariant must hold.
		var out2 strings.Builder
		if _, err := c.RunChecked(strings.NewReader(introDoc), &out2); err != nil {
			t.Fatalf("%+v: balance: %v", cfg.Static, err)
		}
	}
}

func TestExistsBlocking(t *testing.T) {
	// The price arrives late in the subtree: exists must block, find it,
	// and suppress the then-branch.
	src := `<q>{ for $x in /bib/book return if (exists($x/price)) then <priced/> else <free/> }</q>`
	doc := `<bib><book><a/><b/><price>1</price></book><book><a/></book></bib>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != `<q><priced></priced><free></free></q>` {
			t.Fatalf("%s: got %s", cfg.Mode, got)
		}
	}
}

func TestComparisons(t *testing.T) {
	src := `<q>{ for $p in /people/person return
	         if ($p/income > 50000 and not($p/name = "boss")) then <rich>{ $p/name }</rich> else () }</q>`
	doc := `<people>` +
		`<person><name>ann</name><income>60000</income></person>` +
		`<person><name>bob</name><income>7000</income></person>` +
		`<person><name>boss</name><income>90000</income></person>` +
		`</people>`
	want := `<q><rich><name>ann</name></rich></q>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s: got %s want %s", cfg.Mode, got, want)
		}
	}
}

func TestNumericVsStringComparison(t *testing.T) {
	// "9" < "10" numerically, but "9" > "10" lexicographically.
	src := `<q>{ for $x in /l/v return if ($x/n < 10) then <hit/> else () }</q>`
	doc := `<l><v><n>9</n></v><v><n>100</n></v></l>`
	got, _ := runQuery(t, src, doc, Config{Mode: ModeGCX})
	if got != `<q><hit></hit></q>` {
		t.Fatalf("numeric comparison broken: %s", got)
	}

	src2 := `<q>{ for $x in /l/v return if ($x/n < "b") then <hit/> else () }</q>`
	doc2 := `<l><v><n>a</n></v><v><n>c</n></v></l>`
	got2, _ := runQuery(t, src2, doc2, Config{Mode: ModeGCX})
	if got2 != `<q><hit></hit></q>` {
		t.Fatalf("string comparison broken: %s", got2)
	}
}

func TestJoinQuery(t *testing.T) {
	// A Q8-style value join: people × purchases.
	src := `<q>{ for $p in /db/people/person return
	        <row>{ ($p/name,
	          for $t in /db/sales/sale return
	            if ($t/who = $p/name) then <sale>{ $t/amount }</sale> else ()) }</row> }</q>`
	doc := `<db>` +
		`<people><person><name>ann</name></person><person><name>bob</name></person></people>` +
		`<sales>` +
		`<sale><who>bob</who><amount>3</amount></sale>` +
		`<sale><who>ann</who><amount>5</amount></sale>` +
		`<sale><who>ann</who><amount>7</amount></sale>` +
		`</sales>` +
		`</db>`
	want := `<q>` +
		`<row><name>ann</name><sale><amount>5</amount></sale><sale><amount>7</amount></sale></row>` +
		`<row><name>bob</name><sale><amount>3</amount></sale></row>` +
		`</q>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s %+v:\ngot  %s\nwant %s", cfg.Mode, cfg.Static, got, want)
		}
	}
}

func TestDescendantIteration(t *testing.T) {
	src := `<q>{ for $b in //b return <hit>{ $b/k }</hit> }</q>`
	doc := `<a><b><k>1</k><b><k>2</k></b></b><c><b><k>3</k></b></c></a>`
	want := `<q><hit><k>1</k></hit><hit><k>2</k></hit><hit><k>3</k></hit></q>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s: got %s want %s", cfg.Mode, got, want)
		}
	}
}

func TestWildcardAndText(t *testing.T) {
	src := `<q>{ for $x in /r/* return <cell>{ $x/text() }</cell> }</q>`
	doc := `<r><a>1</a><b>two</b><c><d/>3</c></r>`
	want := `<q><cell>1</cell><cell>two</cell><cell>3</cell></q>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s: got %s want %s", cfg.Mode, got, want)
		}
	}
}

// TestGCXBufferSmaller: the headline claim — on a filter query, GCX's peak
// buffer is bounded while StaticOnly grows with the (projected) input and
// FullBuffer with the whole input.
func TestGCXBufferSmaller(t *testing.T) {
	src := `<q>{ for $p in /people/person return if ($p/id = "p1") then $p/name else () }</q>`
	var doc strings.Builder
	doc.WriteString("<people>")
	for i := 0; i < 500; i++ {
		doc.WriteString(`<person><id>p` + string(rune('0'+i%10)) + `</id><name>n</name><junk>jjjjjjjjjj</junk></person>`)
	}
	doc.WriteString("</people>")

	_, gcx := runQuery(t, src, doc.String(), Config{Mode: ModeGCX})
	_, static_ := runQuery(t, src, doc.String(), Config{Mode: ModeStaticOnly})
	_, full := runQuery(t, src, doc.String(), Config{Mode: ModeFullBuffer})

	if gcx.Buffer.PeakNodes > 30 {
		t.Fatalf("GCX peak %d nodes: must be bounded (one person at a time)", gcx.Buffer.PeakNodes)
	}
	if static_.Buffer.PeakNodes < 500 {
		t.Fatalf("StaticOnly peak %d nodes: must hold all projected persons", static_.Buffer.PeakNodes)
	}
	if full.Buffer.PeakNodes < 2000 {
		t.Fatalf("FullBuffer peak %d nodes: must hold the whole document", full.Buffer.PeakNodes)
	}
	if !(gcx.Buffer.PeakNodes < static_.Buffer.PeakNodes && static_.Buffer.PeakNodes < full.Buffer.PeakNodes) {
		t.Fatalf("peak ordering violated: %d vs %d vs %d",
			gcx.Buffer.PeakNodes, static_.Buffer.PeakNodes, full.Buffer.PeakNodes)
	}
}

// TestEarlyStopOnExists: once an existence check has its witness and the
// rest of the query needs no further input, evaluation stops without
// consuming the remaining stream. (Loops, by contrast, must scan to the
// end — without schema knowledge another match could always follow; the
// paper makes the same observation when comparing against the
// schema-aware FluX system.)
func TestEarlyStopOnExists(t *testing.T) {
	src := `<q>{ if (exists(/r/head)) then <yes/> else () }</q>`
	doc := `<r><head></head><tail>` + strings.Repeat("<x></x>", 1000) + `</tail></r>`
	_, st := runQuery(t, src, doc, Config{Mode: ModeGCX})
	if st.TokensRead > 10 {
		t.Fatalf("read %d tokens; evaluation must stop at the witness", st.TokensRead)
	}

	// A loop over /r/head/item keeps the buffer flat even though it scans
	// the whole stream.
	src2 := `<q>{ for $x in /r/head/item return $x }</q>`
	doc2 := `<r><head><item>1</item></head><tail>` + strings.Repeat("<x></x>", 1000) + `</tail></r>`
	_, st2 := runQuery(t, src2, doc2, Config{Mode: ModeGCX})
	if st2.Buffer.PeakNodes > 10 {
		t.Fatalf("peak %d nodes; the tail must not be buffered", st2.Buffer.PeakNodes)
	}
}

func TestCondTagWellFormedness(t *testing.T) {
	// An if with an element constructor around a for-loop triggers the NC
	// rewriting; the conditional open/close tags must stay balanced.
	src := `<q>{ for $x in /db/g return
	         if (exists($x/keep)) then <g>{ for $y in $x/v return $y }</g> else () }</q>`
	doc := `<db><g><keep/><v>1</v><v>2</v></g><g><v>3</v></g></db>`
	want := `<q><g><v>1</v><v>2</v></g></q>`
	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s: got %s want %s", cfg.Mode, got, want)
		}
	}
}

func TestEmptyDocumentRegions(t *testing.T) {
	src := `<q>{ for $x in /r/a return $x }</q>`
	got, _ := runQuery(t, src, `<r></r>`, Config{Mode: ModeGCX})
	if got != `<q></q>` {
		t.Fatalf("got %s", got)
	}
}

func TestMalformedInputSurfacesError(t *testing.T) {
	c := compile(t, `<q>{ for $x in /r/a return $x }</q>`, Config{Mode: ModeGCX})
	var out strings.Builder
	if _, err := c.Run(strings.NewReader(`<r><a></b></r>`), &out); err == nil {
		t.Fatal("malformed input must surface an error")
	}
	if _, err := c.Run(strings.NewReader(`<r><a>`), &out); err == nil {
		t.Fatal("truncated input must surface an error")
	}
}

func TestExplainOutput(t *testing.T) {
	c := compile(t, introQuery, Config{Mode: ModeGCX})
	ex := c.Explain()
	for _, want := range []string{"variable tree", "projection tree", "rewritten query", "dep($", "signOff("} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q:\n%s", want, ex)
		}
	}
}
