package engine

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/obs"
	"gcx/internal/xmlstream"
)

// The evaluator keeps a comparison's collected operand for as long as that
// operand's variable stays bound (eval.site). These cases are the shapes
// where keeping it one comparison too long, or not long enough, would
// show: the expected output of each is computed here from the data, not
// by another strategy of the same evaluator.

type hoistCase struct {
	name, query, doc, want string
}

// hoistDoc: persons with zero, one or two ids; auctions with a ref and a
// kind.
var (
	hoistIDs  = [][]string{{"p0"}, {}, {"p2", "p0"}, {"7"}, {"p4"}}
	hoistRefs = []string{"p0", "p2", "7.0", "p9", "p0", " 7 "}
	hoistKind = []string{"1", "2", "1", "1", "2", "1"}
)

func hoistDoc() string {
	var b strings.Builder
	b.WriteString("<r><people>")
	for _, ids := range hoistIDs {
		b.WriteString("<p>")
		for _, id := range ids {
			b.WriteString("<id>" + id + "</id>")
		}
		b.WriteString("</p>")
	}
	b.WriteString("</people><sales>")
	for j, ref := range hoistRefs {
		fmt.Fprintf(&b, "<t><ref>%s</ref><k>%s</k></t>", ref, hoistKind[j])
	}
	b.WriteString("</sales><pairs><b><x>1</x><y>1.0</y></b><b><x>a</x><y>b</y></b><b><x>3</x></b><b><x>q</x><y>r</y><y>q</y></b></pairs></r>")
	return b.String()
}

// idEq is the engine's "=" on this data: "7", "7.0" and " 7 " are the
// same number; everything else compares as text.
func idEq(a, b string) bool {
	num := func(s string) bool { return strings.TrimSpace(s) == "7" || strings.TrimSpace(s) == "7.0" }
	if num(a) && num(b) {
		return true
	}
	return a == b
}

func refMatches(p int, ref string) bool {
	for _, id := range hoistIDs[p] {
		if idEq(ref, id) {
			return true
		}
	}
	return false
}

func hoistCases() []hoistCase {
	doc := hoistDoc()
	var cases []hoistCase

	// The join as Q8 writes it: the collected operand hangs off the OUTER
	// variable and is reused across the inner loop.
	var w strings.Builder
	w.WriteString("<o>")
	for p := range hoistIDs {
		w.WriteString("<i>")
		for _, ref := range hoistRefs {
			if refMatches(p, ref) {
				w.WriteString("<m></m>")
			}
		}
		w.WriteString("</i>")
	}
	w.WriteString("</o>")
	cases = append(cases, hoistCase{"outer-collected", `<o>{ for $p in /r/people/p return <i>{
	    for $t in /r/sales/t return if ($t/ref = $p/id) then <m/> else () }</i> }</o>`, doc, w.String()})

	// Operands swapped: the collected operand hangs off the INNER variable,
	// which rebinds between any two consecutive comparisons of the site.
	cases = append(cases, hoistCase{"inner-collected", `<o>{ for $p in /r/people/p return <i>{
	    for $t in /r/sales/t return if ($p/id = $t/ref) then <m/> else () }</i> }</o>`, doc, w.String()})

	// Loops swapped as well: the site is entered once per $t with $p/id
	// collected anew for every inner binding of $p.
	w.Reset()
	w.WriteString("<o>")
	for _, ref := range hoistRefs {
		w.WriteString("<i>")
		for p := range hoistIDs {
			if refMatches(p, ref) {
				w.WriteString("<m></m>")
			}
		}
		w.WriteString("</i>")
	}
	w.WriteString("</o>")
	cases = append(cases, hoistCase{"loops-swapped", `<o>{ for $t in /r/sales/t return <i>{
	    for $p in /r/people/p return if ($t/ref = $p/id) then <m/> else () }</i> }</o>`, doc, w.String()})

	// Under not/and/or: three sites, two of them sharing a literal.
	w.Reset()
	w.WriteString("<o>")
	for p := range hoistIDs {
		for j, ref := range hoistRefs {
			if !refMatches(p, ref) && (hoistKind[j] == "2" || ref == "p2") {
				w.WriteString("<m></m>")
			}
		}
	}
	w.WriteString("</o>")
	cases = append(cases, hoistCase{"boolean", `<o>{ for $p in /r/people/p return
	    for $t in /r/sales/t return
	        if (not($t/ref = $p/id) and ($t/k = "2" or "p2" = $t/ref)) then <m/> else () }</o>`, doc, w.String()})

	// An empty collected sequence (no such child) answers false under
	// every operator, != included; person 1 has no id at all.
	cases = append(cases, hoistCase{"empty-rhs", `<o>{ for $p in /r/people/p return
	    for $t in /r/sales/t return
	        if ($t/ref != $p/none or $t/ref = $p/none) then <m/> else () }</o>`, doc, "<o></o>"})
	w.Reset()
	w.WriteString("<o>")
	for p := range hoistIDs {
		for _, ref := range hoistRefs {
			ne := false
			for _, id := range hoistIDs[p] {
				ne = ne || !idEq(ref, id)
			}
			if ne {
				w.WriteString("<m></m>")
			}
		}
	}
	w.WriteString("</o>")
	cases = append(cases, hoistCase{"not-equal", `<o>{ for $p in /r/people/p return
	    for $t in /r/sales/t return if ($t/ref != $p/id) then <m/> else () }</o>`, doc, w.String()})

	// Both operands off the same variable.
	cases = append(cases, hoistCase{"same-variable", `<o>{ for $b in /r/pairs/b return
	    if ($b/x = $b/y) then <eq/> else <ne/> }</o>`, doc, "<o><eq></eq><ne></ne><ne></ne><eq></eq></o>"})

	// The collected operand hangs off $root: collected once per run.
	w.Reset()
	w.WriteString("<o>")
	for _, ref := range hoistRefs {
		hit := false
		for p := range hoistIDs {
			hit = hit || refMatches(p, ref)
		}
		if hit {
			w.WriteString("<m></m>")
		}
	}
	w.WriteString("</o>")
	cases = append(cases, hoistCase{"root-collected", `<o>{ for $t in /r/sales/t return
	    if ($t/ref = /r/people/p/id) then <m/> else () }</o>`, doc, w.String()})
	return cases
}

// TestCollectedOperandReuse runs the cases with the probe table (the
// outer-collected join qualifies; the other shapes are its controls) and
// with every join loop the nested loop (nestedLoops).
func TestCollectedOperandReuse(t *testing.T) {
	t.Run("table", func(t *testing.T) { testCollectedOperandReuse(t, false) })
	t.Run("nested", func(t *testing.T) { testCollectedOperandReuse(t, true) })
}

func testCollectedOperandReuse(t *testing.T, nested bool) {
	cases := hoistCases()
	for _, tc := range cases {
		for _, mode := range []Mode{ModeGCX, ModeStaticOnly, ModeFullBuffer} {
			c := compile(t, tc.query, Config{Mode: mode})
			if nested {
				nestedLoops(c)
			}
			// Twice: the second run is on the pooled state of the first.
			for run := 0; run < 2; run++ {
				var out strings.Builder
				if _, err := c.RunChecked(strings.NewReader(tc.doc), &out); err != nil {
					t.Fatalf("%s/%s: %v", tc.name, mode, err)
				}
				if out.String() != tc.want {
					t.Errorf("%s/%s run %d:\n got %s\nwant %s", tc.name, mode, run, out.String(), tc.want)
				}
			}
		}
	}

	// All of them as members of one shared pass: each evaluator resolves
	// its own vocabulary against the one symbol table.
	srcs := make([]string, len(cases))
	for i, tc := range cases {
		srcs[i] = tc.query
	}
	for _, batch := range []int{1, 0} {
		p, err := CompilePass(srcs, Config{Mode: ModeGCX}, batch)
		if err != nil {
			t.Fatal(err)
		}
		if nested {
			nestedLoops(p.Members...)
		}
		got := probeRun(t, p, strings.NewReader(cases[0].doc)).outs
		for i, tc := range cases {
			if got[i] != tc.want {
				t.Errorf("%s in a shared pass (batch %d):\n got %s\nwant %s", tc.name, batch, got[i], tc.want)
			}
		}
	}
}

// TestFailedJoinThenCleanRunOnPooledState: a run that dies inside the
// inner loop of a join, with an operand collected and a comparison active,
// must leave its pooled run state fit for the next document.
func TestFailedJoinThenCleanRunOnPooledState(t *testing.T) {
	tc := hoistCases()[0]
	c := compile(t, tc.query, Config{Mode: ModeGCX})
	cut := strings.Index(tc.doc, "<sales>") + 60
	for round := 0; round < 3; round++ {
		_, err := c.Run(&failingReader{src: strings.NewReader(tc.doc), n: cut}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("read error must surface verbatim, got %v", err)
		}
		// Another document first, so anything stale is also wrong.
		other := strings.ReplaceAll(tc.doc, "p0", "zz")
		var out strings.Builder
		if _, err := c.RunChecked(strings.NewReader(other), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want { // renaming an id everywhere keeps every match
			t.Fatalf("round %d, renamed document after a failed run:\n got %s\nwant %s", round, out.String(), tc.want)
		}
		out.Reset()
		if _, err := c.RunChecked(strings.NewReader(tc.doc), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.want {
			t.Fatalf("round %d, clean run after a failed one:\n got %s\nwant %s", round, out.String(), tc.want)
		}
	}
}

// floodNames is how many distinct names make a symbol table alone pass
// maxIdleBytes: a run state whose document had that many is dropped, and
// the next run starts from a fresh state with an empty table.
const floodNames = 1 << 16

// floodDoc is tc's document with a <junk> element of n children, each
// with a name of its own, ahead of its content.
func floodDoc(doc string, n int) string {
	var junk strings.Builder
	junk.WriteString("<junk>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&junk, "<g%d></g%d>", i, i)
	}
	junk.WriteString("</junk>")
	return strings.Replace(doc, "<r>", "<r>"+junk.String(), 1)
}

// TestSymTabFlushReResolves: a document with so many distinct tags that
// the run state is not pooled again makes the next run start from a fresh
// state with an empty table; the query's names must be resolved against
// THAT table, not remembered from the run before.
func TestSymTabFlushReResolves(t *testing.T) {
	tc := hoistCases()[0]
	q := compile(t, `<o>{ (for $j in /r/junk/* return <j/>,
	    for $p in /r/people/p return for $t in /r/sales/t return
	        if ($t/ref = $p/id) then <m/> else ()) }</o>`, Config{Mode: ModeGCX})
	plain := strings.Replace(tc.doc, "<r>", "<r><junk></junk>", 1)
	flood := floodDoc(tc.doc, floodNames)
	matches := strings.Count(tc.want, "<m>")
	want := func(js int) string {
		return "<o>" + strings.Repeat("<j></j>", js) + strings.Repeat("<m></m>", matches) + "</o>"
	}
	for i, step := range []struct {
		doc string
		js  int
	}{{plain, 0}, {flood, floodNames}, {plain, 0}, {plain, 0}} {
		var out strings.Builder
		if _, err := q.RunChecked(strings.NewReader(step.doc), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != want(step.js) {
			t.Fatalf("run %d: got %d bytes, want %d:\n%.200s", i, out.Len(), len(want(step.js)), out.String())
		}
		if rs := q.solo.acquire(); rs.buf.Syms().Len() > 100 {
			t.Fatalf("run %d: an idle state kept a table of %d names", i, rs.buf.Syms().Len())
		} else {
			q.solo.release(rs)
		}
	}
}

// TestSharedSymTabAcrossRuns: the tokenizer and the buffer share one
// symbol table, which keeps its names across documents. In the runs
// around a document with thousands of names of its own, every start and
// end token carries the Sym its name has in the table — the one it got
// when first interned, in whichever run — and every buffered element's
// Sym names its tag: the full-buffer mode buffers the whole document,
// whose element names, read back through the table in document order,
// are the start tags' names.
func TestSharedSymTabAcrossRuns(t *testing.T) {
	const names = 4097
	c := compile(t, `<o>{ for $x in /r return $x }</o>`, Config{Mode: ModeFullBuffer})
	doc := hoistCases()[0].doc
	rs := c.solo.newRunState()
	syms := rs.buf.Syms()
	for i, in := range []string{doc, floodDoc(doc, names), doc, doc} {
		rs.reset(context.Background(), c.solo, obs.Now(), strings.NewReader(in), []io.Writer{io.Discard}, nil)
		if i == 2 && syms.Len() <= names {
			t.Fatalf("run %d: the table kept %d names after a document of %d", i, syms.Len(), names)
		}
		var starts []string
		rs.proj.Observe(func(tk xmlstream.Token) {
			if tk.Kind != xmlstream.StartElement && tk.Kind != xmlstream.EndElement {
				return
			}
			if tk.Sym == xmlstream.NoSym || int(tk.Sym) > syms.Len() {
				t.Fatalf("run %d: token %v carries Sym %d, not one of a table of %d", i, tk, tk.Sym, syms.Len())
			}
			if tk.Kind == xmlstream.StartElement {
				starts = append(starts, syms.Name(tk.Sym))
			}
		})
		if err := rs.runSolo(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var buffered []string
		var walk func(n *buffer.Node)
		walk = func(n *buffer.Node) {
			for ch := n.FirstChild; ch != nil; ch = ch.NextSib {
				if ch.Kind == buffer.KindElement {
					buffered = append(buffered, syms.Name(ch.Sym))
					walk(ch)
				}
			}
		}
		walk(rs.buf.Root())
		if want := startTags(t, in); !slices.Equal(starts, want) {
			t.Fatalf("run %d: the start tokens' Syms read back as\n%.300v\nthe document's start tags are\n%.300v", i, starts, want)
		}
		if !slices.Equal(buffered, starts) {
			t.Fatalf("run %d: buffered elements read back as\n%.300v\nthe start tags were\n%.300v", i, buffered, starts)
		}
	}
}

// startTags lists the names of doc's start tags in document order, as
// encoding/xml reads them.
func startTags(t *testing.T, doc string) []string {
	t.Helper()
	var names []string
	for d := xml.NewDecoder(strings.NewReader(doc)); ; {
		tk, err := d.Token()
		if err == io.EOF {
			return names
		} else if err != nil {
			t.Fatal(err)
		}
		if se, ok := tk.(xml.StartElement); ok {
			names = append(names, se.Name.Local)
		}
	}
}

// chunkReader yields at most k bytes per Read, so the tokenizer refills
// every k bytes and tokens straddle refills.
type chunkReader struct {
	data string
	k    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.k)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestEquivalenceAcrossRefillWindows: the random queries (path-vs-path
// and path-vs-literal comparisons among them) give the reference bytes
// whether the document arrives 1, 7 or 64 bytes at a time — solo and as
// members of a shared pass. What a comparison collected must not depend
// on where the input happened to be cut.
func TestEquivalenceAcrossRefillWindows(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 20
	}
	for seed := int64(0); seed < int64(n); seed++ {
		r := rand.New(rand.NewSource(seed))
		g := &queryGen{r: r}
		srcs := []string{g.query(), g.query()}
		doc := randDoc(r)
		want := make([]string, len(srcs))
		for i, src := range srcs {
			want[i], _ = runQuery(t, src, doc, Config{Mode: ModeFullBuffer})
		}
		w, err := CompilePass(srcs, Config{Mode: ModeGCX}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 7, 64} {
			for i, src := range srcs {
				c := compile(t, src, Config{Mode: ModeGCX})
				var out strings.Builder
				if _, err := c.RunChecked(&chunkReader{data: doc, k: k}, &out); err != nil {
					t.Fatalf("seed %d window %d: %v\n%s", seed, k, err, src)
				}
				if out.String() != want[i] {
					t.Fatalf("seed %d window %d: solo mismatch\nquery:\n%s\ndoc: %s\n got %s\nwant %s", seed, k, src, doc, out.String(), want[i])
				}
			}
			bufs := []*strings.Builder{{}, {}}
			if _, _, err := w.RunChecked(&chunkReader{data: doc, k: k}, toIOWriters(bufs)); err != nil {
				t.Fatalf("seed %d window %d: shared pass: %v", seed, k, err)
			}
			for i := range bufs {
				if bufs[i].String() != want[i] {
					t.Fatalf("seed %d window %d: shared-pass member %d mismatch\nquery:\n%s\ndoc: %s\n got %s\nwant %s", seed, k, i, srcs[i], doc, bufs[i].String(), want[i])
				}
			}
		}
	}
}
