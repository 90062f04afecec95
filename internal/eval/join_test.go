package eval_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/eval"
	"gcx/internal/proj"
	"gcx/internal/queries"
	"gcx/internal/xmark"
	"gcx/internal/xmlstream"
)

// chain is the Figure 11 chain as engine.newRunState wires it for a solo
// query, built by hand so the test holds the evaluator (whose counters
// export_test.go exposes).
type chain struct {
	c      *engine.Compiled
	schema *dtd.Schema
	tok    *xmlstream.Tokenizer
	buf    *buffer.Buffer
	pr     *proj.Projector
	w      *xmlstream.Writer
	ev     *eval.Evaluator
}

func newChain(t *testing.T, query string) *chain {
	t.Helper()
	return newSchemaChain(t, query, nil)
}

func newSchemaChain(t *testing.T, query string, schema *dtd.Schema) *chain {
	t.Helper()
	c, err := engine.Compile(query, engine.Config{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	roles := c.MatchTree.Roles
	agg := make([]bool, len(roles))
	for i, r := range roles {
		agg[i] = i > 0 && r.Aggregate
	}
	ch := &chain{c: c, schema: schema}
	ch.buf = buffer.New(xmlstream.NewSymTab(), len(roles)-1, agg)
	ch.tok = xmlstream.NewTokenizerOptions(nil, xmlstream.DefaultOptions())
	ch.pr = proj.New(ch.tok, ch.buf, c.MatchTree, proj.Options{AggregateRoles: c.Analysis.Opts.AggregateRoles, Schema: schema})
	ch.w = xmlstream.NewWriter(io.Discard)
	ch.ev = eval.New(ch.buf, ch.pr, ch.w, eval.Options{})
	return ch
}

// run resets the chain in the engine's order and evaluates one document.
func (ch *chain) run(in io.Reader, out io.Writer) error {
	ch.tok.Reset(in)
	ch.buf.Reset()
	ch.pr.Reset()
	ch.w.Reset(out)
	ch.ev.Reset(eval.Options{ExecuteSignOffs: true, Schema: ch.schema})
	return ch.ev.Run(ch.c.Analysis.Query)
}

// joinQuery is Q8's shape: for every person, scan every closed auction
// and compare the buyer with the person's id.
const joinQuery = `<out>{
  for $p in /site/people/person return
    <item>{
      ($p/name,
       for $t in /site/closed_auctions/closed_auction return
         if ($t/buyer = $p/id) then <bought/> else ())
    }</item>
}</out>`

// joinDoc has p persons and t auctions; auction j was bought by person
// j mod p, so every person matches.
func joinDoc(p, t int) string {
	return "<site>" + joinPeople(p) + joinAuctions(p, t) + "</site>"
}

func joinPeople(p int) string {
	var b strings.Builder
	b.WriteString("<people>")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<person><id>person%d</id><name>n%d</name></person>", i, i)
	}
	b.WriteString("</people>")
	return b.String()
}

func joinAuctions(p, t int) string {
	var b strings.Builder
	b.WriteString("<closed_auctions>")
	for j := 0; j < t; j++ {
		fmt.Fprintf(&b, "<closed_auction><buyer>person%d</buyer><price>%d</price></closed_auction>", j%p, j)
	}
	b.WriteString("</closed_auctions>")
	return b.String()
}

func joinWant(p, t int) string {
	var b strings.Builder
	b.WriteString("<out>")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<item><name>n%d</name>", i)
		for j := i; j < t; j += p {
			b.WriteString("<bought></bought>")
		}
		b.WriteString("</item>")
	}
	b.WriteString("</out>")
	return b.String()
}

// TestIdleOperandRetentionIsBounded: a run whose operands hold 256
// values — each person's ids, collected as the probe value, and each
// auction's buyers, collected as its keys when the third person builds
// the probe table — leaves an idle evaluator whose operand scratch holds
// none of them and whose Retained counts the room they grew — what the
// pass bounds an idle run state by — while a run of one-value operands
// grows none; either way the next run answers alike.
func TestIdleOperandRetentionIsBounded(t *testing.T) {
	const persons = 3
	const n = 256
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < persons; i++ {
		b.WriteString("<person>")
		for k := 0; k < n; k++ {
			fmt.Fprintf(&b, "<id>person%d-%d</id>", i, k)
		}
		fmt.Fprintf(&b, "<name>n%d</name></person>", i)
	}
	b.WriteString("</people><closed_auctions>")
	for j := 0; j < persons; j++ {
		b.WriteString("<closed_auction>")
		for k := n - 1; k >= 0; k-- {
			fmt.Fprintf(&b, "<buyer>person%d-%d</buyer>", j, k)
		}
		fmt.Fprintf(&b, "<price>%d</price></closed_auction>", j)
	}
	b.WriteString("</closed_auctions></site>")
	wide := b.String()

	ch := newChain(t, joinQuery)
	for _, run := range []struct {
		name, doc, want string
	}{
		{"one-value operands", joinDoc(5, 40), joinWant(5, 40)},
		{"wide operands", wide, joinWant(persons, persons)},
		{"one-value operands again", joinDoc(5, 40), joinWant(5, 40)},
	} {
		var out strings.Builder
		if err := ch.run(strings.NewReader(run.doc), &out); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if out.String() != run.want {
			t.Fatalf("%s:\n got %s\nwant %s", run.name, out.String(), run.want)
		}
		if w := ch.ev.Work(); w.Entries == 0 {
			t.Fatalf("%s: the run built no probe table, work %+v", run.name, w)
		}
		got := ch.ev.OperandCapacity()
		if got == 0 {
			t.Errorf("%s: the idle evaluator dropped its operand scratch", run.name)
		}
		if got > 4 && ch.ev.Retained() < int64(got)*eval.AtomBytes {
			t.Errorf("%s: room for %d operand values, but Retained reports %d bytes", run.name, got, ch.ev.Retained())
		}
		if run.doc == wide && got < n {
			t.Errorf("%s: sanity: the evaluator holds room for only %d operand values", run.name, got)
		}
		if r := ch.ev.Pinned(); r != 0 {
			t.Errorf("%s: the idle evaluator retains %d items", run.name, r)
		}
	}
}

// TestJoinWorkCounts pins the join's deterministic work. The persons
// precede the auctions, so person 0's inner loop runs while the auction
// region streams in (nested: T comparisons), person 1's is the first over
// the finished region (nested again, recorded), and person 2's builds the
// probe table (T entries) — from then on a person costs one lookup and
// one re-check per auction it bought, and P·T comparisons are P + 3T at
// most. The invariant operand is still collected once per outer binding,
// and no tag name is hashed after the run's start.
func TestJoinWorkCounts(t *testing.T) {
	ch := newChain(t, joinQuery)
	vocab := int64(len(ch.c.Analysis.Query.Names))
	if vocab == 0 {
		t.Fatal("resolved query has an empty vocabulary")
	}
	for _, size := range [][2]int{{7, 13}, {20, 50}, {100, 500}, {3, 1}} {
		p, tt := size[0], size[1]
		var out strings.Builder
		if err := ch.run(strings.NewReader(joinDoc(p, tt)), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != joinWant(p, tt) {
			t.Fatalf("%d×%d: output\n got %s\nwant %s", p, tt, out.String(), joinWant(p, tt))
		}
		bought := func(i int) int { return max(0, (tt-i+p-1)/p) } // auctions i, i+p, ... below tt
		buckets := int64(8)
		for buckets < int64(2*tt) {
			buckets <<= 1
		}
		got := ch.ev.Work()
		want := eval.Work{
			Compares:    int64(2*tt + tt - bought(0) - bought(1)),
			Collections: int64(p),
			NameLookups: vocab,
			Entries:     int64(tt),
			Probes:      int64(p - 2),
			TableBytes:  int64(tt)*eval.EntryBytes + 4*buckets,
		}
		if got != want {
			t.Errorf("%d×%d: work %+v, want %+v", p, tt, got, want)
		}
	}
}

// TestQ8WorkCount: Q8 over the 2 MB XMark document (seed 1, P = 652
// persons, T = 249 closed auctions) compared P·T = 162,348 pairs as a
// nested loop; with the probe table, comparisons, entries and lookups
// together stay within 3·(P+T).
func TestQ8WorkCount(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(2 << 20), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	p := bytes.Count(doc.Bytes(), []byte("<person "))
	tt := bytes.Count(doc.Bytes(), []byte("<closed_auction>"))
	if p != 652 || tt != 249 {
		t.Fatalf("document has %d persons and %d closed auctions, want 652 and 249", p, tt)
	}
	ch := newChain(t, queries.Q8.Text)
	var out strings.Builder
	if err := ch.run(bytes.NewReader(doc.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "<bought>"); n == 0 {
		t.Fatal("Q8 found no purchase")
	}
	w := ch.ev.Work()
	if total, bound := w.Compares+w.Entries+w.Probes, int64(3*(p+tt)); total > bound {
		t.Errorf("work %+v: %d comparisons + entries + probes, want <= %d", w, total, bound)
	}
	t.Logf("P=%d T=%d: work %+v (nested loop: %d comparisons)", p, tt, w, p*tt)
}

// truncated yields n bytes of src, then fails.
type truncated struct {
	src io.Reader
	n   int
}

func (r *truncated) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errors.New("disk on fire")
	}
	m, err := r.src.Read(p[:min(len(p), r.n)])
	r.n -= m
	return m, err
}

// TestFailedJoinRetainsNothing: a run that dies inside the inner loop —
// operand collected, comparison active, both variables bound — or after
// the inner loop's probe table was built leaves the evaluator holding
// nothing of the document, and the next run on the same state is clean.
func TestFailedJoinRetainsNothing(t *testing.T) {
	ch := newChain(t, joinQuery)
	doc := joinDoc(5, 40)
	if err := ch.run(strings.NewReader(doc), io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := ch.ev.Pinned(); n != 0 {
		t.Fatalf("after a clean run the evaluator retains %d items", n)
	}
	// Cut inside closed_auctions: person 0 is bound and its id collected
	// when the stream fails under the inner loop.
	cut := strings.Index(doc, "<closed_auctions>") + 400
	err := ch.run(&truncated{src: strings.NewReader(doc), n: cut}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("read error must surface, got %v", err)
	}
	if w := ch.ev.Work(); w.Collections == 0 || w.Compares == 0 {
		t.Fatalf("the run was meant to fail mid-join, work %+v", w)
	}
	// This is the state the engine pools: release resets the buffer, not
	// the evaluator.
	if n := ch.ev.Pinned(); n != 0 {
		t.Fatalf("after a failed run the evaluator retains %d items", n)
	}
	var out strings.Builder
	if err := ch.run(strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != joinWant(5, 40) {
		t.Fatalf("clean run after a failed one:\n got %s\nwant %s", out.String(), joinWant(5, 40))
	}

	// Auctions first, under a DTD that lets the inner loop learn at
	// <people> that no second closed_auctions follows (without one it
	// reads to </site> for person 0): the region is finished when person 0
	// arrives, person 1 builds the table, and the cut is inside person 2.
	schema, err := dtd.Parse(`
<!ELEMENT site (closed_auctions, people)>
<!ELEMENT closed_auctions (closed_auction*)>
<!ELEMENT closed_auction (buyer, price)>
<!ELEMENT people (person*)>
<!ELEMENT person (id, name)>
<!ELEMENT buyer (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT name (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	ch = newSchemaChain(t, joinQuery, schema)
	doc = "<site>" + joinAuctions(5, 40) + joinPeople(5) + "</site>"
	cut = strings.Index(doc, "<id>person2</id>") + 8
	err = ch.run(&truncated{src: strings.NewReader(doc), n: cut}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("read error must surface, got %v", err)
	}
	if w := ch.ev.Work(); w.Entries != 40 || w.Probes != 1 {
		t.Fatalf("the run was meant to fail after the table was built and probed once, work %+v", w)
	}
	if n := ch.ev.Pinned(); n != 0 {
		t.Fatalf("after a run that failed with a probe table built the evaluator retains %d items", n)
	}
	out.Reset()
	if err := ch.run(strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != joinWant(5, 40) {
		t.Fatalf("clean run after a failed one:\n got %s\nwant %s", out.String(), joinWant(5, 40))
	}
}

// TestJoinTextLifetime reruns the two suites above with the buffer's text
// slab in its test mode (256-byte chunks, released text overwritten with
// 0xFF): the site's collected operand aliases Node.Text across the whole
// inner loop, so an operand node purged before its binding ends, or an
// operand kept past a rebind, compares 0xFF bytes and changes the output.
func TestJoinTextLifetime(t *testing.T) {
	defer buffer.SetTextDebug(256)()
	t.Run("WorkCounts", TestJoinWorkCounts)
	t.Run("FailedJoinRetainsNothing", TestFailedJoinRetainsNothing)
}
