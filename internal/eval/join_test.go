package eval_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/engine"
	"gcx/internal/eval"
	"gcx/internal/proj"
	"gcx/internal/xmlstream"
)

// chain is the Figure 11 chain as engine.newRunState wires it for a solo
// query, built by hand so the test holds the evaluator (whose counters
// export_test.go exposes).
type chain struct {
	c   *engine.Compiled
	tok *xmlstream.Tokenizer
	buf *buffer.Buffer
	pr  *proj.Projector
	w   *xmlstream.Writer
	ev  *eval.Evaluator
}

func newChain(t *testing.T, query string) *chain {
	t.Helper()
	c, err := engine.Compile(query, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	roles := c.MatchTree.Roles
	agg := make([]bool, len(roles))
	for i, r := range roles {
		agg[i] = i > 0 && r.Aggregate
	}
	ch := &chain{c: c}
	ch.buf = buffer.New(xmlstream.NewSymTab(), len(roles)-1, agg)
	ch.tok = xmlstream.NewTokenizer(nil)
	ch.pr = proj.New(ch.tok, ch.buf, c.MatchTree, proj.Options{AggregateRoles: c.Analysis.Opts.AggregateRoles})
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
	ch.ev.Reset(eval.Options{ExecuteSignOffs: true})
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
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<person><id>person%d</id><name>n%d</name></person>", i, i)
	}
	b.WriteString("</people><closed_auctions>")
	for j := 0; j < t; j++ {
		fmt.Fprintf(&b, "<closed_auction><buyer>person%d</buyer><price>%d</price></closed_auction>", j%p, j)
	}
	b.WriteString("</closed_auctions></site>")
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

// TestJoinWorkCounts pins the join's deterministic work: one comparison
// per pair (the algorithm's cost, unchanged), the invariant operand
// collected once per outer binding (it was once per pair), and no tag
// name hashed after the run's start (it was one per visited node).
func TestJoinWorkCounts(t *testing.T) {
	ch := newChain(t, joinQuery)
	vocab := int64(len(ch.c.Analysis.Query.Names))
	if vocab == 0 {
		t.Fatal("resolved query has an empty vocabulary")
	}
	for _, size := range [][2]int{{7, 13}, {20, 50}, {3, 1}} {
		p, tt := size[0], size[1]
		var out strings.Builder
		if err := ch.run(strings.NewReader(joinDoc(p, tt)), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != joinWant(p, tt) {
			t.Fatalf("%d×%d: output\n got %s\nwant %s", p, tt, out.String(), joinWant(p, tt))
		}
		got := ch.ev.Work()
		want := eval.Work{Compares: int64(p * tt), Collections: int64(p), NameLookups: vocab}
		if got != want {
			t.Errorf("%d×%d: work %+v, want %+v", p, tt, got, want)
		}
	}
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
// operand collected, comparison active, both variables bound — leaves the
// evaluator holding nothing of the document, and the next run on the same
// state is clean.
func TestFailedJoinRetainsNothing(t *testing.T) {
	ch := newChain(t, joinQuery)
	doc := joinDoc(5, 40)
	if err := ch.run(strings.NewReader(doc), io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := ch.ev.Retained(); n != 0 {
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
	if n := ch.ev.Retained(); n != 0 {
		t.Fatalf("after a failed run the evaluator retains %d items", n)
	}
	var out strings.Builder
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
