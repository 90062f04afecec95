package gcx

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gcx/internal/engine"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// Alloc-regression guards for the pooled run state: a compiled Engine
// recycles its tokenizer, buffer arena, projector, evaluator, and writer
// through a sync.Pool, so repeated runs must not rebuild the runtime.
// Before pooling, the evaluation below cost ~2700 allocs/run; the bounds
// here are far below that and catch any reintroduced per-run or
// per-element allocation.

func allocTestDoc(books int, withPrice bool) string {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < books; i++ {
		doc.WriteString("<book><title>T</title>")
		if withPrice || i%2 == 0 {
			doc.WriteString("<price>5</price>")
		}
		doc.WriteString("</book>")
	}
	doc.WriteString("</bib>")
	return doc.String()
}

// warmAllocs reports the allocations of one eng.Run over data on a warm
// pool, averaged over runs.
func warmAllocs(t *testing.T, eng *Engine, data string, runs int) float64 {
	t.Helper()
	r := strings.NewReader(data)
	run := func() {
		r.Reset(data)
		if _, err := eng.Run(r, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool at this size
	return testing.AllocsPerRun(runs, run)
}

// TestSteadyStateAllocsStructural: a query that buffers only structure
// (existence witnesses, no text serialization) must run allocation-free
// once the pool is warm — the paper's engine as a zero-garbage server. So
// must Q6 over an XMark document: its descendant step makes every matched
// frame a scope frame, which links the next one up and copies nothing.
func TestSteadyStateAllocsStructural(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var site bytes.Buffer
	if _, err := xmark.Generate(&site, xmark.Config{Factor: xmark.FactorForSize(32 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, query, data string }{
		{"exists", `<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then <hit/> else ()
	}</out>`, allocTestDoc(100, false)},
		{"Q6", queries.Q6.Text, site.String()},
	} {
		// Measured 0: the run's last allocation was the root constructor
		// boxed into an xqast.Expr (32 B) at every Evaluator.Run.
		if allocs := warmAllocs(t, MustCompile(c.query), c.data, 30); allocs > 0 {
			t.Errorf("%s: structural steady-state run allocates: %.1f allocs/run, want 0", c.name, allocs)
		}
	}
}

// goroutineProbe records the goroutine count seen from inside the output
// path of a run.
type goroutineProbe struct{ seen int }

func (p *goroutineProbe) Write(b []byte) (int, error) {
	p.seen = max(p.seen, runtime.NumGoroutine())
	return len(b), nil
}

// TestOneMemberWorkloadIsTheSoloEngine: a Registry of one subscription
// runs the solo wiring — the evaluator pulls the projector on the caller's
// goroutine, nothing is scheduled — so over the structural query above it
// reports the solo run's stats exactly, starts no goroutine, and a warm run
// allocates only the stats slice it returns.
func TestOneMemberWorkloadIsTheSoloEngine(t *testing.T) {
	const query = `<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then <hit/> else ()
	}</out>`
	data := allocTestDoc(100, false)
	want, solo, err := MustCompile(query).RunString(data)
	if err != nil {
		t.Fatal(err)
	}

	reg := MustNewRegistry()
	reg.MustSubscribe("only", query)
	sink := newBufSink()
	rs, err := reg.Run(strings.NewReader(data), sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.get("only") != want || rs.Aggregate.Deterministic() != solo.Deterministic() {
		t.Fatalf("one-subscription registry differs from solo:\n got %+v\nwant %+v", rs.Aggregate, solo)
	}

	probe := &goroutineProbe{}
	before := runtime.NumGoroutine()
	if _, err := reg.Run(strings.NewReader(data), SinkFunc(func(*Subscription) io.Writer { return probe })); err != nil {
		t.Fatal(err)
	}
	// (> and not !=: a goroutine left over from an earlier test may exit.)
	if probe.seen > before {
		t.Fatalf("one-member run saw %d goroutines from its output writer, caller had %d: the member was scheduled, not run inline", probe.seen, before)
	}

	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}
	r := strings.NewReader(data)
	discard := SinkFunc(func(*Subscription) io.Writer { return io.Discard })
	run := func() {
		r.Reset(data)
		if _, err := reg.Run(r, discard); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	// The scheduled form of this run cost 7 allocs (goroutine, baton
	// bookkeeping); inline it costs 1: the per-member stats slice, built
	// once in the shape the caller receives.
	if allocs := testing.AllocsPerRun(30, run); allocs > 1 {
		t.Fatalf("one-subscription registry run allocates: %.1f allocs/run, want <= 1", allocs)
	}
}

// TestSteadyStateAllocsWithOutput: serializing buffered text copies it
// out of the tokenizer's window into the buffer's own text slab, whose
// chunks a warm run already has — so a run that buffers a hundred texts
// allocates no more than one that buffers none.
func TestSteadyStateAllocsWithOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng := MustCompile(`<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then $b/title else ()
	}</out>`)
	if allocs := warmAllocs(t, eng, allocTestDoc(100, true), 30); allocs > 4 {
		t.Fatalf("output steady-state run allocates: %.1f allocs/run, want <= 4", allocs)
	}
}

// TestCopySteadyStateAllocs: the copy-shaped query buffers, serializes and
// purges every node of every item — the buffer's write use, gcxd-copy's
// shape. Text and nodes both come from what the warm buffer already owns
// and purges hand back, so a warm run allocates the same few objects
// whether the document has a hundred items or two thousand.
func TestCopySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng := MustCompile(`<out>{ for $i in /bib/book return $i }</out>`)
	small := warmAllocs(t, eng, allocTestDoc(100, true), 10)
	large := warmAllocs(t, eng, allocTestDoc(2000, true), 10)
	if small != large || large > 4 {
		t.Fatalf("copy run allocations: %.1f allocs/run at 100 items, %.1f at 2000; want equal and <= 4", small, large)
	}
}

// allocTestTexts builds n distinct query texts over allocTestDoc: four
// shapes, each in a per-index result element.
func allocTestTexts(n int) []string {
	shapes := []string{
		`for $b in /bib/book return $b/title`,
		`for $b in /bib/book return $b/price`,
		`for $b in /bib/book return if (exists($b/price)) then $b/title else ()`,
		`for $b in /bib/book return if (exists($b/price)) then <hit/> else ()`,
	}
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("<v%d>{ %s }</v%d>", i, shapes[i%len(shapes)], i)
	}
	return texts
}

// TestRegistryRunAllocsDoNotScaleWithSubscriptions: a warm pass allocates
// per run, not per member and not per subscriber. The fan-out wiring is
// the snapshot's, the scheduler's worklist and the members' goroutine
// entry points are the run state's, a clean pass records "no error" on
// every subscription without storing, and the per-text stats are built
// once, in the slice the caller receives — the one allocation that
// remains, whether the registry holds 8 texts or 64, a hundred
// subscriptions or a thousand. At 64 texts and 1000 subscriptions this was
// 134 allocations a pass.
func TestRegistryRunAllocsDoNotScaleWithSubscriptions(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data := allocTestDoc(50, false)
	measure := func(texts, subs int) float64 {
		reg := MustNewRegistry()
		for i, text := range allocTestTexts(texts) {
			for j := i; j < subs; j += texts {
				reg.MustSubscribe(fmt.Sprintf("s%d", j), text)
			}
		}
		r := strings.NewReader(data)
		run := func() {
			r.Reset(data)
			if _, err := reg.Run(r, DiscardSink); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		return testing.AllocsPerRun(10, run)
	}
	base := measure(8, 100)
	for _, c := range []struct{ texts, subs int }{{8, 1000}, {64, 100}, {64, 1000}} {
		got := measure(c.texts, c.subs)
		if got-base > 2 || base-got > 2 || got > 6 {
			t.Errorf("registry pass over %d texts x %d subscriptions: %.0f allocs/run; want within 2 of the %.0f at 8 x 100, and <= 6",
				c.texts, c.subs, got, base)
		}
	}
}

// TestWorkloadRunAllocsDoNotScaleWithMembers: the same for a pass of 64
// members with one subscriber each, every one written (140 allocations
// before: a goroutine closure and a boxed root constructor per member, the
// worklist, two stats slices).
func TestWorkloadRunAllocsDoNotScaleWithMembers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := subscribeAll(t, allocTestTexts(64))
	data := allocTestDoc(50, false)
	sink := SinkFunc(func(*Subscription) io.Writer { return io.Discard })
	r := strings.NewReader(data)
	run := func() {
		r.Reset(data)
		if _, err := reg.Run(r, sink); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(10, run); allocs > 4 {
		t.Fatalf("64-member registry run allocates: %.0f allocs/run, want <= 4", allocs)
	}
}

// joinTestDoc has p persons and t closed auctions, auction j bought by
// person j mod p: Q8's two regions at a chosen size.
func joinTestDoc(p, t int) string {
	var doc strings.Builder
	doc.WriteString("<site><people>")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&doc, "<person><id>person%d</id><name>n%d</name></person>", i, i)
	}
	doc.WriteString("</people><closed_auctions>")
	for j := 0; j < t; j++ {
		fmt.Fprintf(&doc, "<closed_auction><buyer>person%d</buyer></closed_auction>", j%p)
	}
	doc.WriteString("</closed_auctions></site>")
	return doc.String()
}

// joinTestQuery is Q8's join over joinTestDoc's two regions.
const joinTestQuery = `<out>{
    for $p in /site/people/person return
        <item>{ ($p/name,
            for $t in /site/closed_auctions/closed_auction return
                if ($t/buyer = $p/id) then <bought/> else ()) }</item>
}</out>`

// TestJoinSteadyStateAllocs: a value join builds its probe table once, in
// arrays the pooled evaluator keeps, then probes and re-checks per person,
// and none of that may allocate on a warm run; nor does buffering the
// text the document makes it keep (one id and one name per person, one
// buyer per auction), which goes into the buffer's slab. Going from 500 to
// 50 000 pairs — and from 70 to 700 buffered texts — may therefore add
// next to nothing; when every comparison of non-numeric ids built two
// error values, it added two hundred thousand.
func TestJoinSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng := MustCompile(joinTestQuery)
	small := warmAllocs(t, eng, joinTestDoc(10, 50), 5)
	large := warmAllocs(t, eng, joinTestDoc(100, 500), 5)
	if large-small > 16 {
		t.Fatalf("join allocations grow with the pair count: %.0f allocs/run at 500 pairs, %.0f at 50000",
			small, large)
	}
}

// coldAllocs is what one cold run costs: its allocations and their
// bytes, its buffer's peak, and the slabs (of nodes and of their lists'
// blocks) and text chunks the peak took, which are what a larger
// document may add.
type coldAllocs struct {
	mallocs uint64
	bytes   uint64
	peak    int64
	slabs   int64
	chunks  int64
}

// leastColdAllocs measures three cold runs and keeps the cheapest. cold
// prepares one, unmeasured (a fresh engine, or a pool drained by the
// collector), and returns it; the run must build its run state from
// nothing and report the buffer's stats. The collector is off during each
// run: one that empties a sync.Pool mid-run would charge the refill to
// the document size. The runs use one P: the runtime reuses a finished
// goroutine only from the P it finished on, which made the count of a
// pass whose members finished on other Ps vary by up to 40. The least of three drops what a goroutine or timer
// of the test binary happens to allocate during one of them.
func leastColdAllocs(t *testing.T, cold func() func() engine.Stats) coldAllocs {
	t.Helper()
	const chunkBytes = 32 << 10 // the buffer's text chunk
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var best coldAllocs
	for i := range 3 {
		run := cold()
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		st := run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		c := coldAllocs{
			mallocs: after.Mallocs - before.Mallocs,
			bytes:   after.TotalAlloc - before.TotalAlloc,
			peak:    st.Buffer.PeakNodes,
			slabs:   st.Buffer.Slabs,
			chunks:  (st.Buffer.TextPeakHeldBytes + chunkBytes - 1) / chunkBytes,
		}
		if i == 0 || c.mallocs < best.mallocs {
			best = c
		}
	}
	return best
}

// checkColdGrowth measures a cold run over the seed-1 XMark document of
// each size and requires every run over a larger document to allocate no
// more than the run over the first one, plus the slabs and chunks its
// peak adds, plus a little growth of slices that double. It returns the
// measurements, in the order of sizes.
func checkColdGrowth(t *testing.T, name string, sizes []int64, measure func(doc []byte) coldAllocs) []coldAllocs {
	t.Helper()
	cs := make([]coldAllocs, len(sizes))
	for i, size := range sizes {
		var doc bytes.Buffer
		if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(size), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		cs[i] = measure(doc.Bytes())
		t.Logf("cold %s over %d KB: %d allocs, %.2f MB, %d peak nodes, %d slabs",
			name, size>>10, cs[i].mallocs, float64(cs[i].bytes)/(1<<20), cs[i].peak, cs[i].slabs)
	}
	small := cs[0]
	for _, large := range cs[1:] {
		if large.peak < 3*small.peak {
			t.Fatalf("sanity: peaks %d and %d nodes, want the larger document to buffer at least 3x more", small.peak, large.peak)
		}
		bound := uint64(large.slabs-small.slabs+large.chunks-small.chunks) + 16
		if large.mallocs > small.mallocs+bound {
			t.Errorf("cold %s allocations grow with buffered nodes: %d allocs at %d peak nodes, %d at %d (+%d, want <= %d)",
				name, small.mallocs, small.peak, large.mallocs, large.peak, large.mallocs-small.mallocs, bound)
		}
	}
	return cs
}

// TestColdRunAllocsDoNotScaleWithBufferedNodes: a run that builds its run
// state cold — an engine's first run, or any run after the GC drained the
// pool — allocates per slab and per text chunk, never per buffered node:
// a node's role entries beyond the first and its schema facts live in
// blocks of buffer-owned slabs, not in slices of their own. Q8 over 64 KB,
// 512 KB and 2 MB buffers some hundred, some thousand and some four
// thousand nodes; the first runs of fresh engines may differ by the slabs
// and chunks the larger documents add, plus a little growth of slices
// that double. Each size is the least of three engines: one run in eight
// of the whole suite used to see a few allocations more than the bound
// in a single one.
func TestColdRunAllocsDoNotScaleWithBufferedNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	checkColdGrowth(t, "Q8", []int64{64 << 10, 512 << 10, 2 << 20}, func(doc []byte) coldAllocs {
		return leastColdAllocs(t, func() func() engine.Stats {
			eng := MustCompile(queries.Q8.Text)
			return func() engine.Stats {
				st, err := eng.c.Run(bytes.NewReader(doc), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		})
	})
}

// TestColdPassAllocsDoNotScaleWithBufferedNodes is the multi-member twin
// of the Q8 test: the registry-fleet pass (64 texts, 1000 subscriptions)
// over XMark, its pool drained by the collector before each run. Its
// nodes carry roles of several members, so most have overflow role
// entries; those, and every member's evaluator, writer, task and cursors,
// come from slabs, blocks and one slice per kind, and a join's probe
// table is sized by its region before it is filled. At 128 KB the cold
// pass measured 2,870 allocations when each of those was an allocation of
// its own, or a slice that doubled (5,717 at 512 KB, 16,937 at 2 MB);
// 322 with them carved (337 and 377).
func TestColdPassAllocsDoNotScaleWithBufferedNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	texts := queries.Variants(64)
	reg := MustNewRegistry()
	for j := range 1000 {
		reg.MustSubscribe(fmt.Sprintf("s%d", j), texts[j%len(texts)])
	}
	cs := checkColdGrowth(t, "fleet pass", []int64{128 << 10, 512 << 10, 2 << 20}, func(doc []byte) coldAllocs {
		if _, err := reg.Run(bytes.NewReader(doc), DiscardSink); err != nil {
			t.Fatal(err) // builds the snapshot, which is not what is measured
		}
		snap, err := reg.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]io.Writer, snap.pass.Len())
		for i := range outs {
			outs[i] = io.Discard
		}
		st, _, err := snap.pass.Run(bytes.NewReader(doc), outs)
		if err != nil {
			t.Fatal(err)
		}
		return leastColdAllocs(t, func() func() engine.Stats {
			for range 3 { // the pool keeps a victim generation
				runtime.GC()
			}
			return func() engine.Stats {
				if _, err := reg.Run(bytes.NewReader(doc), DiscardSink); err != nil {
					t.Fatal(err)
				}
				return st
			}
		})
	})
	if cs[0].mallocs > 800 {
		t.Errorf("cold fleet pass over 128 KB: %d allocs, want <= 800", cs[0].mallocs)
	}
}

// TestPooledRunsDeterministic: recycled run state must not leak between
// runs — repeated and interleaved runs of one Engine produce identical
// output and stats.
func TestPooledRunsDeterministic(t *testing.T) {
	eng := MustCompile(`<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then $b/title else ()
	}</out>`)
	docA := allocTestDoc(50, true)
	docB := allocTestDoc(31, false)

	outA, statsA, err := eng.RunString(docA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		gotB, _, err := eng.RunString(docB)
		if err != nil {
			t.Fatal(err)
		}
		gotA, stats, err := eng.RunString(docA)
		if err != nil {
			t.Fatal(err)
		}
		if gotA != outA {
			t.Fatalf("run %d: output drift:\n got  %q\n want %q", i, gotA, outA)
		}
		// Wall-clock fields differ run to run by nature; everything else
		// must be bit-identical.
		if stats.Deterministic() != statsA.Deterministic() {
			t.Fatalf("run %d: stats drift:\n got  %+v\n want %+v", i, stats, statsA)
		}
		_ = gotB
	}
}

// BenchmarkGCXWarmPool reports the steady-state cost of one evaluation on
// a warm pool (the serving hot path).
func BenchmarkGCXWarmPool(b *testing.B) {
	eng := MustCompile(`<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then $b/title else ()
	}</out>`)
	data := []byte(allocTestDoc(100, true))
	r := bytes.NewReader(data)
	if _, err := eng.Run(r, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if _, err := eng.Run(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkAllocsPerDocument: the bulk pipeline evaluates each document in
// a slot it recycles — result, reader, output buffers, and a registry's
// per-text stats slice — and a split stream names its documents 128 to a
// string, so a document adds 1/128 of an allocation to a run and nothing
// else. The marginal cost is measured between a 64- and a 512-document
// corpus, which cancels the per-call constant (TestBulkAllocsPerCall).
// What the pipeline does not own is measured beside it and allowed on
// top: archive/tar's header per member (the member's name among it). It
// was about 7 allocations a document, then 1 (the name) on an engine and
// 2 on a registry.
func TestBulkAllocsPerDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(8 << 10), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	concatOf := func(n int) []byte { return bytes.Repeat(doc.Bytes(), n) }
	tarOf := func(n int) []byte {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for i := 0; i < n; i++ {
			if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("d%03d.xml", i), Mode: 0o644, Size: int64(doc.Len())}); err != nil {
				t.Fatal(err)
			}
			tw.Write(doc.Bytes())
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	eng := MustCompile(queries.Q6.Text)
	reg := subscribeAll(t, []string{queries.Q1.Text, queries.Q6.Text, queries.Q13.Text})
	opts := BulkOptions{Workers: 2}
	var r bytes.Reader
	check := func(n int, bs BulkStats, err error) {
		if err != nil || bs.Docs != int64(n) || bs.Failed != 0 {
			t.Fatalf("bulk over %d documents: %+v, %v", n, bs, err)
		}
	}

	// perDoc is what one more document costs run(n, corpus of n documents).
	perDoc := func(corpusOf func(int) []byte, run func(n int, data []byte)) float64 {
		allocs := func(n int) float64 {
			data := corpusOf(n)
			// The least of several runs: a collection that empties a pool
			// mid-run only ever adds allocations (a rebuilt run state is a
			// few thousand), and each AllocsPerRun warms before it measures.
			least := math.Inf(1)
			for i := 0; i < 5; i++ {
				least = min(least, testing.AllocsPerRun(1, func() { run(n, data) }))
			}
			return least
		}
		return (allocs(512) - allocs(64)) / 448
	}
	tarAlone := perDoc(tarOf, func(n int, data []byte) {
		r.Reset(data)
		for tr := tar.NewReader(&r); ; {
			if _, err := tr.Next(); err != nil {
				return
			}
			io.Copy(io.Discard, tr)
		}
	})
	for _, c := range []struct {
		name     string
		corpusOf func(int) []byte
		run      func(n int, data []byte)
		notOurs  float64
	}{
		{"engine/concat", concatOf, func(n int, data []byte) {
			r.Reset(data)
			bs, err := eng.Bulk(CorpusConcat(&r), opts, nil)
			check(n, bs, err)
		}, 0},
		{"engine/tar", tarOf, func(n int, data []byte) {
			r.Reset(data)
			bs, err := eng.Bulk(CorpusTar(&r), opts, nil)
			check(n, bs, err)
		}, tarAlone},
		{"registry/concat", concatOf, func(n int, data []byte) {
			r.Reset(data)
			bs, err := reg.Bulk(CorpusConcat(&r), opts, nil)
			check(n, bs, err)
		}, 0},
	} {
		got := perDoc(c.corpusOf, c.run)
		t.Logf("%s: %.2f allocs per document, %.2f of them not the pipeline's", c.name, got, c.notOurs)
		if got-c.notOurs > 0.05 {
			t.Errorf("%s: one more document costs %.2f allocations beyond the %.2f its source makes; want <= 0.05",
				c.name, got-c.notOurs, c.notOurs)
		}
	}
}

// TestBulkAllocsPerCall: what a warm bulk call costs besides its
// documents — the runner's three goroutines (two workers), the eval
// closure it holds, the source and its splitter, and one block of
// split-document names: 7 allocations. The
// runner itself (slots, output buffers, channels, ring, counters) comes
// from a pool keyed by window and outputs, so it is not rebuilt per call.
// It was 29 allocations.
func TestBulkAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(8 << 10), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	eng := MustCompile(queries.Q6.Text)
	var r bytes.Reader
	run := func() {
		r.Reset(doc.Bytes())
		bs, err := eng.Bulk(CorpusConcat(&r), BulkOptions{Workers: 2}, nil)
		if err != nil || bs.Docs != 1 || bs.Failed != 0 {
			t.Fatalf("bulk: %+v, %v", bs, err)
		}
	}
	// The least of several runs, as in TestBulkAllocsPerDocument: a
	// collection that empties a pool mid-run only ever adds allocations.
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = min(least, testing.AllocsPerRun(20, run))
	}
	t.Logf("a one-document Engine.Bulk call: %.2f allocations", least)
	if least > 12 {
		t.Errorf("a warm one-document Engine.Bulk call costs %.2f allocations; want <= 12", least)
	}
}
