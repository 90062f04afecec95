package gcx

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

const cacheTestQuery = `<q>{ for $b in /bib/book return $b/title }</q>`
const cacheTestDoc = `<bib><book><title>a</title></book><book><title>b</title></book></bib>`

func TestCompileCacheHit(t *testing.T) {
	cc := NewCompileCache(8)
	e1, err := cc.Engine(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cc.Engine(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("same query + options must return the identical cached Engine")
	}
	st := cc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 || st.Entries != 1 {
		t.Fatalf("stats after one miss and one hit: %+v", st)
	}
	out, _, err := e2.RunString(cacheTestDoc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "<q><title>a</title><title>b</title></q>" {
		t.Fatalf("cached engine output: %s", out)
	}
}

func TestCompileCacheOptionsAreKeyed(t *testing.T) {
	cc := NewCompileCache(8)
	gcxEng, err := cc.Engine(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	fullEng, err := cc.Engine(cacheTestQuery, WithStrategy(FullBuffer))
	if err != nil {
		t.Fatal(err)
	}
	if gcxEng == fullEng {
		t.Fatal("different strategies must compile distinct engines")
	}
	noEarly, err := cc.Engine(cacheTestQuery, WithoutEarlyUpdates())
	if err != nil {
		t.Fatal(err)
	}
	if noEarly == gcxEng {
		t.Fatal("different static options must compile distinct engines")
	}
	if st := cc.Stats(); st.Compiles != 3 || st.Entries != 3 {
		t.Fatalf("three distinct configurations expected: %+v", st)
	}
	// Same options again: all hits, no new compiles.
	if _, err := cc.Engine(cacheTestQuery, WithStrategy(FullBuffer)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Compiles != 3 {
		t.Fatalf("re-request must not recompile: %+v", st)
	}
}

func TestCompileCacheWorkloadKeyedByOrder(t *testing.T) {
	cc := NewCompileCache(8)
	qs := []string{`<a>{ for $x in /r/a return $x }</a>`, `<b>{ for $x in /r/b return $x }</b>`}
	w1, err := cc.Workload(qs)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cc.Workload(qs)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("identical workload must be served from cache")
	}
	rev, err := cc.Workload([]string{qs[1], qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if rev == w1 {
		t.Fatal("member order is part of the identity of a workload")
	}
}

func TestCompileCacheEviction(t *testing.T) {
	cc := NewCompileCache(2)
	q := func(i int) string {
		return fmt.Sprintf(`<q>{ for $b in /r/e%d return $b }</q>`, i)
	}
	if _, err := cc.Engine(q(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Engine(q(1)); err != nil {
		t.Fatal(err)
	}
	// Touch q0 so q1 is the LRU victim when q2 arrives.
	if _, err := cc.Engine(q(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Engine(q(2)); err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("capacity 2 after 3 distinct queries: %+v", st)
	}
	// q0 must still be cached (it was freshly used), q1 must recompile.
	before := cc.Stats().Compiles
	if _, err := cc.Engine(q(0)); err != nil {
		t.Fatal(err)
	}
	if got := cc.Stats().Compiles; got != before {
		t.Fatalf("recently used entry was evicted: compiles %d -> %d", before, got)
	}
	if _, err := cc.Engine(q(1)); err != nil {
		t.Fatal(err)
	}
	if got := cc.Stats().Compiles; got != before+1 {
		t.Fatalf("LRU entry must have been evicted and recompiled: compiles %d -> %d", before, got)
	}
}

func TestCompileCacheNegativeCaching(t *testing.T) {
	cc := NewCompileCache(8)
	bad := `<q>{ for $b in /bib/book`
	if _, err := cc.Engine(bad); err == nil {
		t.Fatal("malformed query must fail to compile")
	}
	if _, err := cc.Engine(bad); err == nil {
		t.Fatal("cached error must surface again")
	}
	if st := cc.Stats(); st.Compiles != 1 {
		t.Fatalf("a malformed query must cost one compile, not one per request: %+v", st)
	}
}

func TestCompileCacheBadDTDIsNegativeCached(t *testing.T) {
	cc := NewCompileCache(8)
	if _, err := cc.Engine(cacheTestQuery, WithDTD("<!NOT-A-DTD")); err == nil {
		t.Fatal("invalid DTD must fail")
	}
	if _, err := cc.Engine(cacheTestQuery, WithDTD("<!NOT-A-DTD")); err == nil {
		t.Fatal("cached DTD error must surface again")
	}
	// The DTD parses at compile time (not per lookup), so the failure is
	// one cached compile like any other bad input.
	if st := cc.Stats(); st.Compiles != 1 || st.Entries != 1 {
		t.Fatalf("bad DTD must cost one compile: %+v", st)
	}
	// A valid DTD under the same query is a distinct key.
	if _, err := cc.Engine(cacheTestQuery, WithDTD(XMarkDTD)); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Compiles != 2 || st.Entries != 2 {
		t.Fatalf("distinct DTDs must be distinct entries: %+v", st)
	}
}

// TestCompileCacheQueryListCollisionResistance: the workload key must
// distinguish member boundaries even for adversarial texts (a NUL or a
// length-prefix-looking fragment inside a query must not fuse two
// members into one).
func TestCompileCacheQueryListCollisionResistance(t *testing.T) {
	cc := NewCompileCache(16)
	a := "<a>{ for $x in /r/a return $x }</a>"
	b := "<b>{ for $x in /r/b return $x }</b>"
	pairs := [][]string{
		{a, b},
		{a + "\x00" + b},
		{a + "\x00", b},
		{a, "\x00" + b},
	}
	for _, qs := range pairs {
		cc.Workload(qs) // compile errors are fine; only key identity matters
	}
	// The members' Engine entries sit beside them; count the workloads.
	workloads := 0
	for key := range cc.entries {
		if key.workload {
			workloads++
		}
	}
	if workloads != len(pairs) {
		t.Fatalf("4 distinct query lists must produce 4 workload entries, got %d (%+v)", workloads, cc.Stats())
	}
}

// TestCompileCacheSingleFlight: many goroutines requesting the same cold
// key must trigger exactly one compilation.
func TestCompileCacheSingleFlight(t *testing.T) {
	cc := NewCompileCache(8)
	const n = 32
	var wg sync.WaitGroup
	engines := make([]*Engine, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			engines[i], errs[i] = cc.Engine(cacheTestQuery)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if engines[i] != engines[0] {
			t.Fatal("all callers must receive the identical Engine")
		}
	}
	if st := cc.Stats(); st.Compiles != 1 {
		t.Fatalf("concurrent cold requests must coalesce into one compile: %+v", st)
	}
}

// TestCompileCacheConcurrentMixed hammers the cache with a working set
// larger than the capacity while runs execute, to catch races between
// eviction, lookup, and use of evicted-but-held entries.
func TestCompileCacheConcurrentMixed(t *testing.T) {
	cc := NewCompileCache(4)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := fmt.Sprintf(`<q>{ for $b in /r/e%d return $b }</q>`, (w+i)%7)
				eng, err := cc.Engine(q)
				if err != nil {
					t.Error(err)
					return
				}
				doc := `<r><e0>x</e0><e1>x</e1><e2>x</e2><e3>x</e3><e4>x</e4><e5>x</e5><e6>x</e6></r>`
				out, _, err := eng.RunString(doc)
				if err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(out, "x") {
					t.Errorf("unexpected output %q for %q", out, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheHitAllocs: a hit builds no key string — the key is a comparable
// struct, an Engine's query keys itself and a Workload's members are
// joined in the cache's own scratch — so it allocates only the config the
// options are applied to. (An Engine hit was 7 allocations when the key
// was a string concatenated on every lookup.)
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cc := NewCompileCache(8)
	opts := []Option{WithStrategy(StaticOnly), WithDTD("<!ELEMENT bib (book*)>")}
	members := []string{cacheTestQuery, `<t>{ for $b in /bib/book return $b/price }</t>`, `<e>{ /bib/extra }</e>`}
	engine := func() {
		if _, err := cc.Engine(cacheTestQuery, opts...); err != nil {
			t.Fatal(err)
		}
	}
	workload := func() {
		if _, err := cc.Workload(members, opts...); err != nil {
			t.Fatal(err)
		}
	}
	engine() // the misses
	workload()
	if allocs := testing.AllocsPerRun(100, engine); allocs > 1 {
		t.Errorf("CompileCache.Engine hit allocates %.0f, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, workload); allocs > 1 {
		t.Errorf("CompileCache.Workload hit allocates %.0f, want <= 1", allocs)
	}
	// The workload's miss compiled its two members the engine() miss had
	// not: two more Engine entries, misses and compiles.
	if st := cc.Stats(); st.Compiles != 3 || st.Misses != 4 || st.Entries != 4 {
		t.Errorf("stats after the misses and hits only: %+v", st)
	}
}

// TestCachedMembersUnderDTD: a cached Workload and a cache's Registry are
// assembled from members compiled in separate calls, each with its own
// parse of the DTD, while CompileWorkload parses it once for all. Under
// WithDTD the three must still answer alike: same bytes per query and the
// same deterministic stats as CompileWorkload's pass.
func TestCachedMembersUnderDTD(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(64 << 10), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, q := range queries.All() {
		texts = append(texts, q.Text)
	}
	opts := []Option{WithDTD(XMarkDTD)}
	want, wantStats, err := MustCompileWorkload(texts, opts...).RunStrings(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCompileCache(0)
	wl, err := cc.Workload(texts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := wl.RunStrings(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats.Aggregate.Deterministic() != wantStats.Aggregate.Deterministic() {
		t.Fatalf("cached workload under WithDTD differs from CompileWorkload: %+v vs %+v", gotStats.Aggregate, wantStats.Aggregate)
	}
	reg, err := cc.NewRegistry(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range texts {
		reg.MustSubscribe(fmt.Sprint(i), q)
	}
	sink := newBufSink()
	rs, err := reg.Run(strings.NewReader(doc.String()), sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := range texts {
		if sink.get(fmt.Sprint(i)) != want[i] {
			t.Errorf("registry member %d under WithDTD differs from CompileWorkload's", i)
		}
	}
	if rs.Aggregate.Deterministic() != wantStats.Aggregate.Deterministic() {
		t.Errorf("registry pass under WithDTD: %+v, CompileWorkload %+v", rs.Aggregate, wantStats.Aggregate)
	}
	if st := cc.Stats(); st.Compiles != int64(len(texts)) {
		t.Errorf("the registry compiled again what the workload had compiled: %+v", st)
	}
}

// TestCachedWorkloadErrorIsCompileWorkloads: a cached Workload whose
// member fails reports what CompileWorkload reports — the member's index,
// its cause and its source position — and a Registry's Subscribe of that
// text reports it under the subscription's id, from the same cached error.
func TestCachedWorkloadErrorIsCompileWorkloads(t *testing.T) {
	texts := []string{cacheTestQuery, "<q>{ for $b in\n /bib"}
	_, want := CompileWorkload(texts)
	cc := NewCompileCache(8)
	_, got := cc.Workload(texts)
	var wq, gq *QueryError
	if !errors.As(want, &wq) || !errors.As(got, &gq) {
		t.Fatalf("want *QueryError from both, got %v and %v", want, got)
	}
	if got.Error() != want.Error() || *gq != (QueryError{Line: wq.Line, Col: wq.Col, Err: gq.Err}) || wq.Line == 0 {
		t.Fatalf("cached workload error %q (%+v), CompileWorkload %q (%+v)", got, gq, want, wq)
	}
	reg, err := cc.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg.Subscribe("bad", texts[1])
	var sq *QueryError
	if !errors.As(err, &sq) || sq.ID != "bad" || sq.Line != wq.Line || sq.Col != wq.Col {
		t.Fatalf("Subscribe error %v (%+v), want the cached error under id \"bad\"", err, sq)
	}
	if st := cc.Stats(); st.Compiles != 2 {
		t.Fatalf("the failing text compiled again: %+v", st)
	}
}
