package gcx

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"gcx/internal/engine"
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
// struct holding the query it was handed — so it allocates only the config
// the options are applied to, and with no options (gcxd's default) not
// even that. (An Engine hit was 7 allocations when the key was a string
// concatenated on every lookup.)
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name string
		opts []Option
		max  float64
	}{
		{"no options", nil, 0},
		{"options", []Option{WithStrategy(StaticOnly), WithDTD("<!ELEMENT bib (book*)>")}, 1},
	} {
		cc := NewCompileCache(8)
		engine := func() {
			if _, err := cc.Engine(cacheTestQuery, c.opts...); err != nil {
				t.Fatal(err)
			}
		}
		engine() // the miss
		if allocs := testing.AllocsPerRun(100, engine); allocs > c.max {
			t.Errorf("%s: CompileCache.Engine hit allocates %.0f, want <= %.0f", c.name, allocs, c.max)
		}
		if st := cc.Stats(); st.Compiles != 1 || st.Misses != 1 || st.Entries != 1 {
			t.Errorf("%s: stats after the miss and hits only: %+v", c.name, st)
		}
	}
}

// TestCachedMembersUnderDTD: a cache's Registry is assembled from members
// compiled in separate calls, each with its own parse of the DTD, while a
// pass compiled in one go parses it once for all. Under WithDTD the two
// must still answer alike: same bytes per query and the same deterministic
// stats.
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
	cfg, err := compileConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*engine.Compiled, len(texts))
	for i, text := range texts {
		if members[i], err = engine.Compile(text, cfg.engine()); err != nil {
			t.Fatal(err)
		}
	}
	pass, err := engine.NewPass(members)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]strings.Builder, len(texts))
	outs := make([]io.Writer, len(texts))
	for i := range bufs {
		outs[i] = &bufs[i]
	}
	st, _, err := pass.Run(strings.NewReader(doc.String()), outs)
	if err != nil {
		t.Fatal(err)
	}
	want := convertStats(st)
	cc := NewCompileCache(0)
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
		if sink.get(fmt.Sprint(i)) != bufs[i].String() {
			t.Errorf("registry member %d under WithDTD differs from the pass compiled in one go", i)
		}
	}
	if rs.Aggregate.Deterministic() != want.Deterministic() {
		t.Errorf("registry pass under WithDTD: %+v, the pass compiled in one go %+v", rs.Aggregate, want)
	}
	if st := cc.Stats(); st.Compiles != int64(len(texts)) {
		t.Errorf("the registry compiled %d texts, want %d: %+v", st.Compiles, len(texts), st)
	}
}

// TestCachedSubscribeErrorIsCompiles: a Registry's Subscribe of a failing
// text reports what Compile reports — its cause and its source position —
// under the subscription's id, and a second registry of the same cache
// gets it from the cached error without compiling again.
func TestCachedSubscribeErrorIsCompiles(t *testing.T) {
	bad := "<q>{ for $b in\n /bib"
	_, want := Compile(bad)
	var wq *QueryError
	if !errors.As(want, &wq) || wq.Line == 0 {
		t.Fatalf("Compile: want a positioned *QueryError, got %v", want)
	}
	cc := NewCompileCache(8)
	for _, id := range []string{"bad", "again"} {
		reg, err := cc.NewRegistry()
		if err != nil {
			t.Fatal(err)
		}
		_, err = reg.Subscribe(id, bad)
		var sq *QueryError
		if !errors.As(err, &sq) || *sq != (QueryError{ID: id, Line: wq.Line, Col: wq.Col, Err: sq.Err}) || sq.Err.Error() != wq.Err.Error() {
			t.Fatalf("Subscribe error %v (%+v), want Compile's %v under id %q", err, sq, want, id)
		}
	}
	if st := cc.Stats(); st.Compiles != 1 {
		t.Fatalf("the failing text compiled again: %+v", st)
	}
}
