package gcx

// Benchmarks regenerating the paper's evaluation (Table 1) at test scale,
// plus ablation benches for the Section 6 optimizations and pipeline
// micro-benchmarks. The full-size sweep (10-200MB documents, as in the
// paper) is driven by cmd/gcxbench; these benches default to a 2MB
// document so `go test -bench=.` stays laptop-friendly. Set
// GCX_BENCH_MB=10 (or more) to scale up.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

var benchDoc struct {
	once sync.Once
	data []byte
}

func benchDocument(b *testing.B) []byte {
	benchDoc.once.Do(func() {
		mb := 2.0
		if s := os.Getenv("GCX_BENCH_MB"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				mb = v
			}
		}
		var buf bytes.Buffer
		_, err := xmark.Generate(&buf, xmark.Config{
			Factor: xmark.FactorForSize(int64(mb * (1 << 20))),
			Seed:   1,
		})
		if err != nil {
			b.Fatalf("generate: %v", err)
		}
		benchDoc.data = buf.Bytes()
	})
	return benchDoc.data
}

func runBench(b *testing.B, query string, opts ...Option) {
	doc := benchDocument(b)
	eng, err := Compile(query, opts...)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	var peakNodes, peakBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Run(bytes.NewReader(doc), io.Discard)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		peakNodes, peakBytes = st.PeakBufferNodes, st.PeakBufferBytes
	}
	b.ReportMetric(float64(peakBytes)/1024, "peakKB")
	b.ReportMetric(float64(peakNodes), "peakNodes")
}

// BenchmarkTable1 regenerates the paper's Table 1: every XMark query under
// every engine. Reported metrics: throughput (MB/s of input), wall time
// per evaluation, and the buffer high watermark (peakKB / peakNodes — the
// paper's memory column).
func BenchmarkTable1(b *testing.B) {
	for _, q := range queries.All() {
		for _, s := range []Strategy{GCX, StaticOnly, FullBuffer} {
			b.Run(fmt.Sprintf("%s/%s", q.Name, s), func(b *testing.B) {
				runBench(b, q.Text, WithStrategy(s))
			})
		}
	}
}

// BenchmarkAblation isolates the Section 6 optimizations on Q1 and Q13
// (the design choices DESIGN.md calls out): early updates, aggregate
// roles, redundant-role elimination.
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"AllOptimizations", nil},
		{"NoEarlyUpdates", []Option{WithoutEarlyUpdates()}},
		{"NoAggregateRoles", []Option{WithoutAggregateRoles()}},
		{"NoRoleElimination", []Option{WithoutRedundantRoleElimination()}},
		{"BaseTechnique", []Option{WithoutOptimizations()}},
	}
	for _, q := range []queries.Query{queries.Q1, queries.Q13} {
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%s", q.Name, c.name), func(b *testing.B) {
				runBench(b, q.Text, c.opts...)
			})
		}
	}
}

// BenchmarkParallelRuns exercises the serving scenario: many goroutines
// sharing one compiled Engine, each run drawing a recycled run state from
// the engine's pool. allocs/op is the headline number — after warm-up it
// must stay near the per-run floor (text copies into the buffer), not
// scale with the runtime structures.
func BenchmarkParallelRuns(b *testing.B) {
	doc := benchDocument(b)
	eng, err := Compile(queries.Q1.Text)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	// Warm the pool before measuring.
	if _, err := eng.Run(bytes.NewReader(doc), io.Discard); err != nil {
		b.Fatalf("warm-up run: %v", err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := bytes.NewReader(doc)
		for pb.Next() {
			r.Reset(doc)
			if _, err := eng.Run(r, io.Discard); err != nil {
				b.Errorf("run: %v", err)
				return
			}
		}
	})
}

// BenchmarkRegistryFleet is the registry-fleet workload of BENCHMARK.json
// as a go test benchmark: 1000 subscriptions over 64 distinct texts and a
// 128 KB document, output discarded. The shared row is one Registry.Run
// per iteration; allocs/op and B/op are its headline: a warm pass
// allocates the result slice it returns (about 5 KB at 64 texts) and
// nothing per member or per subscriber. The solo-passes row is what "one
// automaton per subscription" literally means — the same 1000
// subscriptions as 1000 solo passes per document, no dedup, no shared
// scan — and holds the shared row at 5× its speed or better (reported as
// x-shared; measured ≈ 80×, so the floor is far from the wall clock's
// noise).
func BenchmarkRegistryFleet(b *testing.B) { benchFleet(b, 1000) }

// BenchmarkFleet10k is BenchmarkRegistryFleet at 10,000 subscriptions,
// the scale the subscription registry exists for. Its solo-passes row
// costs seconds per iteration, so CI does not run it:
//
//	go test -run xxx -bench BenchmarkFleet10k -benchtime 3x .
func BenchmarkFleet10k(b *testing.B) { benchFleet(b, 10000) }

func benchFleet(b *testing.B, subs int) {
	var buf bytes.Buffer
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(128 << 10), Seed: 1}); err != nil {
		b.Fatalf("generate: %v", err)
	}
	doc := buf.Bytes()
	texts := queries.Variants(64)
	r := bytes.NewReader(doc)

	var sharedNsPerOp float64
	b.Run("shared", func(b *testing.B) {
		reg := MustNewRegistry()
		for i := 0; i < subs; i++ {
			reg.MustSubscribe(fmt.Sprintf("sub-%d", i), texts[i%len(texts)])
		}
		pass := func() {
			r.Reset(doc)
			if _, err := reg.Run(r, DiscardSink); err != nil {
				b.Fatalf("run: %v", err)
			}
		}
		pass() // warm the pools
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		sharedNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("solo-passes", func(b *testing.B) {
		// Subscribers of one text share its compiled engine (and so its
		// run-state pool) but nothing else: every pass scans, projects
		// and evaluates the document on its own.
		engines := make([]*Engine, len(texts))
		for i, text := range texts {
			engines[i] = MustCompile(text)
		}
		passes := func() {
			for i := 0; i < subs; i++ {
				r.Reset(doc)
				if _, err := engines[i%len(engines)].Run(r, io.Discard); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		}
		passes() // warm the pools
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			passes()
		}
		if sharedNsPerOp == 0 {
			return // -bench selected this row without the shared one
		}
		speedup := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / sharedNsPerOp
		b.ReportMetric(speedup, "x-shared")
		if speedup < 5 {
			b.Errorf("the shared pass is %.1fx %d solo passes, floor 5x: the merged automaton no longer amortizes overlapping subscriptions", speedup, subs)
		}
	})
}

// BenchmarkBulkCorpus is the bulk-corpus workload of BENCHMARK.json as a
// go test benchmark: Engine.Bulk of Q6 over 256 concatenated 32 KB
// documents, two workers, output discarded. allocs/op is the headline: a
// warm call allocates its goroutines, its source and one string per 128
// document names — 8 in all; the runner (slots, channels, ring) and the
// splitter's window come from pools.
func BenchmarkBulkCorpus(b *testing.B) {
	var body bytes.Buffer
	for i := 0; i < 256; i++ {
		if _, err := xmark.Generate(&body, xmark.Config{Factor: xmark.FactorForSize(32 << 10), Seed: uint64(1 + i)}); err != nil {
			b.Fatalf("generate: %v", err)
		}
	}
	eng := MustCompile(queries.Q6.Text)
	r := bytes.NewReader(body.Bytes())
	run := func() {
		r.Reset(body.Bytes())
		bs, err := eng.Bulk(CorpusConcat(r), BulkOptions{Workers: 2}, nil)
		if err != nil || bs.Docs != 256 || bs.Failed != 0 {
			b.Fatalf("bulk: %+v, %v", bs, err)
		}
	}
	run() // warm the pools
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCompile measures query compilation (parse, normalize, rewrite,
// static analysis) — a per-query one-time cost.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(queries.Q8.Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectionOnly isolates the stream pre-projector: a query whose
// output is empty on the data still forces full projection work.
func BenchmarkProjectionOnly(b *testing.B) {
	// No person has the id "no-such-person": the run touches every people
	// token but produces no output.
	runBench(b, `<q>{ for $p in /site/people/person return
	  if ($p/id = "no-such-person") then $p/name else () }</q>`)
}

// BenchmarkSchema compares plain GCX with schema-aware early termination
// (GCX + the XMark DTD): results are identical, but the DTD lets cursors
// stop reading once their region is provably complete.
func BenchmarkSchema(b *testing.B) {
	for _, q := range []queries.Query{queries.Q1, queries.Q13} {
		b.Run(q.Name+"/GCX", func(b *testing.B) {
			runBench(b, q.Text)
		})
		b.Run(q.Name+"/GCX+DTD", func(b *testing.B) {
			runBench(b, q.Text, WithDTD(XMarkDTD))
		})
	}
}

// BenchmarkDeepNesting is the depth pathology: one chain of <a> elements
// under <site>, copied whole (`for $s in /site return $s`) and selected
// at every level (`//a`), each inside a result constructor. Time grows about 4x per doubling of depth —
// ancestor walks (Covered, Pin/Unpin, AddRole/removeRole, the
// projector's covered check) and the cursor's document-order step are
// each linear in the depth, and each runs once per level. ROADMAP item 10
// (bookkeeping that does not grow with depth) is the fix this case must
// answer; reproduce the curve with
// `go test -run '^$' -bench DeepNesting -benchtime 1x .`.
func BenchmarkDeepNesting(b *testing.B) {
	for _, q := range []struct{ name, text string }{
		{"copy", `<r>{ for $s in /site return $s }</r>`},
		{"descendant", `<r>{ //a }</r>`},
	} {
		eng := MustCompile(q.text)
		for _, depth := range []int{2500, 5000, 10000} {
			doc := "<site>" + strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth) + "</site>"
			b.Run(fmt.Sprintf("%s/depth=%d", q.name, depth), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				r := strings.NewReader(doc)
				for i := 0; i < b.N; i++ {
					r.Reset(doc)
					if _, err := eng.Run(r, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
