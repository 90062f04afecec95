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
// as a go test benchmark: 1000 subscriptions over 64 distinct texts, one
// shared pass per iteration over a 128 KB document, output discarded.
// allocs/op and B/op are the headline: a warm pass allocates the result
// slice it returns (about 5 KB at 64 texts) and nothing per member or per
// subscriber.
func BenchmarkRegistryFleet(b *testing.B) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(128 << 10), Seed: 1}); err != nil {
		b.Fatalf("generate: %v", err)
	}
	reg := MustNewRegistry()
	texts := queries.Variants(64)
	for i := 0; i < 1000; i++ {
		reg.MustSubscribe(fmt.Sprintf("sub-%d", i), texts[i%len(texts)])
	}
	r := bytes.NewReader(doc.Bytes())
	// Warm the pools before measuring.
	if _, err := reg.Run(r, DiscardSink); err != nil {
		b.Fatalf("warm-up run: %v", err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(doc.Bytes())
		if _, err := reg.Run(r, DiscardSink); err != nil {
			b.Fatalf("run: %v", err)
		}
	}
}

// BenchmarkBulkCorpus is the bulk-corpus workload of BENCHMARK.json as a
// go test benchmark: Engine.Bulk of Q6 over 256 concatenated 32 KB
// documents, two workers, output discarded. allocs/op is the headline: a
// warm call allocates its slots, channels and goroutines once and then one
// name string per document — nothing else per document, and no splitter
// window.
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
