package gcx

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// TestBufferPeakOrdering is the paper's memory claim as a regression
// test (the Fig. 13/14 shape): for every catalog query and document
// size, the buffer high watermark must respect
//
//	peak(GCX) ≤ peak(StaticOnly) ≤ peak(FullBuffer)
//
// — dynamic garbage collection can only shrink what projection buffered,
// and projection can only shrink what full buffering would keep. On the
// join-free queries GCX must additionally beat FullBuffer STRICTLY:
// streaming them in constant memory is the whole point of the technique.
// Any future performance PR that silently breaks these inequalities
// fails `go test ./...`.
func TestBufferPeakOrdering(t *testing.T) {
	for _, size := range orderingDocSizes {
		doc := orderingDoc(t, size)
		t.Run(fmt.Sprintf("%dKB", size>>10), func(t *testing.T) {
			for _, q := range queries.AllIncludingExtended() {
				t.Run(q.Name, func(t *testing.T) {
					peaks := map[Strategy]Stats{}
					for _, strat := range []Strategy{GCX, StaticOnly, FullBuffer} {
						eng, err := Compile(q.Text, WithStrategy(strat))
						if err != nil {
							t.Fatal(err)
						}
						st, err := eng.Run(bytes.NewReader(doc), io.Discard)
						if err != nil {
							t.Fatalf("%v: %v", strat, err)
						}
						peaks[strat] = st
					}
					gcxSt, static, full := peaks[GCX], peaks[StaticOnly], peaks[FullBuffer]
					if gcxSt.PeakBufferNodes > static.PeakBufferNodes {
						t.Errorf("peak nodes: GCX %d > StaticOnly %d — garbage collection grew the buffer",
							gcxSt.PeakBufferNodes, static.PeakBufferNodes)
					}
					if static.PeakBufferNodes > full.PeakBufferNodes {
						t.Errorf("peak nodes: StaticOnly %d > FullBuffer %d — projection buffered more than everything",
							static.PeakBufferNodes, full.PeakBufferNodes)
					}
					if gcxSt.PeakBufferBytes > static.PeakBufferBytes {
						t.Errorf("peak bytes: GCX %d > StaticOnly %d",
							gcxSt.PeakBufferBytes, static.PeakBufferBytes)
					}
					if static.PeakBufferBytes > full.PeakBufferBytes {
						t.Errorf("peak bytes: StaticOnly %d > FullBuffer %d",
							static.PeakBufferBytes, full.PeakBufferBytes)
					}
					if joinFree(q.Name) && gcxSt.PeakBufferNodes >= full.PeakBufferNodes {
						t.Errorf("join-free %s: GCX peak %d nodes must STRICTLY beat FullBuffer %d",
							q.Name, gcxSt.PeakBufferNodes, full.PeakBufferNodes)
					}
					// All three strategies agree on the result, so their
					// output sizes must match (cheap cross-check that the
					// comparison compared the same work).
					if gcxSt.OutputBytes != static.OutputBytes || gcxSt.OutputBytes != full.OutputBytes {
						t.Errorf("output bytes disagree: GCX %d, StaticOnly %d, FullBuffer %d",
							gcxSt.OutputBytes, static.OutputBytes, full.OutputBytes)
					}
				})
			}
		})
	}
}

// joinFree reports whether the catalog query streams without a value
// join. Q8 is the catalog's join (people ⋈ closed_auctions): its inner
// region must stay buffered to the end, so GCX is not required to beat
// FullBuffer by a margin there.
func joinFree(name string) bool { return name != "Q8" }

// earliestSink records where the input stream stood when the engine's
// first-result flush pushed bytes through (consumed reads *inputPos), and
// collects the output for byte comparison.
type earliestSink struct {
	buf             bytes.Buffer
	inputPos        *int64
	flushes         int
	firstFlushBytes int64 // output bytes delivered by the first flush
	firstFlushInput int64 // input bytes consumed at the first flush
}

func (s *earliestSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

func (s *earliestSink) FlushResult() {
	if s.flushes == 0 {
		s.firstFlushBytes = int64(s.buf.Len())
		s.firstFlushInput = *s.inputPos
	}
	s.flushes++
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestEarliestEmissionInvariants pins the earliest-answering contract on
// every catalog query under every strategy:
//
//  1. A run with output has a TTFR stamp, and it never exceeds the
//     run's wall time.
//  2. The first-result flush fires, delivers bytes to the destination,
//     and does so BEFORE the input stream is exhausted — output begins
//     while input is still arriving, not after the scan.
//  3. Emitting early changes nothing else: deterministic stats (peaks,
//     tokens, output size) and the result bytes are identical to a run
//     into a plain sink.
func TestEarliestEmissionInvariants(t *testing.T) {
	doc := orderingDoc(t, orderingDocSizes[2]) // several tokenizer windows
	for _, q := range queries.AllIncludingExtended() {
		t.Run(q.Name, func(t *testing.T) {
			for _, strat := range []Strategy{GCX, StaticOnly, FullBuffer} {
				eng, err := Compile(q.Text, WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				var plain bytes.Buffer
				stPlain, err := eng.Run(bytes.NewReader(doc), &plain)
				if err != nil {
					t.Fatalf("%v plain: %v", strat, err)
				}
				cr := &countingReader{r: bytes.NewReader(doc)}
				sink := &earliestSink{inputPos: &cr.n}
				stEager, err := eng.Run(cr, sink)
				if err != nil {
					t.Fatalf("%v eager: %v", strat, err)
				}

				if stEager.OutputBytes > 0 && stEager.TimeToFirstResultNanos <= 0 {
					t.Errorf("%v: output %d bytes but no TTFR stamp", strat, stEager.OutputBytes)
				}
				if stEager.TimeToFirstResultNanos > stEager.EvalWallNanos {
					t.Errorf("%v: TTFR %d later than the run's end %d",
						strat, stEager.TimeToFirstResultNanos, stEager.EvalWallNanos)
				}
				if sink.flushes == 0 {
					t.Errorf("%v: first-result flush never reached the destination", strat)
				}
				if sink.firstFlushBytes == 0 {
					t.Errorf("%v: first-result flush delivered nothing", strat)
				}
				if sink.firstFlushInput >= int64(len(doc)) {
					t.Errorf("%v: first result left the engine only after the whole %d-byte input (consumed %d)",
						strat, len(doc), sink.firstFlushInput)
				}
				if stEager.Deterministic() != stPlain.Deterministic() {
					t.Errorf("%v: eager emission changed run stats:\neager: %+v\nplain: %+v",
						strat, stEager.Deterministic(), stPlain.Deterministic())
				}
				if !bytes.Equal(sink.buf.Bytes(), plain.Bytes()) {
					t.Errorf("%v: eager emission changed output bytes", strat)
				}
			}
		})
	}
}

// orderingDocSizes are the three generated document sizes of the sweep,
// chosen to keep `go test ./...` fast while spanning a 8x size range.
var orderingDocSizes = []int64{64 << 10, 192 << 10, 512 << 10}

var orderingDocs struct {
	mu   sync.Mutex
	bySz map[int64][]byte
}

func orderingDoc(t *testing.T, size int64) []byte {
	t.Helper()
	orderingDocs.mu.Lock()
	defer orderingDocs.mu.Unlock()
	if orderingDocs.bySz == nil {
		orderingDocs.bySz = map[int64][]byte{}
	}
	if d, ok := orderingDocs.bySz[size]; ok {
		return d
	}
	var buf bytes.Buffer
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(size), Seed: 42}); err != nil {
		t.Fatal(err)
	}
	orderingDocs.bySz[size] = buf.Bytes()
	return buf.Bytes()
}

// TestBufferPeakOrderingBulk extends the memory claim to the bulk
// path: evaluating a corpus (one document per XMark size) across a
// worker pool must keep every per-document peak at its solo value —
// the aggregate memory bound is then workers × the largest single
// document peak, never the corpus sum — and under GCX that bound must
// stay STRICTLY below FullBuffer's on the join-free queries, mirroring
// TestBufferPeakOrdering.
func TestBufferPeakOrderingBulk(t *testing.T) {
	var docs [][]byte
	var stream bytes.Buffer
	for _, size := range orderingDocSizes {
		d := orderingDoc(t, size)
		docs = append(docs, d)
		stream.Write(d)
		stream.WriteByte('\n')
	}
	const workers = 4
	for _, q := range queries.AllIncludingExtended() {
		t.Run(q.Name, func(t *testing.T) {
			type strat struct {
				soloMaxNodes, soloMaxBytes int64 // max per-doc solo peak
				bulkMaxNodes, bulkMaxBytes int64 // max per-doc bulk peak
			}
			peaks := map[Strategy]*strat{}
			for _, s := range []Strategy{GCX, FullBuffer} {
				eng, err := Compile(q.Text, WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				p := &strat{}
				peaks[s] = p
				for i, d := range docs {
					st, err := eng.Run(bytes.NewReader(d), io.Discard)
					if err != nil {
						t.Fatalf("solo doc %d: %v", i, err)
					}
					p.soloMaxNodes = max(p.soloMaxNodes, st.PeakBufferNodes)
					p.soloMaxBytes = max(p.soloMaxBytes, st.PeakBufferBytes)
				}
				bs, err := eng.Bulk(CorpusConcat(bytes.NewReader(stream.Bytes())), BulkOptions{Workers: workers},
					func(d BulkDoc) error {
						if d.Err != nil {
							t.Errorf("bulk doc %d: %v", d.Index, d.Err)
						}
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				p.bulkMaxNodes = bs.Aggregate.PeakBufferNodes
				p.bulkMaxBytes = bs.Aggregate.PeakBufferBytes
				// No document's buffer may grow beyond its solo peak
				// under concurrency: the aggregate bound
				// workers × max-per-doc-solo-peak follows, because at
				// most `workers` documents evaluate at once.
				if p.bulkMaxNodes > p.soloMaxNodes || p.bulkMaxBytes > p.soloMaxBytes {
					t.Errorf("%v: bulk per-doc peak %d nodes / %d bytes exceeds solo %d / %d",
						s, p.bulkMaxNodes, p.bulkMaxBytes, p.soloMaxNodes, p.soloMaxBytes)
				}
				if bs.PeakInFlight > workers {
					t.Errorf("%v: %d documents in flight with %d workers", s, bs.PeakInFlight, workers)
				}
			}
			if joinFree(q.Name) {
				g, f := peaks[GCX], peaks[FullBuffer]
				if workers*g.bulkMaxNodes >= f.bulkMaxNodes {
					t.Errorf("join-free %s: GCX bulk bound %d×%d nodes must stay strictly below FullBuffer's peak %d",
						q.Name, workers, g.bulkMaxNodes, f.bulkMaxNodes)
				}
			}
		})
	}
}

// TestBufferPeakOrderingWorkload extends the ordering claim to the
// shared-stream artifact: the merged pass under GCX must not exceed the
// merged pass under StaticOnly, which must not exceed FullBuffer.
func TestBufferPeakOrderingWorkload(t *testing.T) {
	doc := orderingDoc(t, orderingDocSizes[1])
	var texts []string
	for _, q := range queries.All() {
		texts = append(texts, q.Text)
	}
	peaks := map[Strategy]RegistryStats{}
	for _, strat := range []Strategy{GCX, StaticOnly, FullBuffer} {
		reg := subscribeAll(t, texts, WithStrategy(strat))
		st, err := reg.Run(bytes.NewReader(doc), DiscardSink)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		peaks[strat] = st
	}
	g, s, f := peaks[GCX].Aggregate, peaks[StaticOnly].Aggregate, peaks[FullBuffer].Aggregate
	if g.PeakBufferNodes > s.PeakBufferNodes || s.PeakBufferNodes > f.PeakBufferNodes {
		t.Errorf("workload peak nodes ordering violated: GCX %d, StaticOnly %d, FullBuffer %d",
			g.PeakBufferNodes, s.PeakBufferNodes, f.PeakBufferNodes)
	}
	if g.PeakBufferBytes > s.PeakBufferBytes || s.PeakBufferBytes > f.PeakBufferBytes {
		t.Errorf("workload peak bytes ordering violated: GCX %d, StaticOnly %d, FullBuffer %d",
			g.PeakBufferBytes, s.PeakBufferBytes, f.PeakBufferBytes)
	}
}
