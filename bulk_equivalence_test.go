package gcx

import (
	"archive/tar"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// bulkWorkerCounts is the differential matrix's -j axis: serial, a
// fixed parallel degree, and whatever the host offers.
func bulkWorkerCounts() []int {
	js := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, j := range js {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// bulkCorpus builds the shared test corpus: XMark documents in
// SHUFFLED size order (large documents early, small late), so faster
// small documents finish while their bigger predecessors are still
// evaluating and the reorder window must actually reorder.
var bulkCorpus struct {
	once sync.Once
	docs [][]byte
}

func bulkCorpusDocs(t *testing.T) [][]byte {
	t.Helper()
	bulkCorpus.once.Do(func() {
		sizes := []int64{48 << 10, 4 << 10, 64 << 10, 8 << 10, 32 << 10, 6 << 10, 24 << 10, 12 << 10}
		for i, size := range sizes {
			var buf bytes.Buffer
			if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(size), Seed: uint64(100 + i)}); err != nil {
				panic(err)
			}
			bulkCorpus.docs = append(bulkCorpus.docs, buf.Bytes())
		}
	})
	return bulkCorpus.docs
}

// concatCorpus joins documents with the inter-document noise a real
// concatenated feed carries: prologs, comments, and whitespace.
func concatCorpus(docs [][]byte) []byte {
	var buf bytes.Buffer
	for i, d := range docs {
		switch i % 3 {
		case 1:
			buf.WriteString("\n<?xml version=\"1.0\"?>")
		case 2:
			buf.WriteString("\n<!-- next document -->\n")
		}
		buf.Write(d)
	}
	return buf.Bytes()
}

// soloRuns is the reference: each document evaluated alone, in a loop,
// through the same compiled engine.
func soloRuns(t *testing.T, eng *Engine, docs [][]byte) ([][]byte, []Stats) {
	t.Helper()
	outs := make([][]byte, len(docs))
	stats := make([]Stats, len(docs))
	for i, d := range docs {
		var buf bytes.Buffer
		st, err := eng.Run(bytes.NewReader(d), &buf)
		if err != nil {
			t.Fatalf("solo run doc %d: %v", i, err)
		}
		outs[i] = buf.Bytes()
		stats[i] = st
	}
	return outs, stats
}

// collectBulk drains a bulk run into copied per-document outputs.
func collectBulk(t *testing.T, eng *Engine, corpus *Corpus, j int) ([][]byte, []Stats, BulkStats) {
	t.Helper()
	var outs [][]byte
	var stats []Stats
	bs, err := eng.Bulk(corpus, BulkOptions{Workers: j}, func(d BulkDoc) error {
		if d.Err != nil {
			t.Errorf("doc %d (%s) failed: %v", d.Index, d.Name, d.Err)
		}
		if d.Index != len(outs) {
			t.Errorf("doc %d emitted at position %d: corpus order violated", d.Index, len(outs))
		}
		outs = append(outs, append([]byte(nil), d.Output...))
		stats = append(stats, d.Stats)
		return nil
	})
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	return outs, stats, bs
}

// TestBulkEquivalence is the differential conformance suite: for every
// catalog query, buffering strategy, and worker count, a bulk run over
// the shuffled-size corpus must be byte-identical, document by
// document, to the per-document solo Engine.Run loop — including each
// document's run statistics, which would diverge if pooled run state
// leaked between concurrently evaluated documents.
func TestBulkEquivalence(t *testing.T) {
	docs := bulkCorpusDocs(t)
	stream := concatCorpus(docs)
	for _, q := range queries.AllIncludingExtended() {
		for _, strat := range []Strategy{GCX, StaticOnly, FullBuffer} {
			eng, err := Compile(q.Text, WithStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}
			wantOuts, wantStats := soloRuns(t, eng, docs)
			for _, j := range bulkWorkerCounts() {
				t.Run(fmt.Sprintf("%s/%v/j%d", q.Name, strat, j), func(t *testing.T) {
					gotOuts, gotStats, bs := collectBulk(t, eng, CorpusConcat(bytes.NewReader(stream)), j)
					if len(gotOuts) != len(docs) {
						t.Fatalf("bulk saw %d docs, corpus has %d", len(gotOuts), len(docs))
					}
					for i := range docs {
						if !bytes.Equal(gotOuts[i], wantOuts[i]) {
							t.Errorf("doc %d: bulk output (%d bytes) differs from solo (%d bytes)",
								i, len(gotOuts[i]), len(wantOuts[i]))
						}
						// Timing fields are wall-clock and differ by nature;
						// every deterministic measurement must match solo.
						if gotStats[i].Deterministic() != wantStats[i].Deterministic() {
							t.Errorf("doc %d: bulk stats %+v differ from solo %+v", i, gotStats[i], wantStats[i])
						}
					}
					if bs.Docs != int64(len(docs)) || bs.Failed != 0 {
						t.Errorf("bulk stats: %+v", bs)
					}
					if bs.PeakInFlight > j {
						t.Errorf("peak in-flight %d exceeds %d workers", bs.PeakInFlight, j)
					}
				})
			}
		}
	}
}

// TestBulkSourcesAgree runs the same corpus through all three source
// kinds — concatenated stream, tar archive, files on disk — and
// demands identical per-document results.
func TestBulkSourcesAgree(t *testing.T) {
	docs := bulkCorpusDocs(t)
	eng := MustCompile(queries.ByName("Q1").Text)
	wantOuts, _ := soloRuns(t, eng, docs)

	dir := t.TempDir()
	var tarBuf bytes.Buffer
	tw := tar.NewWriter(&tarBuf)
	var paths []string
	for i, d := range docs {
		name := fmt.Sprintf("doc%03d.xml", i)
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(d))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(d); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, d, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := CorpusFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	globbed, err := CorpusFiles(filepath.Join(dir, "doc*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*Corpus{
		"concat": CorpusConcat(bytes.NewReader(concatCorpus(docs))),
		"tar":    CorpusTar(bytes.NewReader(tarBuf.Bytes())),
		"files":  files,
		"glob":   globbed,
	}
	// Split the archive into two on-disk tars so a '*.tar' glob has to
	// resolve to several archives in order.
	half := len(docs) / 2
	for i, span := range [][][]byte{docs[:half], docs[half:]} {
		var tb bytes.Buffer
		tw := tar.NewWriter(&tb)
		for k, d := range span {
			if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("m%d.xml", k), Mode: 0o644, Size: int64(len(d))}); err != nil {
				t.Fatal(err)
			}
			if _, err := tw.Write(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part%d.tar", i)), tb.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tarGlob, err := CorpusPaths(filepath.Join(dir, "part*.tar"))
	if err != nil {
		t.Fatal(err)
	}
	sources["targlob"] = tarGlob

	for name, corpus := range sources {
		t.Run(name, func(t *testing.T) {
			gotOuts, _, bs := collectBulk(t, eng, corpus, 4)
			if len(gotOuts) != len(docs) {
				t.Fatalf("%s source saw %d docs, want %d", name, len(gotOuts), len(docs))
			}
			for i := range docs {
				if !bytes.Equal(gotOuts[i], wantOuts[i]) {
					t.Errorf("%s source doc %d differs from solo", name, i)
				}
			}
			if bs.Failed != 0 {
				t.Errorf("%s source: %d failed docs", name, bs.Failed)
			}
		})
	}
}

// TestBulkIsolation plants a unique marker in every document and runs
// highly parallel bulk passes: each document's output must carry its
// own marker and no other document's — cross-document text bleed from
// a mis-reset pooled run state would surface here.
func TestBulkIsolation(t *testing.T) {
	const n = 24
	var docs [][]byte
	var stream bytes.Buffer
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`<site><people><person><id>person0</id><name>MARKER-%03d</name></person></people></site>`, i)
		docs = append(docs, []byte(doc))
		stream.WriteString(doc)
		stream.WriteByte('\n')
	}
	eng := MustCompile(queries.ByName("Q1").Text)
	var outs []string
	_, err := eng.Bulk(CorpusConcat(bytes.NewReader(stream.Bytes())), BulkOptions{Workers: 8}, func(d BulkDoc) error {
		if d.Err != nil {
			t.Errorf("doc %d: %v", d.Index, d.Err)
		}
		outs = append(outs, string(d.Output))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != n {
		t.Fatalf("got %d docs, want %d", len(outs), n)
	}
	for i, out := range outs {
		own := fmt.Sprintf("MARKER-%03d", i)
		if !strings.Contains(out, own) {
			t.Errorf("doc %d output lost its own marker: %q", i, out)
		}
		if c := strings.Count(out, "MARKER-"); c != 1 {
			t.Errorf("doc %d output carries %d markers (cross-document bleed): %q", i, c, out)
		}
	}
}

// TestBulkPoisonDocument places malformed and unparseable documents
// among healthy ones: each failure stays in its own slot and every
// sibling remains byte-identical to its solo run.
//
// The poisons here are depth-balanced (mismatched tag names, bad
// entities): a concatenated stream is framed by content, so only
// balanced garbage has a findable boundary. Unbalanced garbage is
// covered by TestBulkPoisonTar, where the archive provides the framing.
func TestBulkPoisonDocument(t *testing.T) {
	docs := bulkCorpusDocs(t)
	eng := MustCompile(queries.ByName("Q6").Text)
	wantOuts, _ := soloRuns(t, eng, docs)

	var stream bytes.Buffer
	stream.Write(docs[0])
	stream.WriteString("<poison><x></y></poison>") // mismatched inner tags, balanced depth
	stream.Write(docs[1])
	stream.WriteString("<p2>&undefined;</p2>") // unknown entity
	stream.Write(docs[2])

	type slot struct {
		out []byte
		err error
	}
	var got []slot
	bs, err := eng.Bulk(CorpusConcat(bytes.NewReader(stream.Bytes())), BulkOptions{Workers: 4}, func(d BulkDoc) error {
		got = append(got, slot{append([]byte(nil), d.Output...), d.Err})
		return nil
	})
	if err != nil {
		t.Fatalf("bulk run itself failed: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d docs, want 5", len(got))
	}
	if bs.Failed != 2 {
		t.Errorf("failed count %d, want 2", bs.Failed)
	}
	for i, healthy := range map[int]int{0: 0, 2: 1, 4: 2} {
		if got[i].err != nil {
			t.Errorf("healthy doc %d failed: %v", i, got[i].err)
		}
		if !bytes.Equal(got[i].out, wantOuts[healthy]) {
			t.Errorf("healthy doc %d output differs from its solo run", i)
		}
	}
	for _, poisoned := range []int{1, 3} {
		if got[poisoned].err == nil {
			t.Errorf("poison doc %d did not fail", poisoned)
		}
	}
}

// TestBulkPoisonTar covers the poison shape a concatenated stream
// cannot isolate: a structurally unbalanced document. Tar members are
// framed by the archive, so even an unclosed-element document fails
// alone.
func TestBulkPoisonTar(t *testing.T) {
	docs := bulkCorpusDocs(t)[:3]
	eng := MustCompile(queries.ByName("Q6").Text)
	wantOuts, _ := soloRuns(t, eng, docs)

	var tarBuf bytes.Buffer
	tw := tar.NewWriter(&tarBuf)
	add := func(name string, data []byte) {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	add("a.xml", docs[0])
	add("poison.xml", []byte("<poison><unclosed></poison>"))
	add("b.xml", docs[1])
	add("truncated.xml", []byte("<half><way>"))
	add("c.xml", docs[2])
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	type slot struct {
		out []byte
		err error
	}
	var got []slot
	bs, err := eng.Bulk(CorpusTar(bytes.NewReader(tarBuf.Bytes())), BulkOptions{Workers: 4}, func(d BulkDoc) error {
		got = append(got, slot{append([]byte(nil), d.Output...), d.Err})
		return nil
	})
	if err != nil {
		t.Fatalf("bulk run itself failed: %v", err)
	}
	if len(got) != 5 || bs.Failed != 2 {
		t.Fatalf("got %d docs, %d failed; want 5 docs, 2 failed", len(got), bs.Failed)
	}
	for i, healthy := range map[int]int{0: 0, 2: 1, 4: 2} {
		if got[i].err != nil {
			t.Errorf("healthy member %d failed: %v", i, got[i].err)
		}
		if !bytes.Equal(got[i].out, wantOuts[healthy]) {
			t.Errorf("healthy member %d output differs from its solo run", i)
		}
	}
	for _, poisoned := range []int{1, 3} {
		if got[poisoned].err == nil {
			t.Errorf("poison member %d did not fail", poisoned)
		}
	}
}

// TestBulkWorkloadEquivalence extends the differential suite to
// Registry.Bulk: per document and per subscription, bulk output must
// match the registry's run over that document alone.
func TestBulkWorkloadEquivalence(t *testing.T) {
	docs := bulkCorpusDocs(t)[:5]
	var texts []string
	for _, q := range queries.All() {
		texts = append(texts, q.Text)
	}
	for _, strat := range []Strategy{GCX, StaticOnly, FullBuffer} {
		reg := subscribeAll(t, texts, WithStrategy(strat))
		want := make([][][]byte, len(docs)) // doc -> member -> bytes
		for i, d := range docs {
			results, _, err := runStrings(reg, string(d))
			if err != nil {
				t.Fatalf("solo workload doc %d: %v", i, err)
			}
			for _, r := range results {
				want[i] = append(want[i], []byte(r))
			}
		}
		for _, j := range bulkWorkerCounts() {
			t.Run(fmt.Sprintf("%v/j%d", strat, j), func(t *testing.T) {
				var got [][][]byte
				bs, err := reg.Bulk(CorpusConcat(bytes.NewReader(concatCorpus(docs))), BulkOptions{Workers: j}, func(d BulkDoc) error {
					if d.Err != nil {
						t.Errorf("doc %d: %v", d.Index, d.Err)
					}
					cp := make([][]byte, len(d.Outputs))
					for i, o := range d.Outputs {
						cp[i] = append([]byte(nil), o...)
					}
					got = append(got, cp)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(docs) {
					t.Fatalf("bulk saw %d docs, want %d", len(got), len(docs))
				}
				for i := range docs {
					for m := range texts {
						if !bytes.Equal(got[i][m], want[i][m]) {
							t.Errorf("doc %d member %d: bulk differs from solo", i, m)
						}
					}
				}
				if bs.Docs != int64(len(docs)) {
					t.Errorf("bulk stats: %+v", bs)
				}
			})
		}
	}
}
