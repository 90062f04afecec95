package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"gcx"
	"gcx/internal/corpus"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// scale sizes the inputs. fullScale is what BENCHMARK.json's numbers are
// measured at; the package's tests run the same code at testScale.
type scale struct {
	selectDoc, joinDoc, fleetDoc, copyDoc int64
	fleetSubs, fleetTexts                 int
	corpusDocs                            int
	corpusDocBytes                        int64
}

var (
	fullScale = scale{selectDoc: 8 << 20, joinDoc: 2 << 20, fleetDoc: 128 << 10, copyDoc: 1 << 20,
		fleetSubs: 1000, fleetTexts: 64, corpusDocs: 256, corpusDocBytes: 32 << 10}
	testScale = scale{selectDoc: 64 << 10, joinDoc: 64 << 10, fleetDoc: 64 << 10, copyDoc: 64 << 10,
		fleetSubs: 100, fleetTexts: 16, corpusDocs: 8, corpusDocBytes: 16 << 10}
)

// Queries beside the Table 1 catalog (internal/queries).
const (
	selAfricaQuery = `<sel>{ for $i in /site/regions/africa/item return <n>{ $i/name }</n> }</sel>`
	copyQuery      = `<c>{ for $r in /site/regions return for $i in $r//item return $i }</c>`
)

// bulkWorkers is bulk-corpus's pool size and copyClients gcxd-copy's
// connection count: both are the dev container's nproc.
const (
	bulkWorkers = 2
	copyClients = 2
)

// pair is one (documents, query) combination a workload evaluates, with
// the FullBuffer reference output of each document. The rung ladder runs
// over a workload's pairs. Only bulk-corpus has more than one document.
type pair struct {
	name, query string
	docs, refs  [][]byte
}

func (p *pair) bytes() int64 {
	var n int64
	for _, d := range p.docs {
		n += int64(len(d))
	}
	return n
}

// goldenRow pins one pair's output and work counts in
// testdata/golden-seed1.json: the references come from the FullBuffer
// strategy of the same evaluator, so a change common to all strategies
// is caught only by a committed expectation.
type goldenRow struct {
	Pair            string `json:"pair"`
	Digest          string `json:"digest"`
	OutputBytes     int64  `json:"output_bytes"`
	TokensRead      int64  `json:"tokens_read"`
	PeakBufferBytes int64  `json:"peak_buffer_bytes"`
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup generates the inputs from the seed, computes the reference
	// outputs, compiles/subscribes/listens, and runs one untimed op so
	// pools and caches are warm.
	setup(seed uint64, sc scale) error
	// op runs one verified operation.
	op(ctx opCtx) opStats
	// pairs are the (document, query) combinations of the rung ladder.
	pairs() []*pair
	// golden reports what set-up saw, for the committed expectation.
	golden() []goldenRow
	// layers adds the workload's own per-layer metrics after the traced
	// window and the ladder have run.
	layers(c collector, lad *ladder, traced *window, budget time.Duration) error
	// close stops everything setup started and waits for it.
	close()
}

// workloadDef is a row of the workload table. clients is the number of
// closed-loop goroutines issuing ops; procs is what the nproc check
// counts (clients, or the worker pool an op fans out to).
type workloadDef struct {
	name    string
	clients int
	procs   int
	create  func() workload
}

var workloadDefs = []workloadDef{
	{"stream-select", 1, 1, func() workload {
		return &streamWorkload{size: func(sc scale) int64 { return sc.selectDoc }, queries: []namedQuery{
			{"Q1", queries.Q1.Text}, {"Q6", queries.Q6.Text}, {"Q13", queries.Q13.Text},
			{"Q20", queries.Q20.Text}, {"sel-africa", selAfricaQuery}}}
	}},
	{"stream-join", 1, 1, func() workload {
		return &streamWorkload{size: func(sc scale) int64 { return sc.joinDoc },
			queries: []namedQuery{{"Q8", queries.Q8.Text}}}
	}},
	{"registry-fleet", 1, 1, func() workload { return &fleetWorkload{} }},
	{"gcxd-copy", copyClients, copyClients, func() workload { return &copyWorkload{} }},
	{"bulk-corpus", 1, bulkWorkers, func() workload { return &bulkWorkload{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

type namedQuery struct{ name, text string }

// genDoc generates an XMark document of about size bytes. The result is
// an exact-size copy: a generated document misses its target size by up to
// a percent either way, and returning the builder's own array would make
// the memory a run holds depend on whether this seed's document happened
// to push the builder into doubling its capacity.
func genDoc(size int64, seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(size) + int(size)/16)
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(size), Seed: seed}); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// reference evaluates query over doc with the FullBuffer strategy — no
// projection, no purging — which every timed op's output must equal.
func reference(query string, doc []byte) ([]byte, error) {
	eng, err := gcx.Compile(query, gcx.WithStrategy(gcx.FullBuffer))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, err := eng.Run(bytes.NewReader(doc), &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------
// stream-select and stream-join: gcx.Engine.Run, one client.

type streamWorkload struct {
	size    func(scale) int64
	queries []namedQuery

	ps      []*pair
	engines []*gcx.Engine
	warm    []gcx.Stats // per pair, from the warm-up op
	src     source
	snk     sink
}

func (w *streamWorkload) setup(seed uint64, sc scale) error {
	doc, err := genDoc(w.size(sc), seed)
	if err != nil {
		return err
	}
	w.ps, w.engines = nil, nil
	for _, q := range w.queries {
		ref, err := reference(q.text, doc)
		if err != nil {
			return fmt.Errorf("%s reference: %w", q.name, err)
		}
		eng, err := gcx.Compile(q.text)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		w.ps = append(w.ps, &pair{name: q.name, query: q.text, docs: [][]byte{doc}, refs: [][]byte{ref}})
		w.engines = append(w.engines, eng)
	}
	w.warm = make([]gcx.Stats, len(w.ps))
	for i := range w.ps {
		var acc opStats
		w.warm[i] = w.run(i, opCtx{}, &acc)
		if acc.err != nil {
			return fmt.Errorf("%s warm-up: %w", w.ps[i].name, acc.err)
		}
	}
	return nil
}

// run evaluates pair i once and folds the outcome into acc.
func (w *streamWorkload) run(i int, ctx opCtx, acc *opStats) gcx.Stats {
	p := w.ps[i]
	w.src.reset(p.docs[0], ctx)
	w.snk.reset(p.refs[0], ctx)
	t0 := nanos()
	st, err := w.engines[i].Run(&w.src, &w.snk)
	if err == nil && !w.snk.ok() {
		err = fmt.Errorf("%s: %w", p.name, errMismatch)
	}
	if err != nil && acc.err == nil {
		acc.err = err
	}
	acc.in += int64(len(p.docs[0]))
	fold(&acc.st, st)
	acc.out += int64(w.snk.off)
	acc.writes += w.snk.writes
	if w.snk.first > 0 {
		acc.ttfr += w.snk.first - t0
	}
	return st
}

func (w *streamWorkload) op(ctx opCtx) opStats {
	var acc opStats
	for i := range w.ps {
		w.run(i, ctx, &acc)
	}
	acc.ttfr /= int64(len(w.ps))
	return acc
}

func (w *streamWorkload) pairs() []*pair { return w.ps }

func (w *streamWorkload) golden() []goldenRow {
	rows := make([]goldenRow, len(w.ps))
	for i, p := range w.ps {
		rows[i] = goldenRow{Pair: p.name, Digest: digest(p.refs[0]), OutputBytes: int64(len(p.refs[0])),
			TokensRead: w.warm[i].TokensRead, PeakBufferBytes: w.warm[i].PeakBufferBytes}
	}
	return rows
}

func (w *streamWorkload) layers(collector, *ladder, *window, time.Duration) error { return nil }

func (w *streamWorkload) close() {}

// ---------------------------------------------------------------------
// registry-fleet: gcx.Registry.Run, many subscriptions over few texts.

type fleetWorkload struct {
	doc   []byte
	texts []string
	refs  [][]byte
	reg   *gcx.Registry
	sinks []sink
	bySub map[*gcx.Subscription]*sink
	src   source
	last  gcx.RegistryStats // the most recent pass

	compileMs   []float64 // gcx.Compile per distinct text, cold
	subscribeUs float64   // mean Subscribe cost over the fleet
}

// fleetTexts builds n distinct texts from the Table 1 catalog exactly as
// BENCH_subs.json's generator does (internal/bench subsTexts): template
// i mod 5 wrapped in a per-index result element, so projection spines
// repeat while texts and outputs stay distinct.
func fleetTexts(n int) []string {
	templates := queries.All()
	texts := make([]string, n)
	for i := range texts {
		t := templates[i%len(templates)]
		texts[i] = fmt.Sprintf("<v%d>{ %s }</v%d>", i, strings.TrimSpace(t.Text), i)
	}
	return texts
}

func (w *fleetWorkload) setup(seed uint64, sc scale) error {
	doc, err := genDoc(sc.fleetDoc, seed)
	if err != nil {
		return err
	}
	w.doc = doc
	w.texts = fleetTexts(sc.fleetTexts)
	w.refs = make([][]byte, len(w.texts))
	w.compileMs = w.compileMs[:0]
	for i, text := range w.texts {
		if w.refs[i], err = reference(text, doc); err != nil {
			return fmt.Errorf("text %d reference: %w", i, err)
		}
		t0 := time.Now()
		if _, err := gcx.Compile(text); err != nil {
			return err
		}
		w.compileMs = append(w.compileMs, float64(time.Since(t0))*msPerNs)
	}
	if w.reg, err = gcx.NewRegistry(); err != nil {
		return err
	}
	w.sinks = make([]sink, sc.fleetSubs)
	w.bySub = make(map[*gcx.Subscription]*sink, sc.fleetSubs)
	t0 := time.Now()
	for i := range w.sinks {
		sub, err := w.reg.Subscribe(fmt.Sprintf("sub-%d", i), w.texts[i%len(w.texts)])
		if err != nil {
			return err
		}
		w.bySub[sub] = &w.sinks[i]
	}
	w.subscribeUs = float64(time.Since(t0).Microseconds()) / float64(sc.fleetSubs)
	st := w.op(opCtx{})
	if st.err != nil {
		return fmt.Errorf("warm-up: %w", st.err)
	}
	return nil
}

func (w *fleetWorkload) Writer(s *gcx.Subscription) io.Writer { return w.bySub[s] }

func (w *fleetWorkload) op(ctx opCtx) opStats {
	w.src.reset(w.doc, ctx)
	for i := range w.sinks {
		w.sinks[i].reset(w.refs[i%len(w.refs)], ctx)
	}
	t0 := nanos()
	rs, err := w.reg.Run(&w.src, w)
	w.last = rs
	acc := opStats{in: int64(len(w.doc)), st: rs.Aggregate, err: err}
	var first int64
	for i := range w.sinks {
		s := &w.sinks[i]
		if !s.ok() && acc.err == nil {
			acc.err = fmt.Errorf("subscription %d: %w", i, errMismatch)
		}
		acc.out += int64(s.off)
		acc.writes += s.writes
		if s.first > 0 && (first == 0 || s.first < first) {
			first = s.first
		}
	}
	if first > 0 {
		acc.ttfr = first - t0
	}
	return acc
}

// pairs gives the ladder one text per catalog template: the fleet's 64
// texts are those five in different wrappers.
func (w *fleetWorkload) pairs() []*pair {
	n := min(len(queries.All()), len(w.texts))
	ps := make([]*pair, n)
	for i := range ps {
		ps[i] = &pair{name: fmt.Sprintf("v%d", i), query: w.texts[i], docs: [][]byte{w.doc}, refs: [][]byte{w.refs[i]}}
	}
	return ps
}

func (w *fleetWorkload) golden() []goldenRow {
	var out int64
	for i := range w.sinks {
		out += int64(w.sinks[i].off)
	}
	return []goldenRow{{Pair: "fleet", Digest: digest(w.refs...), OutputBytes: out,
		TokensRead: w.last.Aggregate.TokensRead, PeakBufferBytes: w.last.Aggregate.PeakBufferBytes}}
}

// passMs is the median wall time of a shared pass with the first k of
// the fleet's texts subscribed once each, output discarded.
func (w *fleetWorkload) passMs(k int, budget time.Duration) (float64, error) {
	reg, err := gcx.NewRegistry()
	if err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		if _, err := reg.Subscribe(fmt.Sprintf("g-%d", i), w.texts[i]); err != nil {
			return 0, err
		}
	}
	var rd bytes.Reader
	ns, err := timeRung(budget, func() error {
		rd.Reset(w.doc)
		_, err := reg.Run(&rd, gcx.DiscardSink)
		return err
	})
	return ns * msPerNs, err
}

func (w *fleetWorkload) layers(c collector, _ *ladder, traced *window, budget time.Duration) error {
	c["registry.groups"] = float64(w.reg.Groups())
	c["registry.subscribe_us_per_sub"] = w.subscribeUs
	c["registry.fanout_bytes_per_op"] = float64(traced.ops[0].out)
	c["compile.cold_ms_p50"] = medianFloat(w.compileMs)

	// The shared pass at 1, 10 and all of the fleet's texts, then the
	// same texts as solo Engine.Run calls: the item-3 gate is
	// pass_ms_g64 <= 3 x pass_ms_g10.
	ks := []int{1, min(10, len(w.texts)), len(w.texts)}
	names := []string{"workload.pass_ms_g1", "workload.pass_ms_g10", "workload.pass_ms_g64"}
	var shared float64
	for i, k := range ks {
		ms, err := w.passMs(k, budget/4)
		if err != nil {
			return err
		}
		c[names[i]] = ms
		shared = ms
	}
	var solo float64
	var rd bytes.Reader
	for _, text := range w.texts {
		eng, err := gcx.Compile(text)
		if err != nil {
			return err
		}
		ns, err := timeRung(budget/4/time.Duration(len(w.texts)), func() error {
			rd.Reset(w.doc)
			_, err := eng.Run(&rd, io.Discard)
			return err
		})
		if err != nil {
			return err
		}
		solo += ns * msPerNs
	}
	c["workload.shared_vs_solo_ratio"] = shared / solo
	return nil
}

func (w *fleetWorkload) close() {}

// ---------------------------------------------------------------------
// bulk-corpus: gcx.Engine.Bulk over a concatenated stream of small
// documents.

type bulkWorkload struct {
	body   []byte
	p      *pair // all documents, Q6
	eng    *gcx.Engine
	src    source
	last   gcx.BulkStats   // the most recent op
	traced []gcx.BulkStats // one per op of the traced window
}

func (w *bulkWorkload) setup(seed uint64, sc scale) error {
	w.p = &pair{name: "corpus", query: queries.Q6.Text}
	var body bytes.Buffer
	for i := 0; i < sc.corpusDocs; i++ {
		doc, err := genDoc(sc.corpusDocBytes, seed*1_000_003+uint64(i))
		if err != nil {
			return err
		}
		ref, err := reference(w.p.query, doc)
		if err != nil {
			return fmt.Errorf("doc %d reference: %w", i, err)
		}
		w.p.docs = append(w.p.docs, doc)
		w.p.refs = append(w.p.refs, ref)
		body.Write(doc)
	}
	w.body = body.Bytes()
	var err error
	if w.eng, err = gcx.Compile(w.p.query); err != nil {
		return err
	}
	w.traced = nil
	st := w.op(opCtx{})
	if st.err != nil {
		return fmt.Errorf("warm-up: %w", st.err)
	}
	return nil
}

func (w *bulkWorkload) op(ctx opCtx) opStats {
	w.src.reset(w.body, ctx)
	acc := opStats{in: int64(len(w.body))}
	t0 := nanos()
	bs, err := w.eng.Bulk(gcx.CorpusConcat(&w.src), gcx.BulkOptions{Workers: bulkWorkers}, func(d gcx.BulkDoc) error {
		var start int64
		if acc.writes == 0 || ctx.tr != nil {
			start = nanos()
			if acc.writes == 0 {
				acc.ttfr = start - t0
			}
		}
		acc.writes++
		acc.out += int64(len(d.Output))
		if acc.err == nil {
			switch {
			case d.Err != nil:
				acc.err = d.Err
			case d.Index >= len(w.p.refs) || !bytes.Equal(d.Output, w.p.refs[d.Index]):
				acc.err = fmt.Errorf("doc %d: %w", d.Index, errMismatch)
			}
		}
		ctx.span("sink.write", start, nanos())
		return nil
	})
	if err == nil && int(bs.Docs) != len(w.p.docs) {
		err = fmt.Errorf("bulk emitted %d of %d documents", bs.Docs, len(w.p.docs))
	}
	if err != nil && acc.err == nil {
		acc.err = err
	}
	acc.st = bs.Aggregate
	w.last = bs
	if ctx.tr != nil {
		w.traced = append(w.traced, bs)
	}
	return acc
}

func (w *bulkWorkload) pairs() []*pair { return []*pair{w.p} }

func (w *bulkWorkload) golden() []goldenRow {
	return []goldenRow{{Pair: w.p.name, Digest: digest(w.p.refs...), OutputBytes: w.last.Aggregate.OutputBytes,
		TokensRead: w.last.Aggregate.TokensRead, PeakBufferBytes: w.last.Aggregate.PeakBufferBytes}}
}

func (w *bulkWorkload) layers(c collector, _ *ladder, _ *window, budget time.Duration) error {
	// corpus: the splitter alone over the concatenated body.
	var rd bytes.Reader
	var dst []byte
	ns, err := timeRung(budget/2, func() error {
		rd.Reset(w.body)
		sp := corpus.NewSplitter(&rd)
		for {
			var err error
			if dst, err = sp.Next(dst); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	c["corpus.split_ns_per_byte"] = ns / float64(len(w.body))

	var docsPerS, util, inFlight, dispatch []float64
	for _, bs := range w.traced {
		docsPerS = append(docsPerS, float64(bs.Docs)/(float64(bs.WallNanos)/1e9))
		util = append(util, bs.Utilization())
		inFlight = append(inFlight, float64(bs.PeakInFlight))
		dispatch = append(dispatch, 1-float64(bs.Aggregate.EvalWallNanos)/float64(bs.BusyNanos))
	}
	c["corpus.docs_per_s"] = medianFloat(docsPerS)
	c["corpus.utilization"] = medianFloat(util)
	c["corpus.peak_in_flight"] = slices.Max(inFlight)
	c["corpus.dispatch_share"] = medianFloat(dispatch)

	// Per-document fixed cost: what the engine spends on a document
	// before its first and after its last content byte (run-state pool
	// traffic and reset, the first window refill), measured directly as a
	// run over the smallest document of the corpus's vocabulary.
	// Subtracting a large document's ns/byte from a small one's, as the
	// issue first proposed, compares different content mixes instead.
	fixedNs, err := engineRunNs(w.p.query, []byte("<site/>"), budget/2)
	if err != nil {
		return err
	}
	c["corpus.per_doc_fixed_us"] = fixedNs / 1e3
	return nil
}

func (w *bulkWorkload) close() {}
