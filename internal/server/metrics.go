package server

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sync/atomic"

	"gcx"
	"gcx/internal/obs"
)

// inlineLabel buckets inline (non-registered) queries in the per-query
// TTFR histograms.
const inlineLabel = "inline"

// metrics holds the scrape-stable service counters. Everything is an
// atomic so the hot request path never takes a lock; /metrics reads a
// consistent-enough snapshot (counters are monotonic). The histograms
// follow the same discipline (see internal/obs): recording is atomics
// only, and the per-query map is never mutated once published (a reload
// publishes a new one), so lookups are lock-free reads of an immutable map.
type metrics struct {
	query, workload, bulk endpoint
	erroredRequests       atomic.Int64

	bulkDocs      atomic.Int64 // documents served through /bulk
	bulkDocErrors atomic.Int64 // of which failed (isolated per document)
	// Worker utilization of the /bulk pools: busy sums per-document
	// evaluation time, worker sums wall × workers. Both counters are
	// MONOTONIC (they only ever grow, surviving any single request), so
	// busy/worker is the fleet-wide pool utilization since process start,
	// and rate(busy)/rate(worker) is the utilization over any window.
	// The raw nanos stay exposed alongside the derived ratio gauge so
	// dashboards can window them.
	bulkBusyNanos   atomic.Int64
	bulkWorkerNanos atomic.Int64

	bytesIn  atomic.Int64 // request-body bytes streamed into engines
	bytesOut atomic.Int64 // result bytes streamed to clients

	tokensRead    atomic.Int64
	nodesBuffered atomic.Int64
	nodesPurged   atomic.Int64
	signOffs      atomic.Int64

	peakNodesMax atomic.Int64 // largest single-run buffer peak observed
	peakBytesMax atomic.Int64
	peakNodesSum atomic.Int64 // summed per-run peaks (aggregate buffer pressure)
	peakBytesSum atomic.Int64

	// ttfr is the published table of time-to-first-result histograms.
	ttfr atomic.Pointer[ttfrTable]
}

// endpoint is one serving endpoint's request counter and latency
// histogram (whole-request wall time, streaming included).
type endpoint struct {
	requests atomic.Int64
	latency  obs.Histogram
}

// ttfrTable is one immutable generation of the per-query TTFR
// histograms: one per id ever registered, plus the "inline" bucket.
type ttfrTable struct {
	hists map[string]*obs.Histogram
	ids   []string // exposition order: sorted, inline last
}

// addTTFR publishes a table that adds a histogram for each of ids it
// lacks. An id keeps its histogram, and its counts, across reloads; an id
// a reload drops keeps its series.
func (m *metrics) addTTFR(ids []string) {
	for {
		old := m.ttfr.Load()
		next := &ttfrTable{hists: map[string]*obs.Histogram{inlineLabel: {}}} // the first table's inline bucket
		if old != nil {
			maps.Copy(next.hists, old.hists)
		}
		for _, id := range ids {
			if next.hists[id] == nil {
				next.hists[id] = &obs.Histogram{}
			}
		}
		next.ids = slices.DeleteFunc(slices.Sorted(maps.Keys(next.hists)), func(id string) bool { return id == inlineLabel })
		next.ids = append(next.ids, inlineLabel)
		if m.ttfr.CompareAndSwap(old, next) {
			return
		}
	}
}

// observeTTFR records one run's time-to-first-result under label's
// histogram: a registered id's, or inlineLabel for an inline query (load
// adds an id's histogram before publishing the id; a label without one
// falls back to inline). Runs with no output (nanos 0) are skipped: they
// have no first result. Lock-free and allocation-free.
//
//gcxlint:noalloc
func (m *metrics) observeTTFR(label string, nanos int64) {
	t := m.ttfr.Load()
	h := t.hists[label]
	if h == nil {
		h = t.hists[inlineLabel]
	}
	h.ObservePositive(nanos)
}

// record folds one run's stats into the service totals.
func (m *metrics) record(st gcx.Stats) {
	m.tokensRead.Add(st.TokensRead)
	m.nodesBuffered.Add(st.BufferedTotal)
	m.nodesPurged.Add(st.PurgedTotal)
	m.signOffs.Add(st.SignOffs)
	m.peakNodesSum.Add(st.PeakBufferNodes)
	m.peakBytesSum.Add(st.PeakBufferBytes)
	atomicMax(&m.peakNodesMax, st.PeakBufferNodes)
	atomicMax(&m.peakBytesMax, st.PeakBufferBytes)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSummary is the JSON view of one latency histogram: quantiles are
// nearest-rank over the log₂ buckets (upper-bound answers, ≤2× off).
type HistSummary struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func summarize(s obs.HistSnapshot) HistSummary {
	return HistSummary{
		Count: s.Count,
		P50Ms: float64(s.Quantile(0.50)) / 1e6,
		P99Ms: float64(s.Quantile(0.99)) / 1e6,
	}
}

// promHist carries one labeled histogram snapshot into the exposition.
type promHist struct {
	label string
	snap  obs.HistSnapshot
}

// RuntimeStats are the Go runtime gauges exposed on /metrics.
type RuntimeStats struct {
	Goroutines        int    `json:"goroutines"`
	HeapAllocBytes    uint64 `json:"heap_alloc_bytes"`
	HeapObjects       uint64 `json:"heap_objects"`
	GCPauseTotalNanos uint64 `json:"gc_pause_total_nanos"`
	GCCycles          uint32 `json:"gc_cycles"`
}

func readRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:        runtime.NumGoroutine(),
		HeapAllocBytes:    ms.HeapAlloc,
		HeapObjects:       ms.HeapObjects,
		GCPauseTotalNanos: ms.PauseTotalNs,
		GCCycles:          ms.NumGC,
	}
}

// Snapshot is the JSON view of /metrics. It builds on the cmd/gcx
// -stats-json shape: Aggregate is a gcx.Stats whose total fields
// (tokens, buffered, purged, signOffs, output bytes) are summed across
// all runs the service performed, while its Peak fields report the
// largest single-run peak observed. BulkBusyNanos/BulkWorkerNanos are
// the raw MONOTONIC counters behind BulkUtilization — the JSON keeps
// both so scrapers can window the counters themselves.
type Snapshot struct {
	RequestsQuery    int64                  `json:"requests_query"`
	RequestsWorkload int64                  `json:"requests_workload"`
	RequestsBulk     int64                  `json:"requests_bulk"`
	RequestsErrored  int64                  `json:"requests_errored"`
	BulkDocs         int64                  `json:"bulk_docs"`
	BulkDocErrors    int64                  `json:"bulk_doc_errors"`
	BulkBusyNanos    int64                  `json:"bulk_busy_nanos"`
	BulkWorkerNanos  int64                  `json:"bulk_worker_nanos"`
	BulkUtilization  float64                `json:"bulk_utilization_ratio"`
	BytesIn          int64                  `json:"bytes_in"`
	Cache            gcx.CacheStats         `json:"cache"`
	Aggregate        gcx.Stats              `json:"aggregate"`
	PeakNodesSum     int64                  `json:"peak_buffer_nodes_sum"`
	PeakBytesSum     int64                  `json:"peak_buffer_bytes_sum"`
	RequestLatency   map[string]HistSummary `json:"request_latency"`
	TTFR             map[string]HistSummary `json:"ttfr"`
	Runtime          RuntimeStats           `json:"runtime"`

	// Raw histogram snapshots for the Prometheus exposition (not part of
	// the JSON shape — the summaries above are).
	latHists  []promHist
	ttfrHists []promHist
}

func (m *metrics) snapshot(cache gcx.CacheStats) Snapshot {
	busy, worker := m.bulkBusyNanos.Load(), m.bulkWorkerNanos.Load()
	var util float64
	if worker > 0 {
		util = float64(busy) / float64(worker)
	}
	s := Snapshot{
		RequestsQuery:    m.query.requests.Load(),
		RequestsWorkload: m.workload.requests.Load(),
		RequestsBulk:     m.bulk.requests.Load(),
		RequestsErrored:  m.erroredRequests.Load(),
		BulkDocs:         m.bulkDocs.Load(),
		BulkDocErrors:    m.bulkDocErrors.Load(),
		BulkBusyNanos:    busy,
		BulkWorkerNanos:  worker,
		BulkUtilization:  util,
		BytesIn:          m.bytesIn.Load(),
		Cache:            cache,
		Aggregate: gcx.Stats{
			PeakBufferNodes: m.peakNodesMax.Load(),
			PeakBufferBytes: m.peakBytesMax.Load(),
			BufferedTotal:   m.nodesBuffered.Load(),
			PurgedTotal:     m.nodesPurged.Load(),
			SignOffs:        m.signOffs.Load(),
			TokensRead:      m.tokensRead.Load(),
			OutputBytes:     m.bytesOut.Load(),
		},
		PeakNodesSum:   m.peakNodesSum.Load(),
		PeakBytesSum:   m.peakBytesSum.Load(),
		RequestLatency: map[string]HistSummary{},
		TTFR:           map[string]HistSummary{},
		Runtime:        readRuntime(),
	}
	s.latHists = []promHist{
		{label: "query", snap: m.query.latency.Snapshot()},
		{label: "workload", snap: m.workload.latency.Snapshot()},
		{label: "bulk", snap: m.bulk.latency.Snapshot()},
	}
	for _, h := range s.latHists {
		s.RequestLatency[h.label] = summarize(h.snap)
	}
	t := m.ttfr.Load()
	for _, id := range t.ids {
		snap := t.hists[id].Snapshot()
		s.ttfrHists = append(s.ttfrHists, promHist{label: id, snap: snap})
		s.TTFR[id] = summarize(snap)
	}
	return s
}

// writeJSON emits the snapshot as one JSON object.
func (s Snapshot) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// writeProm emits the snapshot in the Prometheus text exposition format
// (version 0.0.4): every family carries # HELP and # TYPE lines,
// histograms expose cumulative _bucket series with an le label plus
// _sum/_count, and the output ends with a newline. Names are
// scrape-stable: CI and dashboards key on them, and the strict parser in
// internal/obs validates this exact output in tests.
func (s Snapshot) writeProm(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	family := func(name, help, typ string) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s %s\n", name, typ)
	}

	family("gcxd_requests_total", "Requests served, by endpoint.", "counter")
	p("gcxd_requests_total{endpoint=\"query\"} %d\n", s.RequestsQuery)
	p("gcxd_requests_total{endpoint=\"workload\"} %d\n", s.RequestsWorkload)
	p("gcxd_requests_total{endpoint=\"bulk\"} %d\n", s.RequestsBulk)
	family("gcxd_errors_total", "Requests that failed (rejected or errored during evaluation).", "counter")
	p("gcxd_errors_total %d\n", s.RequestsErrored)
	family("gcxd_bulk_docs_total", "Documents evaluated through /bulk.", "counter")
	p("gcxd_bulk_docs_total %d\n", s.BulkDocs)
	family("gcxd_bulk_doc_errors_total", "Bulk documents that failed (isolated per document).", "counter")
	p("gcxd_bulk_doc_errors_total %d\n", s.BulkDocErrors)
	family("gcxd_bulk_busy_seconds_total", "Monotonic: summed per-document evaluation time across bulk workers.", "counter")
	p("gcxd_bulk_busy_seconds_total %g\n", float64(s.BulkBusyNanos)/1e9)
	family("gcxd_bulk_worker_seconds_total", "Monotonic: summed bulk wall time times pool workers (capacity).", "counter")
	p("gcxd_bulk_worker_seconds_total %g\n", float64(s.BulkWorkerNanos)/1e9)
	family("gcx_bulk_utilization_ratio", "Bulk pool utilization since process start: busy seconds over worker-capacity seconds.", "gauge")
	p("gcx_bulk_utilization_ratio %g\n", s.BulkUtilization)
	family("gcxd_cache_hits_total", "Compile cache hits.", "counter")
	p("gcxd_cache_hits_total %d\n", s.Cache.Hits)
	family("gcxd_cache_misses_total", "Compile cache misses.", "counter")
	p("gcxd_cache_misses_total %d\n", s.Cache.Misses)
	family("gcxd_cache_evictions_total", "Compile cache evictions.", "counter")
	p("gcxd_cache_evictions_total %d\n", s.Cache.Evictions)
	family("gcxd_cache_compiles_total", "Query compilations performed.", "counter")
	p("gcxd_cache_compiles_total %d\n", s.Cache.Compiles)
	family("gcxd_cache_entries", "Compile cache resident entries.", "gauge")
	p("gcxd_cache_entries %d\n", s.Cache.Entries)
	family("gcxd_bytes_in_total", "Request-body bytes streamed into engines.", "counter")
	p("gcxd_bytes_in_total %d\n", s.BytesIn)
	family("gcxd_bytes_out_total", "Result bytes streamed to clients.", "counter")
	p("gcxd_bytes_out_total %d\n", s.Aggregate.OutputBytes)
	family("gcxd_tokens_read_total", "Stream tokens consumed.", "counter")
	p("gcxd_tokens_read_total %d\n", s.Aggregate.TokensRead)
	family("gcxd_nodes_buffered_total", "Nodes copied into buffers.", "counter")
	p("gcxd_nodes_buffered_total %d\n", s.Aggregate.BufferedTotal)
	family("gcxd_nodes_purged_total", "Nodes reclaimed by active garbage collection.", "counter")
	p("gcxd_nodes_purged_total %d\n", s.Aggregate.PurgedTotal)
	family("gcxd_signoffs_total", "Executed signOff statements.", "counter")
	p("gcxd_signoffs_total %d\n", s.Aggregate.SignOffs)
	family("gcxd_buffer_peak_nodes_max", "Largest single-run buffer peak, in nodes.", "gauge")
	p("gcxd_buffer_peak_nodes_max %d\n", s.Aggregate.PeakBufferNodes)
	family("gcxd_buffer_peak_bytes_max", "Largest single-run buffer peak, in bytes.", "gauge")
	p("gcxd_buffer_peak_bytes_max %d\n", s.Aggregate.PeakBufferBytes)
	family("gcxd_buffer_peak_nodes_sum", "Summed per-run buffer peaks, in nodes.", "counter")
	p("gcxd_buffer_peak_nodes_sum %d\n", s.PeakNodesSum)
	family("gcxd_buffer_peak_bytes_sum", "Summed per-run buffer peaks, in bytes.", "counter")
	p("gcxd_buffer_peak_bytes_sum %d\n", s.PeakBytesSum)

	writePromHist(p, "gcxd_request_duration_seconds",
		"Whole-request handler latency, streaming included.", "endpoint", s.latHists)
	writePromHist(p, "gcxd_ttfr_seconds",
		"Time from run start to the first result byte, by registered query id.", "query", s.ttfrHists)

	family("gcxd_go_goroutines", "Live goroutines.", "gauge")
	p("gcxd_go_goroutines %d\n", s.Runtime.Goroutines)
	family("gcxd_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge")
	p("gcxd_go_heap_alloc_bytes %d\n", s.Runtime.HeapAllocBytes)
	family("gcxd_go_heap_objects", "Live heap objects.", "gauge")
	p("gcxd_go_heap_objects %d\n", s.Runtime.HeapObjects)
	family("gcxd_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
	p("gcxd_go_gc_pause_seconds_total %g\n", float64(s.Runtime.GCPauseTotalNanos)/1e9)
	family("gcxd_go_gc_cycles_total", "Completed GC cycles.", "counter")
	p("gcxd_go_gc_cycles_total %d\n", s.Runtime.GCCycles)
	return err
}

// writePromHist emits one histogram family: for every labeled snapshot, a
// cumulative _bucket series per log₂ bound (le in seconds, final +Inf)
// plus _sum and _count. _count is the bucket total, keeping the
// +Inf-equals-count invariant even if a concurrent Observe lands between
// the bucket loads and the count load.
func writePromHist(p func(string, ...any), name, help, labelName string, hists []promHist) {
	p("# HELP %s %s\n", name, help)
	p("# TYPE %s histogram\n", name)
	for _, h := range hists {
		var cum int64
		for i := 0; i < obs.NumBuckets; i++ {
			cum += h.snap.Counts[i]
			le := "+Inf"
			if i < obs.NumBuckets-1 {
				le = fmt.Sprintf("%g", float64(obs.UpperBound(i))/1e9)
			}
			p("%s_bucket{%s=%q,le=%q} %d\n", name, labelName, h.label, le, cum)
		}
		p("%s_sum{%s=%q} %g\n", name, labelName, h.label, float64(h.snap.Sum)/1e9)
		p("%s_count{%s=%q} %d\n", name, labelName, h.label, cum)
	}
}
