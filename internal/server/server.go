// Package server is the HTTP serving layer of gcx (cmd/gcxd): clients
// POST an XML document and name a query — inline or from a registry
// loaded at startup — and the document is evaluated as a stream.
//
// The request body is never slurped: it is handed to the engine as an
// io.Reader, so the server's memory high watermark per request is the
// engine's buffer peak — exactly the quantity the paper's combined static
// and dynamic analysis minimizes. That property is what makes the engine
// safe to put behind a socket: a 200 MB document POSTed to a streaming
// query costs the server a few KB of buffer, not 200 MB.
//
// Every query is compiled by one gcx.CompileCache — registered ones too,
// since the registry is the cache's — so steady-state requests perform
// zero compilations and draw pooled run states from the cached Engines
// and the registries' shared passes.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcx"
)

// Config parameterizes a Server.
type Config struct {
	// Registry holds the queries servable by id. May be nil: the server
	// then serves inline queries only.
	Registry *Registry
	// Cache is the compile cache; nil allocates a fresh one with the
	// default capacity.
	Cache *gcx.CompileCache
	// Options are the gcx compile options applied to every query
	// (strategy, optimizations, schema). All queries of one server share
	// one configuration, as the subscriptions of one gcx.Registry do.
	Options []gcx.Option
	// MaxBodyBytes rejects request bodies larger than this (0 = no limit).
	// Enforcement is streaming: the limit trips when the excess byte is
	// read, not by buffering the body.
	MaxBodyBytes int64
	// MaxDocBytes caps a SINGLE document of a /bulk corpus (0 = no
	// limit). An oversized member fails alone — 413 if it is the first
	// document, a per-part error behind it — while siblings evaluate.
	MaxDocBytes int64
	// BulkWorkers caps the per-request worker pool of /bulk (and is the
	// default when the request gives no j= parameter). ≤0 = GOMAXPROCS.
	BulkWorkers int
	// Timeout bounds one request's evaluation, input read included
	// (0 = no limit). On expiry the engine's stream read fails and the
	// evaluation unwinds; this reuses the engine's error propagation
	// rather than abandoning a goroutine.
	Timeout time.Duration
	// MaxInflight is the admission threshold for /readyz: when at least
	// this many serving requests are in flight the server reports 503 so
	// load balancers stop routing new work here (0 = readiness never
	// considers load). In-flight requests still complete — this is
	// backpressure signaling, not rejection.
	MaxInflight int
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiling endpoints leak heap contents and belong behind a
	// deliberate flag.
	EnablePprof bool
}

// Server handles the gcxd HTTP API:
//
//	POST /query?q=...        evaluate an inline query over the body
//	POST /query?id=...       evaluate a registered query
//	POST /workload?id=a&q=b  evaluate several queries in ONE pass of the body
//	                         (no parameters: every registered query)
//	POST /bulk?id=...&j=N    evaluate one query over EVERY document of the
//	                         body (tar archive or concatenated XML stream)
//	                         across N parallel workers
//	GET  /queries            list registered query ids
//	GET  /metrics            service counters (Prometheus text; ?format=json)
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while degraded or over MaxInflight)
//	GET  /buildinfo          the binary's module and build settings (JSON)
//	GET  /debug/pprof/       runtime profiles (only with EnablePprof)
//
// Responses to /query stream: result bytes are written as evaluation
// produces them, with run statistics in the Gcx-Stats HTTP trailer. A
// Server is immutable after New and safe for concurrent use.
type Server struct {
	cfg   Config
	cache *gcx.CompileCache
	mux   *http.ServeMux
	m     metrics

	// reg is the published generation of the registered queries: the id
	// directory over the cache's compiled texts (the cache is the one
	// query-keyed store and the one compiler), plus the /workload
	// selections served from it. A published registry is never mutated: a
	// reload builds a fresh generation and swaps the pointer, so a request
	// that loads the pointer once sees one generation by construction.
	reg atomic.Pointer[generation]

	// inflight counts serving requests (/query, /workload, /bulk)
	// currently being handled; /readyz compares it to Config.MaxInflight.
	inflight atomic.Int64
	// notReady, when non-nil, is the reason /readyz reports 503 — set by
	// SetNotReady when the process boots degraded (e.g. the registry
	// failed to load) and cleared by SetReady.
	notReady atomic.Pointer[string]
}

// New builds a Server and precompiles every registered query, so a
// registry typo fails at startup rather than on first request and
// /query?id= requests are cache hits from the first one.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, cache: cfg.Cache}
	if s.cache == nil {
		s.cache = gcx.NewCompileCache(0)
	}
	file := cfg.Registry
	if file == nil {
		file = NewRegistry()
	}
	if err := s.load(file); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.serve(&s.m.query, s.handleQuery))
	mux.HandleFunc("POST /workload", s.serve(&s.m.workload, s.handleWorkload))
	mux.HandleFunc("POST /bulk", s.serve(&s.m.bulk, s.handleBulk))
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /buildinfo", s.handleBuildInfo)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// SetNotReady makes /readyz report 503 with the given reason. Used by
// cmd/gcxd to boot degraded (serving inline queries, liveness, and
// metrics) when the registry cannot be loaded, instead of exiting.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(&reason) }

// SetReady clears a SetNotReady condition.
func (s *Server) SetReady() { s.notReady.Store(nil) }

// load builds a fresh generation from file — a registry of the compile
// cache, every id subscribed in file order, so an unchanged text costs a
// cache hit and a new one a compile — and publishes it with a TTFR
// histogram for every id. A typo fails here, at boot or in a reload,
// before anything is published; /query?id= requests are cache hits from
// the first one.
func (s *Server) load(file *Registry) error {
	reg, err := s.cache.NewRegistry(s.cfg.Options...)
	if err != nil {
		return err
	}
	g := &generation{Registry: reg, fleet: selection{reg: reg}, memo: map[string]*selection{}}
	for _, id := range file.IDs() {
		q, _ := file.Get(id)
		sub, err := reg.Subscribe(id, q)
		if err != nil {
			return fmt.Errorf("server: registered query %q: %w", id, err)
		}
		g.fleet.add(sub, id, id)
	}
	s.m.addTTFR(reg.IDs())
	s.reg.Store(g)
	return nil
}

// ReloadRegistry swaps in a new query registry without restarting the
// server (cmd/gcxd wires it to SIGHUP): it builds the generation a
// restart on newReg would (see load) and swaps the pointer, so ids come
// in the file's order. A typo rejects the reload and publishes nothing.
// In-flight requests finish against the generation they loaded.
// Concurrent reloads are each atomic; the last to publish wins. Ids the
// reload adds get their own TTFR histogram; ids it drops keep theirs.
func (s *Server) ReloadRegistry(newReg *Registry) error {
	if newReg == nil {
		return errors.New("server: reload with nil registry")
	}
	return s.load(newReg)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if reason := s.notReady.Load(); reason != nil {
		http.Error(w, "not ready: "+*reason, http.StatusServiceUnavailable)
		return
	}
	if lim := s.cfg.MaxInflight; lim > 0 {
		if n := s.inflight.Load(); n >= int64(lim) {
			http.Error(w, fmt.Sprintf("not ready: %d requests in flight (admission threshold %d)", n, lim),
				http.StatusServiceUnavailable)
			return
		}
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		writeJSONBody(w, struct {
			Error string `json:"error"`
		}{Error: "build info unavailable (binary built without module support)"})
		return
	}
	settings := make(map[string]string, len(bi.Settings))
	for _, kv := range bi.Settings {
		settings[kv.Key] = kv.Value
	}
	writeJSONBody(w, struct {
		GoVersion string            `json:"go_version"`
		Path      string            `json:"path"`
		Module    string            `json:"module"`
		Version   string            `json:"version"`
		Settings  map[string]string `json:"settings"`
	}{
		GoVersion: bi.GoVersion,
		Path:      bi.Path,
		Module:    bi.Main.Path,
		Version:   bi.Main.Version,
		Settings:  settings,
	})
}

// Cache returns the server's compile cache (metrics, tests).
func (s *Server) Cache() *gcx.CompileCache { return s.cache }

// Metrics returns a snapshot of the service counters.
func (s *Server) Metrics() Snapshot { return s.m.snapshot(s.cache.Stats()) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// engine maps one q=/id= parameter pair of the request's URL query to the
// query's Engine from the compile cache and to the label the request's
// TTFR samples go under: the registered id, or the inline bucket for q=
// queries. Every error it returns is the client's (400).
func (s *Server) engine(p params) (*gcx.Engine, string, error) {
	q, id := p.get("q"), p.get("id")
	label := inlineLabel
	switch {
	case q != "" && id != "":
		return nil, "", errors.New("give either q= or id=, not both")
	case id != "":
		sub, ok := s.reg.Load().Subscription(id)
		if !ok {
			return nil, "", fmt.Errorf("unknown query id %q", id)
		}
		q, label = sub.Query(), id
	case q == "":
		return nil, "", errors.New("missing query: give q= (inline) or id= (registered)")
	}
	eng, err := s.cache.Engine(q, s.cfg.Options...)
	if err != nil {
		return nil, "", fmt.Errorf("compile: %w", err)
	}
	return eng, label, nil
}

// handleQuery serves POST /query: one query over the body, the result
// streamed as it is produced. The status line is committed at the first
// certain result byte, so run statistics and late errors travel as
// trailers; a run that fails before that byte answers a status of its own.
func (s *Server) handleQuery(rq *request, r *http.Request) {
	eng, label, err := s.engine(params(r.URL.RawQuery))
	if err != nil {
		rq.fail(http.StatusBadRequest, err)
		return
	}
	if r.Header.Get("Gcx-Trace") != "" {
		s.handleQueryTraced(rq, r, eng, label)
		return
	}
	rq.setHeader("Trailer", "Gcx-Stats, Gcx-Error")
	rq.setHeader("Content-Type", "application/xml; charset=utf-8")
	stats, err := eng.RunContext(rq.ctx, rq, rq.writer(rq, true))
	rq.ran(stats, []string{label}, nil)
	if rq.failed(err, true) {
		return
	}
	if err != nil {
		rq.setHeader("Gcx-Error", err.Error())
	}
	rq.setHeader("Gcx-Stats", statsJSON(stats))
}

// Deep-trace bounds: a Gcx-Trace header value ≥ 2 requests that many
// steps (capped), any other non-empty value gets the default. Each step
// holds a full buffer dump, so the bound is what keeps a trace of an
// arbitrarily large document from buffering the world — the one thing
// this server otherwise never does.
const (
	defaultTraceSteps = 1024
	maxTraceSteps     = 4096
)

// handleQueryTraced serves POST /query with a Gcx-Trace header: a
// multipart/mixed response whose first part streams the query result
// (progressively, like the untraced path) and whose second part is a JSON
// sidecar carrying the bounded buffer-lifecycle trace plus run stats.
//
// Part 0 opens before the run, committing the status line: for a failing
// document the trace is the answer, so the error goes in the trace part's
// Gcx-Error header.
func (s *Server) handleQueryTraced(rq *request, r *http.Request, eng *gcx.Engine, label string) {
	limit := defaultTraceSteps
	if n, err := strconv.Atoi(r.Header.Get("Gcx-Trace")); err == nil && n >= 2 {
		limit = min(n, maxTraceSteps)
	}
	if rq.part("application/xml; charset=utf-8", nil, "Gcx-Part", "result") != nil {
		return
	}
	trace, runErr := eng.Trace(rq.ctx, rq, rq.writer(rq, true), limit)
	rq.ran(trace.Stats, []string{label}, nil)
	rq.failed(runErr, true)
	if rq.part("application/json", runErr, "Gcx-Part", "trace") == nil {
		writeJSONBody(rq, trace)
	}
}

// workloadResponse is the JSON shape of POST /workload (the whole body
// under Accept: application/json, the final stats part otherwise), the
// same for a selection and for the full fleet. IDs, Results and
// Stats.Queries are aligned; Stats.Groups counts the distinct evaluations
// of the pass and Stats.Subscriptions the results it delivered.
type workloadResponse struct {
	IDs     []string          `json:"ids"`
	Results []string          `json:"results,omitempty"`
	Errors  []string          `json:"errors,omitempty"`
	Stats   gcx.RegistryStats `json:"stats"`
}

// generation is one published set of registered queries: their registry
// and the /workload selections over it. A reload publishes a new
// generation, so the memo goes with the registry it was built on.
type generation struct {
	*gcx.Registry
	fleet selection // every registered id, in registry order

	mu   sync.Mutex
	memo map[string]*selection // by selectionKey; at most maxSelections
}

// maxSelections bounds a generation's memo. Each selection holds a shared
// pass and its pooled run states, and selectors come from the URL.
const maxSelections = 64

// selection is one shared pass /workload serves: a registry — the
// generation's own for the full fleet, a selection registry of the cache
// otherwise — and, in response order, its subscriptions, their labels and
// the TTFR histogram each label's samples go to.
type selection struct {
	reg    *gcx.Registry
	subs   []*gcx.Subscription
	labels []string
	ttfr   []string
	pos    map[*gcx.Subscription]int // subscription → response position
}

func (sel *selection) add(sub *gcx.Subscription, label, ttfr string) {
	if sel.pos == nil {
		sel.pos = map[*gcx.Subscription]int{}
	}
	sel.pos[sub] = len(sel.subs)
	sel.subs = append(sel.subs, sub)
	sel.labels = append(sel.labels, label)
	sel.ttfr = append(sel.ttfr, ttfr)
}

// handleWorkload serves POST /workload: every selected query in ONE
// shared pass of the body. Under Accept: application/json every result is
// buffered into one JSON object. Otherwise the response is multipart/mixed:
// the FIRST label's part streams along the pass, opened at its first byte
// or flush; later results buffer until the pass completes (parts are
// sequential, like cmd/gcx's stdout), and a final part carries the stats.
// Either way, a stream failure that interrupts every member before a byte
// is committed answers a status of its own; a partial failure stays 200.
// Every subscription has its own writer, so per-label TTFR is measured,
// and the response comes from THIS run's return value only.
func (s *Server) handleWorkload(rq *request, r *http.Request) {
	sel, err := s.selection(params(r.URL.RawQuery))
	if err != nil {
		rq.fail(http.StatusBadRequest, err)
		return
	}
	asJSON := strings.Contains(r.Header.Get("Accept"), "application/json")
	bufs := make([]bytes.Buffer, len(sel.labels))
	outs := make([]io.Writer, len(sel.labels))
	var part0 *lazyPart
	for i := range outs {
		if i == 0 && !asJSON {
			part0 = &lazyPart{rq: rq, label: sel.labels[0]}
			outs[0] = rq.writer(part0, true)
		} else {
			outs[i] = rq.writer(&bufs[i], false)
		}
	}
	rs, runErr := sel.reg.RunContext(rq.ctx, rq, gcx.SinkFunc(func(sub *gcx.Subscription) io.Writer {
		return outs[sel.pos[sub]]
	}))
	// The run reports one QueryStats per distinct text; the response
	// carries one per label (labels sharing a text repeat their group's).
	perLabel := make([]gcx.QueryStats, len(sel.subs))
	for i, sub := range sel.subs {
		perLabel[i], _ = rs.Query(sub)
	}
	rq.ran(rs.Aggregate, sel.ttfr, perLabel)
	resp := workloadResponse{IDs: sel.labels, Stats: gcx.RegistryStats{
		Aggregate:     rs.Aggregate,
		Queries:       perLabel,
		Groups:        rs.Groups,
		Subscriptions: rs.Subscriptions,
	}}
	for i, q := range perLabel {
		if q.Err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", sel.labels[i], q.Err))
		}
	}
	if rq.failed(runErr, len(resp.Errors) >= len(perLabel)) {
		return
	}
	if asJSON {
		for i := range bufs {
			resp.Results = append(resp.Results, bufs[i].String())
		}
		rq.setHeader("Content-Type", "application/json")
		writeJSONBody(rq, resp)
		return
	}
	for i := range bufs { // part 0 opens here if the pass wrote it nothing
		p := part0
		if i > 0 {
			p = &lazyPart{rq: rq, index: i, label: sel.labels[i]}
		}
		if _, err := p.Write(bufs[i].Bytes()); err != nil {
			return
		}
	}
	if rq.part("application/json", runErr, "Gcx-Part", "stats") == nil {
		writeJSONBody(rq, resp)
	}
}

// lazyPart is the result part of the index-th label of a multipart
// /workload response, opened at its first byte or flush: a pass that
// fails before producing either for part 0 commits nothing and can still
// answer with a status.
type lazyPart struct {
	rq     *request
	index  int
	label  string
	opened bool
	err    error
}

// open opens the part, once; later calls report the first one's error.
func (p *lazyPart) open() error {
	if !p.opened {
		p.opened = true
		p.err = p.rq.part("application/xml; charset=utf-8", nil,
			"Gcx-Query-Index", strconv.Itoa(p.index), "Gcx-Query-Id", p.label)
	}
	return p.err
}

func (p *lazyPart) Write(b []byte) (int, error) {
	if err := p.open(); err != nil {
		return 0, err
	}
	return p.rq.Write(b)
}

// Flush opens the part and flushes the response: the first certain
// result commits the status line, as on /query.
func (p *lazyPart) Flush() {
	if p.open() == nil {
		p.rq.Flush()
	}
}

// selection resolves the request's pass against ONE registry generation:
// no parameters select the whole registered fleet; id=/q= parameters a
// selection registry — one subscription per selector, keyed by its
// position, ids first — memoized on the generation, so a repeated
// selection is a map lookup: no compile, no new pass.
func (s *Server) selection(p params) (*selection, error) {
	g := s.reg.Load()
	var idArr, qArr [8]string
	ids, qs := p.all("id", idArr[:0]), p.all("q", qArr[:0])
	if len(ids) == 0 && len(qs) == 0 {
		if len(g.fleet.subs) == 0 {
			return nil, errors.New("no queries: registry is empty and no id=/q= given")
		}
		return &g.fleet, nil
	}
	var keyArr [256]byte
	key := appendSelectionKey(keyArr[:0], ids, qs)
	g.mu.Lock()
	sel := g.memo[string(key)]
	g.mu.Unlock()
	if sel != nil {
		return sel, nil
	}
	reg, err := s.cache.NewRegistry(s.cfg.Options...)
	if err != nil {
		return nil, err
	}
	sel = &selection{reg: reg}
	add := func(label, ttfr, text string) error {
		sub, err := reg.Subscribe(strconv.Itoa(len(sel.subs)), text)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		sel.add(sub, label, ttfr)
		return nil
	}
	for _, id := range ids {
		sub, ok := g.Subscription(id)
		if !ok {
			return nil, fmt.Errorf("unknown query id %q", id)
		}
		if err := add(id, id, sub.Query()); err != nil {
			return nil, err
		}
	}
	for i, q := range qs {
		if err := add(fmt.Sprintf("inline-%d", i), inlineLabel, q); err != nil {
			return nil, err
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.memo) >= maxSelections {
		for k := range g.memo { // evict one, at random
			delete(g.memo, k)
			break
		}
	}
	g.memo[string(key)] = sel // a concurrent miss may overwrite it: both are valid
	return sel, nil
}

// appendSelectionKey appends the memo key of a selection to b. The key
// encodes the selection injectively: every selector is its kind, its
// length and its text, so no text — one holding a NUL or a
// length-looking prefix included — can make two selections collide. The
// order is kept: it is the response order.
func appendSelectionKey(b []byte, ids, qs []string) []byte {
	for kind, list := range [][]string{ids, qs} {
		for _, x := range list {
			b = strconv.AppendInt(append(b, "iq"[kind]), int64(len(x)), 10) // i for id=, q for q=
			b = append(append(b, ':'), x...)
		}
	}
	return b
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, struct {
		IDs []string `json:"ids"`
	}{IDs: s.reg.Load().IDs()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	if params(r.URL.RawQuery).get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.writeJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.writeProm(w)
}
