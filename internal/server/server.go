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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/pprof"
	"net/textproto"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcx"
	"gcx/internal/obs"
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
	mux.HandleFunc("POST /query", s.timed(&s.m.latQuery, s.handleQuery))
	mux.HandleFunc("POST /workload", s.timed(&s.m.latWorkload, s.handleWorkload))
	mux.HandleFunc("POST /bulk", s.timed(&s.m.latBulk, s.handleBulk))
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

// timed wraps a serving handler with the in-flight gauge and its
// endpoint's request-latency histogram (whole-handler wall time, so
// streaming the response to a slow client counts — that is the latency a
// caller of this endpoint experiences).
func (s *Server) timed(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		start := obs.Now()
		defer func() {
			h.Observe(obs.Now() - start)
			s.inflight.Add(-1)
		}()
		body := &serialBody{ReadCloser: r.Body}
		r.Body = body
		fn(w, r)
		// The engine stops at the root's end tag, so a tail of the body (a
		// trailing newline in its own TCP segment is enough) can still be
		// unread here. In the full-duplex mode the handlers enable, net/http
		// would find that EOF only in its post-handler Body.Close — after it
		// has aborted the connection's background read — restart the read,
		// and panic on the connection's next request ("invalid concurrent
		// Body.Read call"). Reading the tail inside the handler puts the EOF
		// where net/http expects it; the bound is net/http's own.
		io.CopyN(io.Discard, body, maxPostHandlerReadBytes)
	}
}

// serialBody serializes reads of a request body: /bulk can return while a
// straggling corpus dispatcher is still inside a body read (corpus.Run
// never waits on a stalled source), and the post-handler drain must not
// read concurrently with it.
type serialBody struct {
	mu sync.Mutex
	io.ReadCloser
}

func (b *serialBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ReadCloser.Read(p)
}

// maxPostHandlerReadBytes is net/http's limit on the unread request body
// it consumes after a handler returns to keep the connection reusable.
const maxPostHandlerReadBytes = 256 << 10

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

// engine maps one q=/id= parameter pair — params is the request's URL
// query, parsed once by the handler — to the query's Engine from the
// compile cache and to the label the request's TTFR samples go under: the
// registered id, or the inline bucket for q= queries. Every error it
// returns is the client's (400).
func (s *Server) engine(params url.Values) (*gcx.Engine, string, error) {
	q, id := params.Get("q"), params.Get("id")
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

// body wraps the request body for engine consumption: size-limited,
// deadline-aware, and counted. The returned context carries the request
// deadline and must also guard the response writer: once the input hits
// EOF the engine performs no more reads, so without a write-side check a
// slow-reading client would keep the evaluation alive past the timeout.
// The returned cancel must be deferred.
func (s *Server) body(w http.ResponseWriter, r *http.Request) (io.Reader, context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	var in io.Reader = r.Body
	if s.cfg.MaxBodyBytes > 0 {
		in = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	return &countingReader{r: in, n: &s.m.bytesIn}, ctx, cancel
}

// countingReader feeds the service bytes-in counter. Cancellation is NOT
// checked here: handlers run the engine through the context-aware API
// (RunContext, Trace, BulkOptions.Context), which surfaces an
// expired deadline as a typed stream error the engine unwinds on.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// admitLength rejects a request whose DECLARED Content-Length already
// exceeds the body limit, before any evaluation starts. On the streaming
// paths the first result byte commits the status line within one input
// token, after which a mid-stream limit breach can only surface as a
// Gcx-Error trailer — so the one case where a clean 413 is still
// possible, a client that announced the oversize up front, must be
// decided here. Chunked uploads (unknown length) pass and hit the
// streaming limit.
func (s *Server) admitLength(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.MaxBodyBytes > 0 && r.ContentLength > s.cfg.MaxBodyBytes {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body of %d bytes exceeds the limit of %d bytes", r.ContentLength, s.cfg.MaxBodyBytes))
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.m.queryRequests.Add(1)
	if !s.admitLength(w, r) {
		return
	}
	eng, label, err := s.engine(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if r.Header.Get("Gcx-Trace") != "" {
		s.handleQueryTraced(w, r, eng, label)
		return
	}
	// The first result byte flushes while the request body is still being
	// read; without full duplex the HTTP/1 server would drain-and-discard
	// the unread body at that first flush, truncating the document under
	// the engine. (Best effort, same as /bulk: recorders and HTTP/2
	// either do not support or do not need it.)
	http.NewResponseController(w).EnableFullDuplex()
	in, ctx, cancel := s.body(w, r)
	defer cancel()

	// The result streams; the status line is committed before evaluation
	// finishes, so run statistics and late errors travel as trailers.
	w.Header().Set("Trailer", "Gcx-Stats, Gcx-Error")
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	out := &countingWriter{w: w, n: &s.m.bytesOut, ctx: ctx, flush: flusherOf(w)}
	stats, runErr := eng.RunContext(ctx, in, out)
	s.m.record(stats)
	s.m.observeTTFR(label, stats.TimeToFirstResultNanos)
	if runErr != nil {
		s.m.erroredRequests.Add(1)
		if out.written == 0 {
			// Nothing committed yet: a proper status line is still possible.
			h := w.Header()
			h.Del("Trailer")
			h.Del("Content-Type")
			s.failCode(w, runErr)
			return
		}
		w.Header().Set("Gcx-Error", runErr.Error())
	}
	if b, err := json.Marshal(stats); err == nil {
		w.Header().Set("Gcx-Stats", string(b))
	}
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
func (s *Server) handleQueryTraced(w http.ResponseWriter, r *http.Request, eng *gcx.Engine, label string) {
	limit := defaultTraceSteps
	if n, err := strconv.Atoi(r.Header.Get("Gcx-Trace")); err == nil && n >= 2 {
		limit = min(n, maxTraceSteps)
	}
	// Part 0 streams progressively; see handleQuery on full duplex.
	http.NewResponseController(w).EnableFullDuplex()
	in, ctx, cancel := s.body(w, r)
	defer cancel()

	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	rh := textproto.MIMEHeader{}
	rh.Set("Content-Type", "application/xml; charset=utf-8")
	rh.Set("Gcx-Part", "result")
	part0, err := mw.CreatePart(rh)
	if err != nil {
		return
	}
	out := &countingWriter{w: part0, n: &s.m.bytesOut, ctx: ctx, flush: flusherOf(w)}
	trace, runErr := eng.Trace(ctx, in, out, limit)
	s.m.record(trace.Stats)
	s.m.observeTTFR(label, trace.Stats.TimeToFirstResultNanos)
	if runErr != nil {
		s.m.erroredRequests.Add(1)
	}
	th := textproto.MIMEHeader{}
	th.Set("Content-Type", "application/json")
	th.Set("Gcx-Part", "trace")
	if runErr != nil {
		th.Set("Gcx-Error", runErr.Error())
	}
	tp, err := mw.CreatePart(th)
	if err != nil {
		return
	}
	writeJSONBody(tp, trace)
	mw.Close()
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

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	s.m.workloadRequests.Add(1)
	if !s.admitLength(w, r) {
		return
	}
	sel, err := s.selection(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	in, ctx, cancel := s.body(w, r)
	defer cancel()

	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.workloadJSON(w, ctx, sel, in)
		return
	}
	s.workloadMultipart(w, ctx, sel, in)
}

// selection resolves the request's pass against ONE registry generation:
// no parameters select the whole registered fleet; id=/q= parameters a
// selection registry — one subscription per selector, keyed by its
// position, ids first — memoized on the generation, so a repeated
// selection is a map lookup: no compile, no new pass.
func (s *Server) selection(params url.Values) (*selection, error) {
	g := s.reg.Load()
	ids, qs := params["id"], params["q"]
	if len(ids) == 0 && len(qs) == 0 {
		if len(g.fleet.subs) == 0 {
			return nil, errors.New("no queries: registry is empty and no id=/q= given")
		}
		return &g.fleet, nil
	}
	key := selectionKey(ids, qs)
	g.mu.Lock()
	sel := g.memo[key]
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
	g.memo[key] = sel // a concurrent miss may overwrite it: both are valid
	return sel, nil
}

// selectionKey encodes a selection injectively: every selector is its
// kind, its length and its text, so no text — one holding a NUL or a
// length-looking prefix included — can make two selections collide. The
// order is kept: it is the response order.
func selectionKey(ids, qs []string) string {
	var b []byte
	for kind, list := range [][]string{ids, qs} {
		for _, x := range list {
			b = strconv.AppendInt(append(b, "iq"[kind]), int64(len(x)), 10) // i for id=, q for q=
			b = append(append(b, ':'), x...)
		}
	}
	return string(b)
}

// runPass runs sel into outs (outs[i] receives label i's result) and does
// what both response shapes share: the service counters, each label's
// time-to-first-result — every subscription of the shared pass has its own
// writer, so per-label TTFR is measured, not apportioned; registered ids
// land in their own histogram, inline queries in "inline" — and the error
// list, all from THIS run's return value (never from state another
// request could have written).
func (s *Server) runPass(ctx context.Context, sel *selection, in io.Reader, outs []io.Writer) (workloadResponse, error) {
	rs, runErr := sel.reg.RunContext(ctx, in, gcx.SinkFunc(func(sub *gcx.Subscription) io.Writer {
		return outs[sel.pos[sub]]
	}))
	s.m.record(rs.Aggregate)
	// The run reports one QueryStats per distinct text; the response
	// carries one per label (labels sharing a text repeat their group's).
	perLabel := make([]gcx.QueryStats, len(sel.subs))
	for i, sub := range sel.subs {
		perLabel[i], _ = rs.Query(sub)
	}
	resp := workloadResponse{IDs: sel.labels, Stats: gcx.RegistryStats{
		Aggregate:     rs.Aggregate,
		Queries:       perLabel,
		Groups:        rs.Groups,
		Subscriptions: rs.Subscriptions,
	}}
	for i, q := range perLabel {
		s.m.observeTTFR(sel.ttfr[i], q.TimeToFirstResultNanos)
		if q.Err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", sel.labels[i], q.Err))
		}
	}
	if runErr != nil {
		s.m.erroredRequests.Add(1)
	}
	return resp, runErr
}

// workloadJSON buffers every result and responds with one JSON object.
// Convenient for programmatic clients; large results belong in the
// multipart path.
func (s *Server) workloadJSON(w http.ResponseWriter, ctx context.Context, sel *selection, in io.Reader) {
	bufs := make([]bytes.Buffer, len(sel.labels))
	outs := make([]io.Writer, len(sel.labels))
	for i := range bufs {
		outs[i] = &countingWriter{w: &bufs[i], n: &s.m.bytesOut}
	}
	resp, runErr := s.runPass(ctx, sel, in, outs)
	// Nothing has been committed yet on this (fully buffered) path, so a
	// failure of the shared stream itself — which interrupts every member
	// — gets a proper status code, same as /query. A partial failure (some
	// members completed) stays 200 with the error list.
	if runErr != nil && len(resp.Errors) >= len(resp.Stats.Queries) {
		s.failCode(w, runErr)
		return
	}
	for i := range bufs {
		resp.Results = append(resp.Results, bufs[i].String())
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, resp)
}

// workloadMultipart streams a multipart/mixed response: the FIRST
// label's part is created up front and receives its bytes progressively
// along the shared pass (multipart parts are sequential, so later results
// buffer until the pass completes, exactly like cmd/gcx's stdout
// discipline); the final part carries the stats JSON.
func (s *Server) workloadMultipart(w http.ResponseWriter, ctx context.Context, sel *selection, in io.Reader) {
	// Part 0 streams progressively; see handleQuery on full duplex.
	http.NewResponseController(w).EnableFullDuplex()
	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())

	part0, err := mw.CreatePart(partHeader(0, sel.labels[0], "application/xml; charset=utf-8"))
	if err != nil {
		return
	}
	bufs := make([]bytes.Buffer, len(sel.labels))
	outs := make([]io.Writer, len(sel.labels))
	outs[0] = &countingWriter{w: part0, n: &s.m.bytesOut, ctx: ctx, flush: flusherOf(w)}
	for i := 1; i < len(outs); i++ {
		outs[i] = &countingWriter{w: &bufs[i], n: &s.m.bytesOut}
	}
	resp, runErr := s.runPass(ctx, sel, in, outs)
	for i := 1; i < len(outs); i++ {
		part, err := mw.CreatePart(partHeader(i, sel.labels[i], "application/xml; charset=utf-8"))
		if err != nil {
			return
		}
		if _, err := part.Write(bufs[i].Bytes()); err != nil {
			return
		}
	}
	sh := textproto.MIMEHeader{}
	sh.Set("Content-Type", "application/json")
	sh.Set("Gcx-Part", "stats")
	if runErr != nil {
		sh.Set("Gcx-Error", runErr.Error())
	}
	sp, err := mw.CreatePart(sh)
	if err != nil {
		return
	}
	writeJSONBody(sp, resp)
	mw.Close()
}

func partHeader(index int, label, contentType string) textproto.MIMEHeader {
	h := textproto.MIMEHeader{}
	h.Set("Content-Type", contentType)
	h.Set("Gcx-Query-Index", strconv.Itoa(index))
	h.Set("Gcx-Query-Id", label)
	return h
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, struct {
		IDs []string `json:"ids"`
	}{IDs: s.reg.Load().IDs()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.writeJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.writeProm(w)
}

// fail responds with a plain-text error before any body bytes were
// committed.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.m.erroredRequests.Add(1)
	http.Error(w, "gcxd: "+err.Error(), code)
}

// failCode classifies a run error that occurred before the first output
// byte: body too large, evaluation timeout, client gone, or bad input.
// Classification is typed (errors.Is against the gcx error vocabulary),
// never message matching.
func (s *Server) failCode(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr), errors.Is(err, gcx.ErrTooLarge):
		http.Error(w, "gcxd: "+err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "gcxd: evaluation timeout: "+err.Error(), http.StatusRequestTimeout)
	default:
		// Bad input, or the client is gone (context.Canceled) and nobody
		// reads this status.
		http.Error(w, "gcxd: "+err.Error(), http.StatusBadRequest)
	}
}

// writeJSONBody encodes v to w; encode errors mean the client is gone
// and are deliberately dropped.
func writeJSONBody(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v)
}

// countingWriter forwards writes and counts bytes (per-request commit
// detection and the service bytes-out counter). When ctx is set, an
// expired deadline fails the write: after the input reaches EOF the
// engine performs no more reads, so this is what bounds the
// result-emission phase for a slow-reading client. When flush is set,
// the engine's first-result flush propagates through FlushResult so the
// byte crosses the transport instead of waiting in the ResponseWriter's
// buffers.
type countingWriter struct {
	w       io.Writer
	n       *atomic.Int64
	written int64
	ctx     context.Context
	flush   http.Flusher
}

// FlushResult implements xmlstream.ResultFlusher: called (through the
// engine's writer) once the first result byte is certain, and per /bulk
// part by the handler. Committing the status line here is deliberate —
// it is the moment the response stops being retractable.
func (c *countingWriter) FlushResult() {
	if c.flush != nil {
		c.flush.Flush()
	}
}

// flusherOf extracts the transport flush capability of a ResponseWriter
// (nil when the writer cannot flush — e.g. some recorders; the
// first-result flush then degrades to the engine's bufio drain).
func flusherOf(w http.ResponseWriter) http.Flusher {
	f, _ := w.(http.Flusher)
	return f
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return 0, fmt.Errorf("request aborted: %w", err)
		}
	}
	n, err := c.w.Write(p)
	c.written += int64(n)
	c.n.Add(int64(n))
	return n, err
}
