// Package gcx is a streaming XQuery engine with active garbage collection,
// reproducing
//
//	Michael Schmidt, Stefanie Scherzinger, Christoph Koch.
//	"Combined Static and Dynamic Analysis for Effective Buffer
//	Minimization in Streaming XQuery Evaluation." ICDE 2007.
//
// The engine evaluates the practical XQuery fragment XQ (arbitrarily
// nested for-loops, conditions, joins — composition-free XQuery) over XML
// streams with minimal buffering: static analysis derives a projection
// tree and a set of roles, the input stream is projected on the fly with
// roles assigned to buffered nodes, and statically inserted signOff
// statements actively purge nodes the moment they become irrelevant to the
// rest of the evaluation.
//
// Quick start:
//
//	eng, err := gcx.Compile(`<out>{
//	    for $b in /bib/book return
//	        if (exists($b/price)) then $b/title else ()
//	}</out>`)
//	if err != nil { ... }
//	stats, err := eng.Run(inputReader, os.Stdout)
//	fmt.Printf("peak buffer: %d nodes\n", stats.PeakBufferNodes)
//
// Three buffering strategies are available for comparison (see
// DESIGN.md): the full GCX technique, projection without garbage
// collection (StaticOnly), and full document buffering (FullBuffer).
package gcx

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/static"
	"gcx/internal/xmarkdtd"
)

// Strategy selects the buffer management technique.
type Strategy int

const (
	// GCX is the paper's technique: stream projection plus active garbage
	// collection driven by signOff statements.
	GCX Strategy = iota
	// StaticOnly projects the stream but never purges the buffer —
	// "static analysis alone" (the projection strategy of Galax [13]).
	StaticOnly
	// FullBuffer loads the entire document into the buffer — the naive
	// in-memory baseline.
	FullBuffer
)

// String names the strategy.
func (s Strategy) String() string { return s.mode().String() }

func (s Strategy) mode() engine.Mode {
	switch s {
	case StaticOnly:
		return engine.ModeStaticOnly
	case FullBuffer:
		return engine.ModeFullBuffer
	default:
		return engine.ModeGCX
	}
}

// Option configures compilation.
type Option func(*config)

type config struct {
	configKey
	schema *dtd.Schema // schemaSrc parsed, at compile time
}

// configKey is everything an Option can set — the compilation-relevant
// configuration — as a comparable value, so a CompileCache can key entries
// by (query text, options). Two textually identical DTDs parse
// identically, so the source stands for the schema.
type configKey struct {
	strategy  Strategy
	static    static.Options
	schemaSrc string
}

// defaultConfigKey is the configuration no option changes.
func defaultConfigKey() configKey {
	return configKey{strategy: GCX, static: static.AllOptimizations()}
}

// newConfig applies opts over the defaults. It is cheap and free of side
// effects (WithDTD defers its parse), so CompileCache key derivation runs
// it on every lookup that names options.
func newConfig(opts []Option) config {
	cfg := config{configKey: defaultConfigKey()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// compileConfig is newConfig plus the deferred DTD parse: the one option
// assembly behind Compile and NewRegistry.
func compileConfig(opts []Option) (config, error) {
	cfg := newConfig(opts)
	if cfg.schemaSrc != "" {
		s, err := dtd.Parse(cfg.schemaSrc)
		if err != nil {
			return cfg, err
		}
		cfg.schema = s
	}
	return cfg, nil
}

// engine renders the configuration for the internal compiler.
func (c *config) engine() engine.Config {
	return engine.Config{Mode: c.strategy.mode(), Static: &c.static, Schema: c.schema}
}

// WithStrategy selects the buffering strategy (default GCX).
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithoutEarlyUpdates disables the early-update rewriting (Section 6 of
// the paper): output roles are then released at scope ends instead of
// immediately after each node is emitted.
func WithoutEarlyUpdates() Option {
	return func(c *config) { c.static.EarlyUpdates = false }
}

// WithoutAggregateRoles disables aggregate roles (Section 6): subtree
// relevance is then tracked with one role instance per buffered node.
func WithoutAggregateRoles() Option {
	return func(c *config) { c.static.AggregateRoles = false }
}

// WithoutRedundantRoleElimination disables redundant-role elimination
// (Section 6, Figure 12).
func WithoutRedundantRoleElimination() Option {
	return func(c *config) { c.static.EliminateRedundantRoles = false }
}

// WithoutOptimizations disables all Section 6 optimizations, yielding the
// paper's base technique (whose rewritten queries match the paper's
// figures verbatim).
func WithoutOptimizations() Option {
	return func(c *config) { c.static = static.Options{} }
}

// WithDTD supplies a document type definition, enabling schema-aware early
// region termination: blocking cursors stop as soon as the content model
// proves no further match can arrive, instead of scanning to the end of
// the input, and an exists() condition the content models prove or
// refute is answered as soon as its bound node is. This is the capability of the schema-based systems the paper
// compares against ([11]); results are unchanged, only less input is read.
// Supplying a DTD asserts that inputs are valid against it.
//
// The DTD is parsed at compile time, not at option-application time, so
// CompileCache key derivation (which applies options on every lookup)
// stays cheap; a malformed DTD surfaces as a Compile error.
func WithDTD(dtdSource string) Option {
	return func(c *config) { c.schemaSrc = dtdSource }
}

// XMarkDTD is the schema of the documents produced by cmd/xmarkgen, for
// use with WithDTD in benchmarks and examples.
const XMarkDTD = xmarkdtd.DTD

// Stats reports the measurements of one run. The buffer high watermark is
// the paper's primary metric. The JSON field names are stable for
// benchmark and CI scraping (cmd/gcx -stats-json).
type Stats struct {
	// PeakBufferNodes is the high watermark of simultaneously buffered
	// nodes.
	PeakBufferNodes int64 `json:"peak_buffer_nodes"`
	// PeakBufferBytes is the high watermark of estimated buffered bytes.
	PeakBufferBytes int64 `json:"peak_buffer_bytes"`
	// BufferedTotal is the total number of nodes ever copied into the
	// buffer (projection effectiveness).
	BufferedTotal int64 `json:"buffered_total"`
	// PurgedTotal is the total number of nodes reclaimed by active
	// garbage collection.
	PurgedTotal int64 `json:"purged_total"`
	// SignOffs is the number of executed signOff statements.
	SignOffs int64 `json:"sign_offs"`
	// TokensRead is the number of stream tokens consumed.
	TokensRead int64 `json:"tokens_read"`
	// OutputBytes is the number of serialized result bytes.
	OutputBytes int64 `json:"output_bytes"`
	// TimeToFirstResultNanos is the time from run start to the first
	// result byte entering the output writer — the serving-tier latency
	// metric: how long buffering held results back before they started
	// to flow. A run that produced no output has no first result: the
	// field is 0 and absent from JSON, never a fake "0ns latency"
	// observation.
	TimeToFirstResultNanos int64 `json:"time_to_first_result_nanos,omitempty"`
	// EvalWallNanos is the run's evaluation wall time.
	EvalWallNanos int64 `json:"eval_wall_nanos"`
}

// clearTiming zeroes the wall-clock fields, leaving only the
// deterministic measurements. Tests and tools that compare run stats for
// exact equality (pooled-run determinism, bulk-vs-solo equivalence) use
// it: timing is legitimately different on every run.
func (s *Stats) clearTiming() {
	s.TimeToFirstResultNanos = 0
	s.EvalWallNanos = 0
}

// Deterministic returns a copy of the stats with the wall-clock fields
// zeroed, for exact-equality comparison across runs.
func (s Stats) Deterministic() Stats {
	s.clearTiming()
	return s
}

// Engine is a compiled query, safe for concurrent use by multiple
// goroutines.
//
// Concurrency contract (see DESIGN.md): a single evaluation is strictly
// sequential — the paper's evaluation semantics — but a compiled Engine
// holds only immutable analysis results plus a pool of recycled run
// states (tokenizer, buffer arena, projector, evaluator, writer), so any
// number of Run calls may proceed in parallel. After warm-up, repeated
// runs allocate almost nothing: the run state is reused and the buffer's
// node arena is reclaimed wholesale between runs.
type Engine struct {
	c *engine.Compiled
}

// Compile parses, rewrites, and statically analyzes a query.
//
// The accepted surface syntax is the fragment XQ of the paper (Figure 6)
// plus conveniences that are normalized away: where-clauses, multi-step
// paths, @attr steps (attributes are converted to subelements, matching
// the engine's input adaptation), string/numeric literals, and comments.
func Compile(query string, opts ...Option) (*Engine, error) {
	cfg, err := compileConfig(opts)
	if err != nil {
		return nil, err
	}
	c, err := engine.Compile(query, cfg.engine())
	if err != nil {
		return nil, queryError("", err)
	}
	return &Engine{c: c}, nil
}

// MustCompile is Compile panicking on error, for tests and examples with
// constant queries.
func MustCompile(query string, opts ...Option) *Engine {
	e, err := Compile(query, opts...)
	if err != nil {
		panic(fmt.Sprintf("gcx: MustCompile: %v", err))
	}
	return e
}

// Run evaluates the query over the XML document read from in, writing the
// serialized result to out. It is RunContext with context.Background().
func (e *Engine) Run(in io.Reader, out io.Writer) (Stats, error) {
	return e.RunContext(context.Background(), in, out)
}

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline expires, the evaluation unwinds promptly and the returned
// error matches ErrCanceled (and the context's own error). A nil,
// context.Background or context.TODO ctx adds no overhead — Run is
// RunContext with context.Background(); any other ctx is checked on
// every read, without asking it for its Done channel.
//
// Cancellation is delivered where the engine already handles failure: the
// stream read. The input is read through a corpus.Guard — the reader a
// bulk run puts in front of every document and Registry.RunContext in
// front of its pass — kept in the pooled run state, so guarding costs no
// allocation. Its next read after cancellation fails, and the evaluation
// unwinds like on any other input failure: no goroutine is abandoned, the
// pooled run state is recycled normally.
func (e *Engine) RunContext(ctx context.Context, in io.Reader, out io.Writer) (Stats, error) {
	st, err := e.c.Trace(ctx, in, out, nil)
	return convertStats(st), err
}

// RunString evaluates over an in-memory document and returns the result.
func (e *Engine) RunString(doc string) (string, Stats, error) {
	var out strings.Builder
	st, err := e.Run(strings.NewReader(doc), &out)
	return out.String(), st, err
}

// Explain returns the compilation diagnostics: variable tree, dependency
// sets, projection tree, role table, and the rewritten query with signOff
// statements — the artifacts of the paper's Figures 1, 8, 9 and 12 for
// this query.
func (e *Engine) Explain() string { return e.c.Explain() }

// Trace is RunContext that additionally records the buffer contents after
// every consumed token and executed signOff — the step-by-step view of the
// paper's Figure 2. After limit steps the evaluation continues but further
// steps are dropped and the log is marked truncated; limit <= 0 records
// every step, a snapshot per token. On cancellation the returned error
// matches ErrCanceled, as RunContext's does.
func (e *Engine) Trace(ctx context.Context, in io.Reader, out io.Writer, limit int) (TraceLog, error) {
	// Steps starts non-nil: a run that records nothing marshals as [].
	tr := &engine.Tracer{Limit: limit, Steps: []TraceStep{}}
	st, err := e.c.Trace(ctx, in, out, tr)
	return TraceLog{Steps: tr.Steps, Truncated: tr.Truncated, Stats: convertStats(st)}, err
}

// TraceLog is the record of one traced run. Its JSON form is the trace
// part gcxd returns for a Gcx-Trace request.
type TraceLog struct {
	Steps []TraceStep `json:"steps"`
	// Truncated reports that the step limit dropped at least one event.
	Truncated bool  `json:"truncated"`
	Stats     Stats `json:"stats"`
}

// String renders the steps as `gcx -trace` prints them: each event, then
// the buffer after it, one `  | `-prefixed line per buffered node.
func (l TraceLog) String() string { return engine.FormatSteps(l.Steps) }

// TraceStep is one event of a traced run: Event describes the trigger
// (`read <tag>` or `signOff($x, rN)`), Buffer is the buffer tree with role
// annotations after it, in the notation of the paper's Figure 2.
type TraceStep = engine.TraceStep

func convertStats(st engine.Stats) Stats {
	return Stats{
		PeakBufferNodes:        st.Buffer.PeakNodes,
		PeakBufferBytes:        st.Buffer.PeakBytes,
		BufferedTotal:          st.Buffer.NodesAppended,
		PurgedTotal:            st.Buffer.NodesDeleted,
		SignOffs:               st.Buffer.SignOffs,
		TokensRead:             st.TokensRead,
		OutputBytes:            st.OutputBytes,
		TimeToFirstResultNanos: st.TTFRNanos,
		EvalWallNanos:          st.WallNanos,
	}
}
