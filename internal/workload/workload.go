// Package workload evaluates a set of compiled XQ queries over ONE pass of
// a shared XML stream (see DESIGN.md, "Shared-stream workloads").
//
// The paper's pipeline — projection tree, role table, signOff-driven
// purging — is defined per query, but nothing in it prevents sharing the
// input scan: projection trees union cleanly (static.MergeTrees) and roles
// are renumbered into disjoint per-query role spaces, so one tokenizer,
// one projector, and one buffer serve every member query at once. Each
// member keeps its own evaluator and output writer; a round-robin
// coroutine scheduler (sched.go) advances each evaluator as the data it
// blocks on arrives, preserving the member's solo output byte for byte.
//
// Garbage collection degrades gracefully to the multi-query setting with
// no new machinery: a buffered node carries role instances from every
// interested query, and the buffer's existing refcount discipline reclaims
// it only when the last of them is signed off — per-query aggregate-role
// refcounts on shared subtrees.
package workload

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/eval"
	"gcx/internal/obs"
	"gcx/internal/proj"
	"gcx/internal/projtree"
	"gcx/internal/static"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Config controls workload compilation. Every member query is compiled
// with the same engine configuration (mode, optimizations, schema): the
// shared projector runs one merged projection tree, so the matching
// discipline must be uniform across members.
type Config struct {
	Engine engine.Config
	// Batch is the number of tokens the scheduler feeds per round once
	// every live evaluator is blocked on the stream (default 64; see
	// sched.go). Tests use 1 to reproduce the solo demand schedule
	// token-exactly.
	Batch int
	// DisjointMerge selects the pre-sharing projection-tree merge
	// (static.MergeTreesDisjoint): member subtrees cloned verbatim, so
	// matching cost is linear in the member count. It is the comparator
	// for the subscription-scaling benchmark and a diagnostic fallback;
	// production workloads use the shared merge.
	DisjointMerge bool
}

// Compiled is a set of queries compiled into one shared serving artifact.
// All exported fields are immutable after Compile; runs draw their mutable
// machinery from an internal pool, so a single Compiled may serve many
// goroutines at once (each Run is one sequential pass).
type Compiled struct {
	// Members are the per-query compilations (diagnostics, solo runs).
	Members []*engine.Compiled
	// Tree is the combined projection tree the shared projector runs with.
	Tree *projtree.Tree
	// Offsets[i] translates member i's solo role IDs into the combined
	// role space (see static.MergeTrees).
	Offsets []xqast.Role
	Mode    engine.Mode

	roleCounts []int
	schema     *dtd.Schema
	tokOpts    xmlstream.Options
	aggMatch   bool
	agg        []bool
	batch      int
	pool       sync.Pool
}

// Compile compiles each query solo and merges the projection trees into
// the shared artifact.
func Compile(srcs []string, cfg Config) (*Compiled, error) {
	if len(srcs) == 0 {
		return nil, errors.New("workload: no queries")
	}
	members := make([]*engine.Compiled, len(srcs))
	for i, src := range srcs {
		m, err := engine.Compile(src, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		members[i] = m
	}
	return CompileMembers(members, cfg)
}

// CompileMembers assembles the shared artifact from already-compiled
// member queries. All members must have been compiled with the same
// engine configuration (mode, optimizations, schema): the shared
// projector runs one merged projection tree, so the matching discipline
// must be uniform. The members are reused as-is — the subscription
// registry rebuilds its snapshot on churn without recompiling surviving
// queries.
func CompileMembers(members []*engine.Compiled, cfg Config) (*Compiled, error) {
	if len(members) == 0 {
		return nil, errors.New("workload: no queries")
	}
	trees := make([]*projtree.Tree, len(members))
	for i, m := range members {
		trees[i] = m.MatchTree
	}
	var merged *projtree.Tree
	var offsets []xqast.Role
	if cfg.DisjointMerge {
		merged, offsets = static.MergeTreesDisjoint(trees)
	} else {
		merged, offsets = static.MergeTrees(trees)
	}

	c := &Compiled{
		Members: members,
		Tree:    merged,
		Offsets: offsets,
		Mode:    cfg.Engine.Mode,
		schema:  cfg.Engine.Schema,
		tokOpts: xmlstream.DefaultOptions(),
		batch:   cfg.Batch,
	}
	if cfg.Engine.Tokenizer != nil {
		c.tokOpts = *cfg.Engine.Tokenizer
	}
	c.roleCounts = make([]int, len(members))
	for i, m := range members {
		c.roleCounts[i] = len(m.MatchTree.Roles) - 1
	}
	// Aggregate flags and the matching discipline mirror engine.Compile;
	// members all share one static configuration, so member 0 is
	// representative.
	c.aggMatch = c.Mode == engine.ModeFullBuffer || members[0].Analysis.Opts.AggregateRoles
	c.agg = make([]bool, len(merged.Roles))
	for i, r := range merged.Roles {
		if i > 0 && r.Aggregate {
			c.agg[i] = true
		}
	}
	return c, nil
}

// Len returns the number of member queries.
func (c *Compiled) Len() int { return len(c.Members) }

// Stats aggregates the shared-pass measurements in the solo engine's own
// stats type, so callers convert one shape: the buffer accounting is
// necessarily global (members share the buffer), TokensRead counts the
// single pass, OutputBytes sums the members, and TTFRNanos is the time to
// the FIRST result byte any member produced (0 when none emitted output).
type Stats = engine.Stats

// QueryStats reports one member's share of a run.
type QueryStats struct {
	// OutputBytes is the member's serialized output.
	OutputBytes int64
	// SignOffs counts the member's executed signOff statements.
	SignOffs int64
	// RoleAssignments / RoleRemovals count role instances in the member's
	// role space (assignments equal removals after a clean GCX run).
	RoleAssignments int64
	RoleRemovals    int64
	// TokensAtDone is the shared stream position when the member's
	// evaluator completed — how much of the input this query needed.
	TokensAtDone int64
	// TTFRNanos is the time from pass start to this member's first
	// result byte (0 if the member produced no output): members emit
	// progressively along the shared pass, so each has its own
	// time-to-first-result.
	TTFRNanos int64
	// WallNanos is the time from pass start to this member's evaluator
	// completing — when the member's LAST result byte was available.
	WallNanos int64
	// Err is the member's evaluation error, if any.
	Err error
}

// runState bundles the mutable machinery of one shared pass: the solo
// runState of PR 1 with the writer/evaluator pair fanned out per member
// and the scheduler in place of the direct evaluator→projector wiring.
type runState struct {
	syms  *xmlstream.SymTab
	buf   *buffer.Buffer
	tok   *xmlstream.Tokenizer
	proj  *proj.Projector
	sched *scheduler
	ws    []*xmlstream.Writer
	evs   []*eval.Evaluator
	// onSign are the per-member signOff counting hooks, built once so
	// pooled reruns do not allocate closures.
	onSign []func(xqast.SignOff)
}

// maxRetainedSyms bounds the pooled symbol table across runs (same cap as
// the solo engine).
const maxRetainedSyms = 4096

func (c *Compiled) newRunState() *runState {
	n := len(c.Members)
	syms := xmlstream.NewSymTab()
	buf := buffer.New(syms, len(c.Tree.Roles)-1, c.agg)
	tokOpts := c.tokOpts
	tokOpts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, tokOpts)
	p := proj.New(tok, buf, c.Tree, proj.Options{
		AggregateRoles: c.aggMatch,
		Schema:         c.schema,
		BorrowedText:   true,
	})
	rs := &runState{
		syms:   syms,
		buf:    buf,
		tok:    tok,
		proj:   p,
		sched:  newScheduler(p, n, c.batch),
		ws:     make([]*xmlstream.Writer, n),
		evs:    make([]*eval.Evaluator, n),
		onSign: make([]func(xqast.SignOff), n),
	}
	for i, m := range c.Members {
		t := rs.sched.tasks[i]
		w := xmlstream.NewWriter(io.Discard)
		ev := eval.New(buf, t, w, eval.Options{})
		rs.ws[i] = w
		rs.evs[i] = ev
		query := m.Analysis.Query
		t.exec = func() error { return ev.Run(query) }
		rs.onSign[i] = func(xqast.SignOff) { t.signOffs++ }
	}
	return rs
}

// acquire takes a runState from the pool and points it at this run's input
// and outputs.
func (c *Compiled) acquire(in io.Reader, outs []io.Writer) *runState {
	rs, _ := c.pool.Get().(*runState)
	if rs == nil {
		rs = c.newRunState()
	}
	rs.reset(c, in, outs)
	return rs
}

// reset points the runState at a new run's input and outputs. Reset order
// matches the solo engine: the projector rebuilds its root frame around
// the buffer's fresh root.
//
//gcxlint:keep onSign the per-member counting hooks are built once in newRunState and re-wired into each evaluator below
func (rs *runState) reset(c *Compiled, in io.Reader, outs []io.Writer) {
	rs.tok.Reset(in)
	rs.buf.Reset()
	// The symbol table survives runs (tag vocabularies repeat) but is
	// bounded. Safe only after buf.Reset — no buffered node carries a
	// Sym anymore.
	if rs.syms.Len() > maxRetainedSyms {
		rs.syms.Reset()
	}
	rs.proj.Reset()
	rs.sched.reset()
	for i := range rs.evs {
		rs.ws[i].Reset(outs[i])
		rs.evs[i].Reset(eval.Options{
			ExecuteSignOffs: c.Mode == engine.ModeGCX,
			Schema:          c.schema,
			RoleOffset:      c.Offsets[i],
			OnSignOff:       rs.onSign[i],
		})
	}
}

// release returns a runState to the pool, dropping caller references and
// buffered document text.
func (c *Compiled) release(rs *runState) {
	rs.tok.Reset(nil)
	for _, w := range rs.ws {
		w.Reset(io.Discard)
	}
	rs.buf.Reset()
	c.pool.Put(rs)
}

// Run evaluates every member query over the XML document read from in —
// tokenizing, projecting, and buffering it exactly once — writing member
// i's result to outs[i]. The outputs must be distinct writers: members
// produce their results concurrently along the pass. The returned error
// joins the members' evaluation errors (a stream-level error surfaces
// through every member it interrupted).
func (c *Compiled) Run(in io.Reader, outs []io.Writer) (Stats, []QueryStats, error) {
	st, qs, rs, err := c.run(in, outs)
	c.release(rs)
	return st, qs, err
}

// RunChecked is Run followed by the buffer balance and residue invariant
// checks (meaningful in ModeGCX only, as in the solo engine).
func (c *Compiled) RunChecked(in io.Reader, outs []io.Writer) (Stats, []QueryStats, error) {
	st, qs, rs, err := c.run(in, outs)
	defer c.release(rs)
	if err == nil && c.Mode == engine.ModeGCX {
		if err := rs.buf.CheckBalance(); err != nil {
			return st, qs, fmt.Errorf("%w\nbuffer:\n%s", err, rs.buf.Dump())
		}
		if err := rs.buf.CheckResidue(); err != nil {
			return st, qs, fmt.Errorf("%w\nbuffer:\n%s", err, rs.buf.Dump())
		}
	}
	return st, qs, err
}

func (c *Compiled) run(in io.Reader, outs []io.Writer) (Stats, []QueryStats, *runState, error) {
	if len(outs) != len(c.Members) {
		panic(fmt.Sprintf("workload: %d queries but %d output writers", len(c.Members), len(outs)))
	}
	start := obs.Now()
	rs := c.acquire(in, outs)
	rs.sched.run()

	st := Stats{
		Buffer:     rs.buf.Stats(),
		TokensRead: rs.proj.TokensRead(),
		WallNanos:  obs.Now() - start,
	}
	qs := make([]QueryStats, len(c.Members))
	var errs []error
	for i := range c.Members {
		t := rs.sched.tasks[i]
		q := QueryStats{
			OutputBytes:  rs.ws[i].BytesWritten(),
			SignOffs:     t.signOffs,
			TokensAtDone: t.tokensAtDone,
			Err:          t.err,
		}
		// Each member writer stamped its own first result byte along the
		// shared pass; the aggregate TTFR is the earliest of them. A
		// member whose bytes never left its bufio (failed before any
		// flush) answered nothing and reports no TTFR.
		if fb := rs.ws[i].FirstByteAt(); fb > 0 && rs.ws[i].Delivered() > 0 {
			q.TTFRNanos = max(fb-start, 1)
			if st.TTFRNanos == 0 || q.TTFRNanos < st.TTFRNanos {
				st.TTFRNanos = q.TTFRNanos
			}
		}
		if t.doneAt > 0 {
			q.WallNanos = max(t.doneAt-start, 1)
		}
		for r := c.Offsets[i] + 1; r <= c.Offsets[i]+xqast.Role(c.roleCounts[i]); r++ {
			q.RoleAssignments += rs.buf.AssignedCount(r)
			q.RoleRemovals += rs.buf.RemovedCount(r)
		}
		st.OutputBytes += q.OutputBytes
		qs[i] = q
		if t.err != nil {
			errs = append(errs, fmt.Errorf("query %d: %w", i, t.err))
		}
	}
	return st, qs, rs, errors.Join(errs...)
}

// Explain renders the per-member compilation diagnostics followed by the
// merged projection tree and combined role table.
func (c *Compiled) Explain() string {
	var b strings.Builder
	for i, m := range c.Members {
		fmt.Fprintf(&b, "=== query %d (roles +%d) ===\n%s\n", i, c.Offsets[i], m.Explain())
	}
	b.WriteString("=== merged projection tree ===\n")
	b.WriteString(c.Tree.Format())
	b.WriteString("\nmerged roles:\n")
	b.WriteString(c.Tree.FormatRoles())
	return b.String()
}
