package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/eval"
	"gcx/internal/obs"
	"gcx/internal/proj"
	"gcx/internal/projtree"
	"gcx/internal/static"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Pass is a set of compiled queries evaluated over ONE pass of an XML
// stream: the only run path of the engine (see DESIGN.md, "The pass
// runtime"). One tokenizer, one projector and one buffer serve every
// member; each member keeps its own evaluator and output writer.
//
// A solo query is the one-member pass (Compiled.Run goes through its own):
// the member's projection tree is used as is and its evaluator pulls the
// projector directly, on the caller's goroutine. With more members the
// projection trees are merged (static.MergeTrees) into per-query role
// spaces and a round-robin coroutine scheduler (sched.go) advances each
// evaluator as the data it blocks on arrives, preserving every member's
// solo output byte for byte. The member count alone selects the wiring.
//
// Garbage collection needs no new machinery for the multi-query setting:
// a buffered node carries role instances from every interested query, and
// the buffer's refcount discipline reclaims it only when the last of them
// is signed off.
//
// All exported fields are immutable after NewPass; runs draw their mutable
// machinery from an internal pool, so a single Pass may serve many
// goroutines at once (each Run is one sequential pass).
type Pass struct {
	// Members are the per-query compilations. They share one engine
	// configuration (mode, optimizations, schema): the projector runs one
	// projection tree, so the matching discipline must be uniform.
	Members []*Compiled
	// Tree is the projection tree the projector runs with.
	Tree *projtree.Tree
	// Offsets[i] translates member i's solo role IDs into Tree's role
	// space (see static.MergeTrees; zero for a one-member pass).
	Offsets []xqast.Role
	Mode    Mode

	schema   *dtd.Schema
	aggMatch bool
	agg      []bool
	batch    int
	// pool recycles runStates across runs: after warm-up, a run allocates
	// (almost) nothing beyond what the document forces it to buffer.
	pool sync.Pool
}

// CompilePass compiles each query solo and assembles the pass; batch is
// NewPass's.
func CompilePass(srcs []string, cfg Config, batch int) (*Pass, error) {
	members := make([]*Compiled, len(srcs))
	for i, src := range srcs {
		m, err := Compile(src, cfg)
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		members[i] = m
	}
	return NewPass(members, batch)
}

// NewPass assembles a pass from already-compiled members, reused as is —
// the subscription registry rebuilds its snapshot on churn without
// recompiling surviving queries. batch is the number of tokens the
// scheduler feeds per round once every live evaluator is blocked on the
// stream (≤0: defaultBatch, see sched.go; tests use 1 to reproduce the
// solo demand schedule token-exactly). A one-member pass has no scheduler
// and ignores it.
func NewPass(members []*Compiled, batch int) (*Pass, error) {
	if len(members) == 0 {
		return nil, errors.New("workload: no queries")
	}
	// Mode, schema and the matching discipline are the members' common
	// configuration, so member 0 is representative.
	m0 := members[0]
	p := &Pass{
		Members:  members,
		Tree:     m0.MatchTree,
		Offsets:  make([]xqast.Role, 1),
		Mode:     m0.Mode,
		schema:   m0.schema,
		aggMatch: m0.Mode == ModeFullBuffer || m0.Analysis.Opts.AggregateRoles,
		batch:    batch,
	}
	if len(members) > 1 {
		trees := make([]*projtree.Tree, len(members))
		for i, m := range members {
			trees[i] = m.MatchTree
		}
		p.Tree, p.Offsets = static.MergeTrees(trees)
	}
	p.agg = make([]bool, len(p.Tree.Roles))
	for i, r := range p.Tree.Roles {
		if i > 0 && r.Aggregate {
			p.agg[i] = true
		}
	}
	return p, nil
}

// Len returns the number of member queries.
func (p *Pass) Len() int { return len(p.Members) }

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

// maxRetainedSyms bounds the pooled symbol table across runs.
const maxRetainedSyms = 4096

// runState bundles the mutable per-run machinery of one pass — the chain
// of Figure 11: the tokenizer, the symbol table, the buffer (with its node
// arena), the projector, and one output writer/evaluator pair per member.
// A runState is owned by exactly one run at a time and recycled through
// Pass.pool.
type runState struct {
	syms *xmlstream.SymTab
	buf  *buffer.Buffer
	tok  *xmlstream.Tokenizer
	proj *proj.Projector
	// sched interleaves the evaluators of a multi-member pass; nil with one
	// member, whose evaluator pulls the projector itself.
	sched *scheduler
	// tasks[i] runs member i's evaluator and records how it went.
	tasks []*task
	ws    []*xmlstream.Writer
	evs   []*eval.Evaluator
	// onSign are the per-member signOff counting hooks, built once so
	// pooled reruns do not allocate closures.
	onSign []func(xqast.SignOff)
	// start is the obs.Now timestamp the run began at.
	start int64
}

// newRunState constructs the chain of Figure 11 once; subsequent runs
// reset it in place. The tokenizer lends text tokens to the projector
// (BorrowText); what is kept, the buffer copies into its own text slab.
func (p *Pass) newRunState() *runState {
	n := len(p.Members)
	syms := xmlstream.NewSymTab()
	buf := buffer.New(syms, len(p.Tree.Roles)-1, p.agg)
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	pr := proj.New(tok, buf, p.Tree, proj.Options{
		AggregateRoles: p.aggMatch,
		Schema:         p.schema,
	})
	rs := &runState{
		syms:   syms,
		buf:    buf,
		tok:    tok,
		proj:   pr,
		ws:     make([]*xmlstream.Writer, n),
		evs:    make([]*eval.Evaluator, n),
		onSign: make([]func(xqast.SignOff), n),
	}
	// The one wiring choice: a scheduler earns its place only when more
	// than one evaluator shares the stream. A lone evaluator is fed by the
	// projector directly and run inline (see run).
	if n > 1 {
		rs.sched = newScheduler(pr, n, p.batch)
		rs.tasks = rs.sched.tasks
	} else {
		rs.tasks = []*task{{}}
	}
	for i, m := range p.Members {
		t := rs.tasks[i]
		var feed eval.Feeder = t
		if rs.sched == nil {
			feed = pr
		}
		w := xmlstream.NewWriter(io.Discard)
		ev := eval.New(buf, feed, w, eval.Options{})
		rs.ws[i] = w
		rs.evs[i] = ev
		query := m.Analysis.Query
		t.exec = func() error { return ev.Run(query) }
		rs.onSign[i] = func(xqast.SignOff) { t.signOffs++ }
	}
	return rs
}

// reset points the runState at a new run's input, outputs, and hooks.
// Reset order matters: the projector rebuilds its root frame around the
// buffer's fresh root.
//
//gcxlint:keep onSign the per-member counting hooks are built once in newRunState and re-wired into each evaluator below
func (rs *runState) reset(p *Pass, start int64, in io.Reader, outs []io.Writer, ro RunOptions) {
	rs.start = start
	rs.tok.Reset(in)
	rs.buf.Reset()
	// The symbol table survives runs (tag vocabularies repeat) but is
	// bounded: documents with generated per-document names must not grow
	// a pooled run state without limit. Safe only after buf.Reset — no
	// buffered node carries a Sym anymore — and only before the run: each
	// evaluator interns its query's vocabulary into whatever table this
	// leaves as it starts (the symbols it resolves are per run, never kept).
	if rs.syms.Len() > maxRetainedSyms {
		rs.syms.Reset()
	}
	rs.proj.Reset()
	if rs.sched != nil {
		rs.sched.reset()
	}
	for i := range rs.evs {
		rs.tasks[i].reset()
		rs.ws[i].Reset(outs[i])
		evOpts := eval.Options{
			ExecuteSignOffs: p.Mode == ModeGCX,
			Schema:          p.schema,
			RoleOffset:      p.Offsets[i],
			OnSignOff:       rs.onSign[i],
		}
		if ro.Trace != nil {
			ro.Trace.install(&evOpts, rs.buf, rs.proj)
		}
		rs.evs[i].Reset(evOpts)
	}
}

// release returns a runState to the pool, dropping the references to the
// caller's reader and writers, and resetting the buffer so the idle pool
// does not pin the document's buffered text.
func (p *Pass) release(rs *runState) {
	rs.tok.Reset(nil)
	for _, w := range rs.ws {
		w.Reset(io.Discard)
	}
	rs.buf.Reset()
	p.pool.Put(rs)
}

// run executes one pass on a pooled run state and stamps the aggregate
// stats: the buffer accounting is necessarily global (members share the
// buffer), TokensRead counts the single pass, OutputBytes sums the members
// and TTFRNanos is the time to the FIRST result byte any member delivered.
// The members' own outcomes stay on rs.tasks; the caller releases rs. A
// panic (a member's output writer, say) surfaces on the calling goroutine
// with rs never returned to the pool.
func (p *Pass) run(in io.Reader, outs []io.Writer, ro RunOptions) (Stats, *runState) {
	if len(outs) != len(p.Members) {
		panic(fmt.Sprintf("workload: %d queries but %d output writers", len(p.Members), len(outs)))
	}
	start := obs.Now()
	rs, _ := p.pool.Get().(*runState)
	if rs == nil {
		rs = p.newRunState()
	}
	rs.reset(p, start, in, outs, ro)
	if rs.sched != nil {
		rs.sched.run()
	} else {
		t := rs.tasks[0]
		t.err = t.exec()
		t.finish(rs.proj)
	}
	st := Stats{
		Buffer:     rs.buf.Stats(),
		TokensRead: rs.proj.TokensRead(),
		WallNanos:  obs.Now() - start,
	}
	for _, w := range rs.ws {
		st.OutputBytes += w.BytesWritten()
		if t := ttfr(w, start); t > 0 && (st.TTFRNanos == 0 || t < st.TTFRNanos) {
			st.TTFRNanos = t
		}
	}
	return st, rs
}

// ttfr is the time from start to w's first result byte. The writer stamped
// that byte as it was produced; a run with no output has no first result
// (0), and neither has a failed run whose buffered bytes never reached the
// destination — nothing was answered, so there is no answer latency.
func ttfr(w *xmlstream.Writer, start int64) int64 {
	if fb := w.FirstByteAt(); fb > 0 && w.Delivered() > 0 {
		return max(fb-start, 1)
	}
	return 0
}

// queryStats reads the per-member breakdown of the run rs just served and
// joins the members' evaluation errors (a stream-level error surfaces
// through every member it interrupted).
func (p *Pass) queryStats(rs *runState) ([]QueryStats, error) {
	qs := make([]QueryStats, len(p.Members))
	var errs []error
	for i, m := range p.Members {
		t := rs.tasks[i]
		q := QueryStats{
			OutputBytes:  rs.ws[i].BytesWritten(),
			SignOffs:     t.signOffs,
			TokensAtDone: t.tokensAtDone,
			TTFRNanos:    ttfr(rs.ws[i], rs.start),
			Err:          t.err,
		}
		if t.doneAt > 0 {
			q.WallNanos = max(t.doneAt-rs.start, 1)
		}
		for r := p.Offsets[i] + 1; r <= p.Offsets[i]+xqast.Role(len(m.MatchTree.Roles)-1); r++ {
			q.RoleAssignments += rs.buf.AssignedCount(r)
			q.RoleRemovals += rs.buf.RemovedCount(r)
		}
		qs[i] = q
		if t.err != nil {
			errs = append(errs, fmt.Errorf("query %d: %w", i, t.err))
		}
	}
	return qs, errors.Join(errs...)
}

// Run evaluates every member query over the XML document read from in —
// tokenizing, projecting, and buffering it exactly once — writing member
// i's result to outs[i]. The outputs must be distinct writers: members
// produce their results progressively along the pass. A Pass is safe for
// concurrent use: each Run draws its own pooled run state; the run itself
// is strictly sequential (the paper's evaluation semantics).
func (p *Pass) Run(in io.Reader, outs []io.Writer) (Stats, []QueryStats, error) {
	st, rs := p.run(in, outs, RunOptions{})
	qs, err := p.queryStats(rs)
	p.release(rs)
	return st, qs, err
}

// RunChecked is Run followed by a check of the role assignment/removal
// balance (Section 3's safety requirements: every assigned role instance
// is removed, and the buffer is empty after evaluation). Only meaningful
// in ModeGCX; other modes skip the check by design.
func (p *Pass) RunChecked(in io.Reader, outs []io.Writer) (Stats, []QueryStats, error) {
	st, rs := p.run(in, outs, RunOptions{})
	defer p.release(rs)
	qs, err := p.queryStats(rs)
	if err == nil && p.Mode == ModeGCX {
		if err = rs.buf.CheckBalance(); err == nil {
			err = rs.buf.CheckResidue()
		}
		if err != nil {
			err = fmt.Errorf("%w\nbuffer:\n%s", err, rs.buf.Dump())
		}
	}
	return st, qs, err
}

// Explain renders the per-member compilation diagnostics followed by the
// pass's projection tree and role table.
func (p *Pass) Explain() string {
	var b strings.Builder
	for i, m := range p.Members {
		fmt.Fprintf(&b, "=== query %d (roles +%d) ===\n%s\n", i, p.Offsets[i], m.Explain())
	}
	b.WriteString("=== merged projection tree ===\n")
	b.WriteString(p.Tree.Format())
	b.WriteString("\nmerged roles:\n")
	b.WriteString(p.Tree.FormatRoles())
	return b.String()
}
