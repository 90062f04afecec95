package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"gcx/internal/buffer"
	"gcx/internal/corpus"
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
	// batch is the number of tokens the scheduler feeds per round once
	// every live evaluator is blocked on the stream. Production passes
	// leave it 0 (defaultBatch, see sched.go); tests set 1 to reproduce
	// the solo demand schedule token-exactly. A one-member pass has no
	// scheduler and ignores it.
	batch int
	// pool recycles runStates across runs: after warm-up, a run allocates
	// (almost) nothing beyond what the document forces it to buffer.
	pool sync.Pool
	// last points weakly at the run state released most recently: where
	// acquire looks when the pool has nothing for it. sync.Pool keeps what
	// a goroutine Puts in a slot private to the P it ran on, so a caller
	// issuing one run after another misses its own state whenever the
	// scheduler moved it to another P in between, and used to build a
	// second one — about 1 MB for a join over 2 MB (DESIGN.md, "Pooled run
	// state"). The pool stays the only strong reference: an idle state is
	// the collector's to drop exactly as before, and last then reads nil.
	last atomic.Pointer[weak.Pointer[runState]]
}

// NewPass assembles a pass from already-compiled members, reused as is —
// the subscription registry rebuilds its snapshot on churn without
// recompiling surviving queries.
func NewPass(members []*Compiled) (*Pass, error) {
	if len(members) == 0 {
		return nil, errors.New("engine: pass without members")
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

// QueryStats reports one member's share of a run. It is the type callers
// of the public API receive (gcx.QueryStats is this type), so a run builds
// its per-member breakdown once, in the slice it hands out; the JSON field
// names are stable for benchmark and CI scraping.
type QueryStats struct {
	// OutputBytes is the member's serialized output.
	OutputBytes int64 `json:"output_bytes"`
	// SignOffs counts the member's executed signOff statements.
	SignOffs int64 `json:"sign_offs"`
	// RoleAssignments and RoleRemovals count role instances in the
	// member's role space; after a clean GCX run they are equal.
	RoleAssignments int64 `json:"role_assignments"`
	RoleRemovals    int64 `json:"role_removals"`
	// TokensAtDone is the shared stream position when the member's
	// evaluation completed — how much of the input this query needed.
	TokensAtDone int64 `json:"tokens_at_done"`
	// TimeToFirstResultNanos is the time from pass start to this member's
	// first result byte. Members emit progressively along the shared
	// pass, so each reports its own first-result latency; a member that
	// produced no output has none (0, absent from JSON).
	TimeToFirstResultNanos int64 `json:"time_to_first_result_nanos,omitempty"`
	// EvalWallNanos is the time from pass start to this member's
	// evaluation completing — when its LAST result byte was available.
	EvalWallNanos int64 `json:"eval_wall_nanos"`
	// Err is the member's evaluation error, if any (also joined into the
	// error returned by Run).
	Err error `json:"-"`
}

// writerBudget is what one run state spends on its members' output
// batching, divided among them: a member's writer gets the solo 32 KB
// while the members number eight or fewer and never less than
// minWriterBuffer. The solo size for every member would make a pooled run
// state grow with the group count — 2 MB of buffers at 64 members, 320 MB
// at 10k — for batching whose only job is to keep sink writes few.
const (
	writerBudget    = 256 << 10
	minWriterBuffer = 1 << 10
)

// runState bundles the mutable per-run machinery of one pass — the chain
// of Figure 11: the tokenizer, the buffer (with its node arena and the
// run's one symbol table, which the tokenizer interns into), the
// projector, and one output writer/evaluator pair per member.
// A runState is owned by exactly one run at a time — the one that flipped
// its idle flag (see Pass.acquire) — and recycled through Pass.pool.
type runState struct {
	buf  *buffer.Buffer
	tok  *xmlstream.Tokenizer
	proj *proj.Projector
	// sched interleaves the evaluators of a multi-member pass; nil with one
	// member, whose evaluator pulls the projector itself.
	sched *scheduler
	// tasks[i] holds member i's evaluator, runs it and records how it went;
	// ws[i] is its output writer. Both are built one slice per kind, as
	// are the evaluators (eval.NewEvaluators).
	tasks []task
	ws    []xmlstream.Writer
	// guard is what the run reads the input through when its context can
	// be canceled (corpus.Guard.Reset): kept here, it costs a run nothing.
	guard corpus.Guard
	// start is the obs.Now timestamp the run began at.
	start int64
	// idle is true from release until the next run claims the state. The
	// state can be reached through the pool and through Pass.last, and
	// through the pool more than once (a claim through last leaves the
	// pool's reference behind); flipping idle is what makes a run its
	// owner.
	idle atomic.Bool
	// self is what Pass.last points at while this state is the one
	// released last: made once, so that a release allocates nothing.
	self *weak.Pointer[runState]
}

// newRunState constructs the chain of Figure 11 once; subsequent runs
// reset it in place. The tokenizer lends text tokens to the projector
// (BorrowText); what is kept, the buffer copies into its own text slab.
func (p *Pass) newRunState() *runState {
	n := len(p.Members)
	buf := buffer.New(xmlstream.NewSymTab(), len(p.Tree.Roles)-1, p.agg)
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	pr := proj.New(tok, buf, p.Tree, proj.Options{
		AggregateRoles: p.aggMatch,
		Schema:         p.schema,
	})
	wsize := min(max(writerBudget/n, minWriterBuffer), xmlstream.DefaultWriterBuffer)
	rs := &runState{
		buf:  buf,
		tok:  tok,
		proj: pr,
		ws:   xmlstream.NewWriters(n, wsize),
	}
	// The one wiring choice: a scheduler earns its place only when more
	// than one evaluator shares the stream. A lone evaluator is fed by the
	// projector directly and run inline (see run).
	if n > 1 {
		rs.sched = newScheduler(pr, n, p.batch)
		rs.tasks = rs.sched.tasks
	} else {
		rs.tasks = make([]task, 1)
	}
	feeds := make([]eval.Feeder, n)
	queries := make([]*xqast.Query, n)
	for i, m := range p.Members {
		if rs.sched != nil {
			feeds[i] = &rs.tasks[i]
		} else {
			feeds[i] = pr
		}
		queries[i] = m.Analysis.Query
	}
	evs := eval.NewEvaluators(buf, feeds, rs.ws, queries)
	for i := range rs.tasks {
		rs.tasks[i].ev = &evs[i]
		rs.tasks[i].query = queries[i]
	}
	self := weak.Make(rs)
	rs.self = &self
	return rs
}

// reset points the runState at a new run's input — through the guard
// when ctx can be canceled — outputs, and tracer. Reset order matters:
// the buffer drops every node, and with them every Sym, before the
// tokenizer may empty the symbol table (Tokenizer.Reset bounds it), and
// both before an evaluator interns its query's vocabulary, as its run
// starts; the projector rebuilds its root frame around the buffer's fresh
// root (and drops the last run's observer).
//
//gcxlint:keep idle the ownership flag: acquire clears it, release sets it
//gcxlint:keep self the state's own weak pointer, made once in newRunState
func (rs *runState) reset(ctx context.Context, p *Pass, start int64, in io.Reader, outs []io.Writer, tr *Tracer) {
	rs.start = start
	rs.buf.Reset()
	rs.tok.Reset(rs.guard.Reset(ctx, in))
	rs.proj.Reset()
	if rs.sched != nil {
		rs.sched.reset()
	}
	var onSignOff func(xqast.SignOff)
	if tr != nil {
		onSignOff = tr.install(rs.buf, rs.proj)
	}
	for i := range rs.tasks {
		rs.tasks[i].reset()
		rs.ws[i].Reset(outs[i])
		rs.tasks[i].ev.Reset(eval.Options{
			ExecuteSignOffs: p.Mode == ModeGCX,
			Schema:          p.schema,
			RoleOffset:      p.Offsets[i],
			OnSignOff:       onSignOff,
		})
	}
}

// release returns a runState to the pool, dropping the references to the
// caller's context, reader, writers and tracer, and resetting the buffer,
// the projector and the evaluators so the idle pool pins nothing of the
// document and keeps no more than their retention caps allow.
func (p *Pass) release(rs *runState) {
	rs.buf.Reset()
	rs.tok.Reset(nil)
	rs.guard = corpus.Guard{}
	for i := range rs.ws {
		rs.ws[i].Reset(io.Discard)
	}
	rs.proj.Reset()
	for i := range rs.tasks {
		rs.tasks[i].ev.Reset(eval.Options{})
	}
	rs.idle.Store(true)
	p.pool.Put(rs)
	p.last.Store(rs.self)
}

// acquire returns an idle runState, building one if there is none: from
// the pool, else — the pool finds nothing on this P — the one released
// last, if the pool still holds it somewhere. Whichever way a state is
// reached, the run that flips its idle flag owns it; a pool reference to a
// state claimed through last is stale and is dropped here when it turns
// up.
func (p *Pass) acquire() *runState {
	for {
		rs, _ := p.pool.Get().(*runState)
		if rs == nil {
			break
		}
		if rs.idle.CompareAndSwap(true, false) {
			return rs
		}
	}
	if w := p.last.Load(); w != nil {
		if rs := w.Value(); rs != nil && rs.idle.CompareAndSwap(true, false) {
			return rs
		}
	}
	return p.newRunState()
}

// run executes one pass on a pooled run state and stamps the aggregate
// stats: the buffer accounting is necessarily global (members share the
// buffer), TokensRead counts the single pass, OutputBytes sums the members
// and TTFRNanos is the time to the FIRST result byte any member delivered.
// The members' own outcomes stay on rs.tasks; the caller releases rs. A
// panic (a member's output writer, say) surfaces on the calling goroutine
// with rs never returned to the pool. A ctx that can be canceled bounds the
// run as Compiled.Trace describes.
func (p *Pass) run(ctx context.Context, in io.Reader, outs []io.Writer, tr *Tracer) (Stats, *runState) {
	if len(outs) != len(p.Members) {
		panic(fmt.Sprintf("engine: pass of %d members given %d output writers", len(p.Members), len(outs)))
	}
	start := obs.Now()
	rs := p.acquire()
	rs.reset(ctx, p, start, in, outs, tr)
	if rs.sched != nil {
		rs.sched.run()
	} else {
		t := &rs.tasks[0]
		t.err = t.exec()
		t.finish(rs.proj)
	}
	st := Stats{
		Buffer:     rs.buf.Stats(),
		TokensRead: rs.proj.TokensRead(),
		WallNanos:  obs.Now() - start,
	}
	for i := range rs.ws {
		w := &rs.ws[i]
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

// queryStats reads the per-member breakdown of the run rs just served into
// qs's storage (a fresh slice if it is too short) and joins the members'
// evaluation errors (a stream-level error surfaces through every member it
// interrupted).
func (p *Pass) queryStats(rs *runState, qs []QueryStats) ([]QueryStats, error) {
	qs = slices.Grow(qs[:0], len(p.Members))[:len(p.Members)]
	var errs []error
	for i, m := range p.Members {
		t := &rs.tasks[i]
		q := QueryStats{
			OutputBytes:  rs.ws[i].BytesWritten(),
			SignOffs:     t.ev.SignOffs(),
			TokensAtDone: t.tokensAtDone,
			Err:          t.err,

			TimeToFirstResultNanos: ttfr(&rs.ws[i], rs.start),
		}
		if t.doneAt > 0 {
			q.EvalWallNanos = max(t.doneAt-rs.start, 1)
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
	return p.RunInto(context.Background(), in, outs, nil)
}

// RunInto is Run bounded by ctx, as Compiled.Trace is, with the
// per-member breakdown written into qs's storage when it has room for
// every member, so a caller evaluating document after document (a bulk
// run's slot) reuses one slice.
func (p *Pass) RunInto(ctx context.Context, in io.Reader, outs []io.Writer, qs []QueryStats) (Stats, []QueryStats, error) {
	st, rs := p.run(ctx, in, outs, nil)
	qs, err := p.queryStats(rs, qs)
	p.release(rs)
	return st, qs, err
}

// RunChecked is Run followed by a check of the role assignment/removal
// balance (Section 3's safety requirements: every assigned role instance
// is removed, and the buffer is empty after evaluation). Only meaningful
// in ModeGCX; other modes skip the check by design.
func (p *Pass) RunChecked(in io.Reader, outs []io.Writer) (Stats, []QueryStats, error) {
	st, rs := p.run(context.Background(), in, outs, nil)
	defer p.release(rs)
	qs, err := p.queryStats(rs, nil)
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
