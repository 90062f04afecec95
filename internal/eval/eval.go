// Package eval implements the GCX query evaluator (Section 6, Figure 11):
// a strictly sequential, pull-based interpreter for rewritten XQ queries.
//
// The evaluator walks the buffer tree. Whenever it needs data that is not
// buffered yet (the next node of a for-loop, a witness for an existence
// check, the completion of a subtree that is being serialized), it blocks
// and drives the stream pre-projector token by token until the data is
// available or the relevant region is finished — the chain of commands of
// Figure 11. SignOff statements are forwarded to the buffer manager, which
// performs the role updates and invokes active garbage collection.
package eval

import (
	"hash/maphash"
	"slices"
	"strings"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Feeder supplies more input to the buffer; implemented by the stream
// projector. Step processes one token and reports false at end of input.
type Feeder interface {
	Step() (bool, error)
}

// Options configures an evaluator run.
type Options struct {
	// ExecuteSignOffs enables active garbage collection. The StaticOnly
	// baseline ("static analysis alone") disables it: the buffer then
	// holds the full projected document, as in projection-based systems
	// [13].
	ExecuteSignOffs bool
	// Schema, when non-nil, lets cursors terminate regions early and
	// exists() answer what the content models decide (schemaDecides);
	// it must match the projector's schema.
	Schema *dtd.Schema
	// RoleOffset is added to every signOff role ID before it reaches the
	// buffer. Solo runs leave it zero; shared-stream workloads compile each
	// member query against its own role space within a combined role table
	// (static.MergeTrees), and the rewritten query's role IDs — assigned by
	// the member's solo analysis — are translated here at execution time.
	RoleOffset xqast.Role
	// OnSignOff, if set, is invoked after each executed signOff statement
	// (the tracer; SignOffs counts them either way).
	OnSignOff func(s xqast.SignOff)
}

// Evaluator evaluates one query over one document. The query is resolved
// (xqast.Resolve): variables are slots of env, tag-name tests index syms,
// comparisons index sites — nothing on the evaluation path is keyed by a
// string. An Evaluator can be reused for further runs via Reset once its
// buffer, feeder, and writer have been reset; the environment, the cursor
// freelist and the operand scratch are retained, so repeated evaluations
// are allocation-free after warm-up.
type Evaluator struct {
	buf  *buffer.Buffer
	feed Feeder
	out  *xmlstream.Writer
	opts Options
	// env holds the variable bindings by slot; epoch[slot] changes
	// whenever the slot is rebound, which is what invalidates the operand
	// values a comparison site collected under the previous binding.
	env   []*buffer.Node
	epoch []uint64
	// syms[id] is the symbol of the query's Names[id] in this run's symbol
	// table, interned when the run starts (bind): every name test compares
	// two integers.
	syms []xmlstream.Sym
	// cursors recycles cursors (one is consumed per for-loop, existence
	// check, and value collection — the per-binding hot path).
	cursors cursors
	// sites[c.Site] keeps the collected (right-hand) operand of comparison
	// c: a nested-loop join evaluates one comparison per PAIR of bindings,
	// but the collected operand changes only when its own variable
	// rebinds, so it is collected and classified once per binding and
	// reused for every pair. The left side streams through compareStream
	// and never materializes.
	sites []site
	// cmpOp/cmpRHS/cmpSite carry the active comparison through
	// compareStream's recursion without closures (closures would allocate
	// on the join hot path). Comparisons never nest — a Compare condition
	// has no sub-conditions — so one set of fields suffices.
	cmpOp   xqast.RelOp
	cmpRHS  xqast.Operand
	cmpSite int
	// joins[f.Join.Table] is join loop f's probe table (join.go); keys is
	// the scratch its build collects one binding's key values into, and
	// seed hashes the keys.
	joins []joinTable
	keys  []atom
	seed  maphash.Seed
	// firstFlushed records that the first result byte has been pushed
	// through the writer's batching toward the destination. Armed in pull
	// rather than at write time so a run that fails on its very first
	// input token still produces zero client-visible bytes.
	firstFlushed bool
	// wait is what the evaluator asked for input on: the node whose next
	// child, completion or schema fact it is blocked for, with that node's
	// change stamp at the time of asking (see pull). A shared pass's
	// scheduler reads both while the evaluator is parked in its feeder
	// (CanProceed). nil after a descendant-axis wait, whose matches appear
	// below nodes the evaluator cannot name, and between runs.
	wait      *buffer.Node
	waitStamp uint32
	// work counts inner-loop operations for the deterministic work gates
	// (read by tests only).
	work work
}

// site is one comparison's collected operand: vals is complete for the
// binding epoch it was collected under (collectValues blocks until the
// operand's region is finished), so reuse within that binding cannot
// change an answer. It holds text, never nodes — nothing here keeps a
// buffer node linked or pinned.
type site struct {
	epoch uint64 // 0: nothing collected
	vals  []atom
}

// work is the evaluator's deterministic cost record for one run.
type work struct {
	compares    int64 // atom pairs compared
	collections int64 // collected-operand sequences built
	nameLookups int64 // string-keyed symbol table accesses (bind's interning)
	waits       int64 // blocking episodes begun (a loop's first pull)
	entries     int64 // probe table entries built
	probes      int64 // probe table lookups, one per probe value
	tableBytes  int64 // probe table arrays built (entries and buckets): evaluator scratch, not buffer bytes
	signOffs    int64 // signOff statements executed
}

// New creates an evaluator writing query output to out.
func New(buf *buffer.Buffer, feed Feeder, out *xmlstream.Writer, opts Options) *Evaluator {
	return &Evaluator{buf: buf, feed: feed, out: out, opts: opts,
		seed: maphash.MakeSeed()}
}

// siteValues is the room for operand values each comparison site, and
// each join's key scratch, of NewEvaluators' evaluators starts with: most
// operands have one value.
const siteValues = 4

// NewEvaluators returns the evaluators of a pass over buf, evaluator i
// reading through feeds[i], writing to outs[i] and sized for qs[i]. They
// are built in one allocation per kind — the evaluators, each of their
// per-query tables, their operand scratch, their first cursor chunks —
// not several each, so a cold pass costs what its members share, not
// what each of them holds.
func NewEvaluators(buf *buffer.Buffer, feeds []Feeder, outs []xmlstream.Writer, qs []*xqast.Query) []Evaluator {
	var slots, names, sites, joins int
	for _, q := range qs {
		slots += q.Slots
		names += len(q.Names)
		sites += q.Sites
		joins += q.Joins
	}
	evs := make([]Evaluator, len(qs))
	env := make([]*buffer.Node, slots)
	epoch := make([]uint64, slots)
	syms := make([]xmlstream.Sym, names)
	siteArr := make([]site, sites)
	joinArr := make([]joinTable, joins)
	vals := make([]atom, (sites+joins)*siteValues)
	curs := make([]cursor, len(qs)*cursorChunk)
	chunks := make([][]cursor, len(qs))
	carve := func() []atom {
		v := vals[:0:siteValues]
		vals = vals[siteValues:]
		return v
	}
	for i, q := range qs {
		chunks[i] = curs[i*cursorChunk : (i+1)*cursorChunk : (i+1)*cursorChunk]
		for j := range siteArr[:q.Sites] {
			siteArr[j].vals = carve()
		}
		var keys []atom
		if q.Joins > 0 {
			keys = carve()
		}
		evs[i] = Evaluator{buf: buf, feed: feeds[i], out: &outs[i],
			env:     env[:0:q.Slots],
			epoch:   epoch[:0:q.Slots],
			syms:    syms[:0:len(q.Names)],
			sites:   siteArr[:0:q.Sites],
			joins:   joinArr[:0:q.Joins],
			keys:    keys,
			cursors: cursors{chunks: chunks[i : i+1 : i+1]},
			seed:    maphash.MakeSeed()}
		env, epoch, syms = env[q.Slots:], epoch[q.Slots:], syms[len(q.Names):]
		siteArr, joinArr = siteArr[q.Sites:], joinArr[q.Joins:]
	}
	return evs
}

// Reset prepares the evaluator for another run. opts are replaced
// wholesale so a per-run hook (the tracer) does not leak across runs; the
// per-query tables are emptied here and filled again by Run.
//
//gcxlint:keep buf wired at construction; the owner resets the buffer separately
//gcxlint:keep feed wired at construction; the owner resets the projector separately
//gcxlint:keep out wired at construction; the owner re-targets the writer separately
//gcxlint:keep seed a hash seed holds nothing of a run
func (e *Evaluator) Reset(opts Options) {
	e.opts = opts
	clear(e.epoch)
	clear(e.syms)
	e.work = work{}
	e.firstFlushed = false
	e.cmpOp, e.cmpSite = 0, 0
	// An errored run can abandon a comparison mid-stream; make sure the
	// pooled evaluator retains no operand strings either way.
	e.cmpRHS = xqast.Operand{}
	e.waitStamp = 0
	e.cursors.reset()
	e.dropScratch()
}

// Run evaluates the resolved query q (xqast.Resolve) and flushes the
// output writer. The buffer must already be reset: the root binding is
// read from it.
func (e *Evaluator) Run(q *xqast.Query) error {
	// The operand scratch holds views of buffered document text; drop them
	// when the evaluation ends (normally, with an error, or by panic) so a
	// pooled idle evaluator pins no document data.
	defer e.dropScratch()
	if err := e.bind(q); err != nil {
		return err
	}
	// Not e.expr(q.Root): boxing the root constructor into an xqast.Expr
	// would be the run's one avoidable allocation.
	if err := e.element(q.Root); err != nil {
		return err
	}
	return e.out.Flush()
}

// bind sizes the evaluator's tables for q (allocating only when q is
// larger than anything run before) and resolves q's names against THIS
// run's symbol table: the one place a tag name is hashed. It runs when
// the run starts, after the owner's reset, so a symbol table the owner
// flushed between runs is simply resolved afresh, and interning the
// vocabulary ahead of the document costs no allocation once the table
// has seen it.
func (e *Evaluator) bind(q *xqast.Query) error {
	if q.Slots == 0 {
		return &Error{Msg: "query is not resolved (xqast.Resolve)", Detail: q}
	}
	e.env = slices.Grow(e.env[:0], q.Slots)[:q.Slots]
	e.epoch = slices.Grow(e.epoch[:0], q.Slots)[:q.Slots]
	e.syms = slices.Grow(e.syms[:0], len(q.Names))[:len(q.Names)]
	e.sites = slices.Grow(e.sites[:0], q.Sites)[:q.Sites]
	e.joins = slices.Grow(e.joins[:0], q.Joins)[:q.Joins]
	e.env[0] = e.buf.Root() // the rest is nil: every run ends in dropScratch
	for i := range e.epoch {
		e.epoch[i] = 1
	}
	for i, name := range q.Names {
		e.syms[i] = e.buf.Syms().Intern(name)
	}
	e.work.nameLookups += int64(len(q.Names))
	return nil
}

// maxRetainedOperandValues bounds the values each comparison site, and
// the key scratch, keeps room for across runs: an operand with more
// values grows its scratch again in the next run that has one. No Table 1
// query outgrows the siteValues NewEvaluators carves.
const maxRetainedOperandValues = 64

// dropScratch forgets the bindings and the wait, empties every site's
// collected operand and the key scratch (see dropValues), and every probe
// table.
//
//gcxlint:noalloc
func (e *Evaluator) dropScratch() {
	clear(e.env)
	e.wait = nil
	for i := range e.sites {
		s := &e.sites[i]
		s.vals = dropValues(s.vals)
		s.epoch = 0
	}
	for i := range e.joins {
		e.joins[i].reset()
	}
	e.keys = dropValues(e.keys)
}

// dropValues empties an operand scratch over its full capacity (re-slicing
// alone would keep the string headers beyond the current length alive for
// as long as the evaluator sits in its pool), and forgets it altogether
// once it has grown past maxRetainedOperandValues.
//
//gcxlint:noalloc
func dropValues(v []atom) []atom {
	if cap(v) > maxRetainedOperandValues {
		return nil
	}
	clear(v[:cap(v)])
	return v[:0]
}

// pull drives the projector by one token. It returns false when the input
// is exhausted. on is the node the caller's loop is blocked on — every
// blocking site is a "for !cond { pull }" loop whose condition reads one
// node — or nil when no single node decides it; first marks the loop's
// first pull. Both are recorded BEFORE the feeder is asked: in a shared
// pass Step parks this goroutine, and the scheduler decides from the
// record whether waking it can change anything (CanProceed).
//
// pull is also the earliest-answering flush point: once a result byte
// exists AND at least one input token has been consumed successfully, the
// byte is certain — nothing upstream can retract it — so it is pushed
// through the writer's batching (and the destination's, via
// ResultFlusher) instead of riding the batch until end of run. Doing
// this between tokens means the flush never lands mid-tag, and gating it
// on a successful Step keeps a request that dies on its very first token
// free of committed output (the server's clean-4xx path depends on that).
//
//gcxlint:noalloc
func (e *Evaluator) pull(on *buffer.Node, first bool) (bool, error) {
	e.wait = on
	if on != nil {
		e.waitStamp = on.Stamp()
	}
	if first {
		e.work.waits++
	}
	more, err := e.feed.Step()
	if err != nil {
		return false, err
	}
	if !e.firstFlushed && e.out.FirstByteAt() != 0 {
		e.firstFlushed = true
		e.out.FlushFirst()
	}
	return more, nil
}

// CanProceed reports whether an evaluator parked in its feeder's Step
// could do anything if it were resumed: what it waits on changed, it
// waits on nothing the scheduler can watch, or its first result byte is
// still waiting for pull's FlushFirst (earliest answering must not be
// delayed by a round).
// False means a resume would re-evaluate the same loop condition over the
// same node state, find it false, and park again — nothing written,
// nothing signed off. The caller resumes regardless at end of input and
// on a stream error, which the evaluator learns from Step's result, not
// from the buffer.
//
// It reads fields the evaluator's goroutine wrote before parking; the
// scheduler's baton orders those writes before this read.
//
//gcxlint:noalloc
func (e *Evaluator) CanProceed() bool {
	n := e.wait
	return n == nil || n.Stamp() != e.waitStamp ||
		(!e.firstFlushed && e.out.FirstByteAt() != 0)
}

// SignOffs returns the number of signOff statements this run executed.
func (e *Evaluator) SignOffs() int64 { return e.work.signOffs }

// Progress is everything a resumed evaluator can move, as one comparable
// value: the wait record CanProceed decides from, the work counters
// (blocking episodes begun and signOffs executed among them), the output
// produced, and the shared buffer's accounting. A resume that was a
// no-op leaves it equal; the engine's wake-rule audit checks exactly
// that, and nothing else reads it.
type Progress struct {
	On           *buffer.Node
	Stamp        uint32
	Work         work
	Written      int64
	FirstFlushed bool
	Buffer       buffer.Stats
}

// Progress snapshots the evaluator's progress (see the type).
func (e *Evaluator) Progress() Progress {
	return Progress{
		On:           e.wait,
		Stamp:        e.waitStamp,
		Work:         e.work,
		Written:      e.out.BytesWritten(),
		FirstFlushed: e.firstFlushed,
		Buffer:       e.buf.Stats(),
	}
}

// waitFinished blocks until n's closing tag has been read.
//
//gcxlint:noalloc
func (e *Evaluator) waitFinished(n *buffer.Node) error {
	for first := true; !n.Finished(); first = false {
		if _, err := e.pull(n, first); err != nil {
			return err
		}
	}
	return nil
}

// expr evaluates one expression.
//
//gcxlint:allocok the dispatcher reaches output serialization and the unsupported-node error; the per-binding paths it leads to (forLoop, compare, cursors) carry their own noalloc
func (e *Evaluator) expr(x xqast.Expr) error {
	switch x := x.(type) {
	case nil, xqast.Empty:
		return nil
	case xqast.Sequence:
		for _, item := range x.Items {
			if err := e.expr(item); err != nil {
				return err
			}
		}
		return nil
	case xqast.Element:
		return e.element(x)
	case xqast.Text:
		e.out.Text(x.Data)
		return e.out.Err()
	case xqast.CondTag:
		ok, err := e.cond(x.Cond)
		if err != nil {
			return err
		}
		if ok {
			if x.Open {
				e.out.StartElement(x.Name)
			} else {
				e.out.EndElement(x.Name)
			}
		}
		return e.out.Err()
	case xqast.VarRef:
		return e.serialize(e.env[x.Slot])
	case xqast.PathExpr:
		return e.outputPath(x.Path)
	case xqast.For:
		return e.forLoop(x)
	case xqast.If:
		ok, err := e.cond(x.Cond)
		if err != nil {
			return err
		}
		if ok {
			return e.expr(x.Then)
		}
		return e.expr(x.Else)
	case xqast.SignOff:
		if !e.opts.ExecuteSignOffs {
			return nil
		}
		binding := e.env[x.Path.Slot]
		if err := e.buf.SignOff(binding, x.Path.Steps, e.syms, x.Role+e.opts.RoleOffset); err != nil {
			return err
		}
		e.work.signOffs++
		if e.opts.OnSignOff != nil {
			e.opts.OnSignOff(x)
		}
		return nil
	default:
		return errUnsupported(x)
	}
}

// element evaluates an element constructor.
func (e *Evaluator) element(x xqast.Element) error {
	e.out.StartElement(x.Name)
	if err := e.expr(x.Child); err != nil {
		return err
	}
	e.out.EndElement(x.Name)
	return e.out.Err()
}

func errUnsupported(x interface{}) error {
	return &Error{Msg: "unsupported expression in evaluator", Detail: x}
}

// Error is an evaluation failure.
type Error struct {
	Msg    string
	Detail interface{}
}

func (e *Error) Error() string { return "eval: " + e.Msg }

// forLoop iterates the binding sequence of a for-loop strictly
// sequentially, evaluating the body (including its trailing signOff batch)
// once per binding. Each binding opens a new epoch of the loop's slot:
// operand values collected below the previous binding are stale from here.
//
//gcxlint:noalloc
func (e *Evaluator) forLoop(f xqast.For) error {
	if f.Join != nil {
		if done, err := e.joinLoop(f); done || err != nil {
			return err
		}
	}
	cur := newCursor(e, e.env[f.In.Slot], f.In.Steps[0])
	defer cur.close()
	for {
		n, err := cur.next()
		if err != nil {
			return err
		}
		if n == nil {
			return nil
		}
		e.env[f.Slot] = n
		e.epoch[f.Slot]++
		if err := e.expr(f.Return); err != nil {
			return err
		}
		e.env[f.Slot] = nil
	}
}

// outputPath copies all matches of a single-step path to the output in
// document order (used when early updates are disabled).
func (e *Evaluator) outputPath(p xqast.Path) error {
	cur := newCursor(e, e.env[p.Slot], p.Steps[0])
	defer cur.close()
	for {
		n, err := cur.next()
		if err != nil {
			return err
		}
		if n == nil {
			return nil
		}
		if err := e.serialize(n); err != nil {
			return err
		}
	}
}

// serialize copies a buffered node (with its complete subtree) to the
// output, blocking for input while the subtree is unfinished. The subtree
// is guaranteed to be fully buffered by the output dependencies of the
// static analysis.
func (e *Evaluator) serialize(n *buffer.Node) error {
	switch n.Kind {
	case buffer.KindText:
		e.out.Text(n.Text)
		return e.out.Err()
	case buffer.KindElement:
		name := e.buf.Syms().Name(n.Sym)
		e.out.StartElement(name)
		var prev *buffer.Node
		for {
			c, err := e.nextChildBlocking(n, prev)
			if err != nil {
				return err
			}
			if c == nil {
				break
			}
			if err := e.serialize(c); err != nil {
				return err
			}
			prev = c
		}
		e.out.EndElement(name)
		return e.out.Err()
	default:
		// The virtual root: outputting $root copies the entire document.
		var prev *buffer.Node
		for {
			c, err := e.nextChildBlocking(n, prev)
			if err != nil {
				return err
			}
			if c == nil {
				return nil
			}
			if err := e.serialize(c); err != nil {
				return err
			}
			prev = c
		}
	}
}

// nextChildBlocking returns the child of parent following prev (or the
// first child if prev is nil), pulling input until one appears or parent
// finishes. During serialization no signOffs run, so links are stable.
//
//gcxlint:noalloc
func (e *Evaluator) nextChildBlocking(parent, prev *buffer.Node) (*buffer.Node, error) {
	for first := true; ; first = false {
		var c *buffer.Node
		if prev == nil {
			c = parent.FirstChild
		} else {
			c = prev.NextSib
		}
		if c != nil {
			return c, nil
		}
		if parent.Finished() {
			return nil, nil
		}
		if _, err := e.pull(parent, first); err != nil {
			return nil, err
		}
	}
}

// --- conditions ---

func (e *Evaluator) cond(c xqast.Cond) (bool, error) {
	switch c := c.(type) {
	case xqast.TrueCond:
		return true, nil
	case xqast.Not:
		v, err := e.cond(c.C)
		return !v, err
	case xqast.And:
		l, err := e.cond(c.L)
		if err != nil || !l {
			return false, err
		}
		return e.cond(c.R)
	case xqast.Or:
		l, err := e.cond(c.L)
		if err != nil || l {
			return l, err
		}
		return e.cond(c.R)
	case xqast.Exists:
		return e.exists(e.env[c.Path.Slot], c.Path.Steps)
	case xqast.Compare:
		return e.compare(c)
	default:
		return false, &Error{Msg: "unsupported condition", Detail: c}
	}
}

// exists searches for a witness of path steps below n, blocking until one
// is found or the relevant region is finished. The projection guarantees
// the first witness per context is buffered (the [1] predicate).
//
// With a DTD, the chain is first put to schemaDecides: a chain the
// content models prove present in every valid document is true, and one
// they prove absent is false, the moment the binding n is held — no
// witness event is waited for and no input is pulled toward one. The
// DTD only changes WHEN the answer is known, never what it is, so output
// bytes are untouched.
func (e *Evaluator) exists(n *buffer.Node, steps []xqast.Step) (bool, error) {
	if len(steps) == 0 {
		return true, nil
	}
	switch e.schemaDecides(n, steps) {
	case proven:
		return true, nil
	case refuted:
		return false, nil
	}
	cur := newCursor(e, n, steps[0])
	defer cur.close()
	for {
		m, err := cur.next()
		if err != nil {
			return false, err
		}
		if m == nil {
			return false, nil
		}
		ok, err := e.exists(m, steps[1:])
		if err != nil || ok {
			return ok, err
		}
	}
}

// verdict is what the DTD settles about a step chain below a node.
type verdict uint8

const (
	undecided verdict = iota
	proven
	refuted
)

// schemaDecides walks the step chain below n link by link, starting from
// n's tag, against the content models. The chain is proven when every
// link is a child-axis name test the parent's model cannot omit
// (Schema.MustContain), and refuted at the first link the parent's model
// excludes (CanContain known false). Anything the DTD does not pin down —
// no schema, a non-element context, a non-child axis, a star or text()
// test, an undeclared element, ANY content — is undecided. Runs per
// existence check and per cursor on the loop-body hot path, so it must
// not allocate.
//
//gcxlint:noalloc
func (e *Evaluator) schemaDecides(n *buffer.Node, steps []xqast.Step) verdict {
	s := e.opts.Schema
	if s == nil || n == nil || n.Kind != buffer.KindElement {
		return undecided
	}
	tag := e.buf.Syms().Name(n.Sym)
	all := true
	for _, st := range steps {
		if st.Axis != xqast.Child || st.Test.Kind != xqast.TestName {
			return undecided
		}
		if can, known := s.CanContain(tag, st.Test.Name); known && !can {
			return refuted
		}
		all = all && s.MustContain(tag, st.Test.Name)
		tag = st.Test.Name
	}
	if all {
		return proven
	}
	return undecided
}

// compare evaluates a general comparison with existential semantics over
// the operand sequences. Values compare numerically when both sides parse
// as numbers, lexicographically otherwise ("atomic equality" of Section 3
// extended to the RelOps of Figure 6).
//
// The left operand STREAMS: each of its values is compared as soon as its
// subtree closes, and the first satisfying pair answers the condition
// without collecting the remaining matches — earliest answering for
// value-based filters. The right operand is collected lazily, when the
// first left value appears (an empty left sequence is false without
// evaluating the right side, matching the all-at-once semantics), and
// then kept for as long as its variable stays bound (see site). A literal
// left operand is swapped to the collected side under the mirrored
// operator so the streaming side is always the path.
//
//gcxlint:noalloc
func (e *Evaluator) compare(c xqast.Compare) (bool, error) {
	lhs, op, rhs := c.LHS, c.Op, c.RHS
	if lhs.IsLiteral && !rhs.IsLiteral {
		lhs, rhs = rhs, lhs
		op = mirrorOp(op)
	}
	if lhs.IsLiteral {
		// Both sides literal (not produced by the normalizer, but cheap to
		// answer exactly).
		return compareValues(lhs.Lit, op, rhs.Lit), nil
	}
	e.cmpOp, e.cmpRHS, e.cmpSite = op, rhs, c.Site
	ok, err := e.compareStream(e.env[lhs.Path.Slot], lhs.Path.Steps)
	e.cmpRHS = xqast.Operand{} // do not retain operand strings in the pooled evaluator
	return ok, err
}

// compareStream walks the streamed operand's match set in document order
// and reports whether any value satisfies the active comparison,
// returning at the first hit. State lives on the evaluator (not in
// closures): compare runs once per binding pair in a nested-loop join.
//
//gcxlint:noalloc
func (e *Evaluator) compareStream(n *buffer.Node, steps []xqast.Step) (bool, error) {
	if len(steps) == 0 {
		v, err := e.stringValue(n)
		if err != nil {
			return false, err
		}
		vals, err := e.operandValues()
		if err != nil {
			return false, err
		}
		l := classify(v)
		for i := range vals {
			e.work.compares++
			if compareAtoms(l, e.cmpOp, vals[i]) {
				return true, nil
			}
		}
		return false, nil
	}
	cur := newCursor(e, n, steps[0])
	defer cur.close()
	for {
		m, err := cur.next()
		if err != nil {
			return false, err
		}
		if m == nil {
			return false, nil
		}
		ok, err := e.compareStream(m, steps[1:])
		if err != nil || ok {
			return ok, err
		}
	}
}

// mirrorOp returns the operator with its operands exchanged:
// a op b  ⇔  b mirrorOp(a).
//
//gcxlint:noalloc
func mirrorOp(op xqast.RelOp) xqast.RelOp {
	switch op {
	case xqast.OpLt:
		return xqast.OpGt
	case xqast.OpLe:
		return xqast.OpGe
	case xqast.OpGt:
		return xqast.OpLt
	case xqast.OpGe:
		return xqast.OpLe
	default: // = and != are symmetric
		return op
	}
}

// operandValues returns the classified value sequence of the active
// comparison's collected operand, collecting it only if the operand's
// variable was rebound since the site last did (a literal hangs off slot
// 0, the root, which never rebinds: it is classified once per run). The
// site's epoch is stamped after a complete collection only, so an error
// mid-collection leaves nothing reusable behind.
//
//gcxlint:noalloc
func (e *Evaluator) operandValues() ([]atom, error) {
	s := &e.sites[e.cmpSite]
	o := &e.cmpRHS
	if now := e.epoch[o.Path.Slot]; s.epoch != now {
		e.work.collections++
		var err error
		if o.IsLiteral {
			s.vals = append(s.vals[:0], classify(o.Lit))
		} else {
			s.vals, err = e.collectValues(e.env[o.Path.Slot], o.Path.Steps, s.vals[:0])
		}
		if err != nil {
			return nil, err
		}
		s.epoch = now
	}
	return s.vals, nil
}

//gcxlint:noalloc
func (e *Evaluator) collectValues(n *buffer.Node, steps []xqast.Step, out []atom) ([]atom, error) {
	if len(steps) == 0 {
		v, err := e.stringValue(n)
		if err != nil {
			return out, err
		}
		return append(out, classify(v)), nil
	}
	cur := newCursor(e, n, steps[0])
	defer cur.close()
	for {
		m, err := cur.next()
		if err != nil {
			return out, err
		}
		if m == nil {
			return out, nil
		}
		if out, err = e.collectValues(m, steps[1:], out); err != nil {
			return out, err
		}
	}
}

// stringValue computes the concatenated text content of a node, blocking
// until the subtree is complete (comparison dependencies buffer whole
// subtrees, so all text is present).
//
//gcxlint:noalloc
func (e *Evaluator) stringValue(n *buffer.Node) (string, error) {
	if n.Kind == buffer.KindText {
		return n.Text, nil
	}
	if err := e.waitFinished(n); err != nil {
		return "", err
	}
	// Leaf elements with a single text child — the overwhelmingly common
	// shape of comparison operands (<price>10</price>) — need no
	// concatenation. Join conditions evaluate one comparison per pair of
	// bindings, so this path must not allocate.
	if c := n.FirstChild; c == nil {
		return "", nil
	} else if c.Kind == buffer.KindText && c.NextSib == nil {
		return c.Text, nil
	}
	return concatText(n), nil
}

// concatText joins the text nodes below n in document order.
//
//gcxlint:allocok mixed content has no single backing string; the value is necessarily built
func concatText(n *buffer.Node) string {
	var b strings.Builder
	var walk func(m *buffer.Node)
	walk = func(m *buffer.Node) {
		if m.Kind == buffer.KindText {
			b.WriteString(m.Text)
			return
		}
		for c := m.FirstChild; c != nil; c = c.NextSib {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}
