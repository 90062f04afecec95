// Package eval implements the GCX query evaluator (Section 6, Figure 11):
// a strictly sequential, pull-based interpreter for rewritten XQ queries.
//
// The evaluator walks the buffer tree. Whenever it needs data that is not
// buffered yet (the next node of a for-loop, a witness for an existence
// check, the completion of a subtree that is being serialized), it parks —
// its walkers keep their place on an explicit frame stack, and it returns
// — and its driver advances the stream pre-projector before resuming it:
// the chain of commands of Figure 11. SignOff statements are forwarded to
// the buffer manager, which performs the role updates and invokes active
// garbage collection.
package eval

import (
	"hash/maphash"
	"slices"
	"strings"
	"unsafe"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Feeder supplies more input to the buffer; implemented by the stream
// projector. Step processes one token, or the rest of a subtree whose
// tokens cannot change the buffer, and reports false at end of input.
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
	// it must be the projector's schema, which proj.New bound to the
	// buffer's symbol table, so it is asked by Sym.
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
// buffer, feeder, and writer have been reset; the environment, the frame
// stack, the cursor freelist and the operand scratch are retained, so
// repeated evaluations are allocation-free after warm-up.
type Evaluator struct {
	buf  *buffer.Buffer
	feed Feeder // what Run pulls; a pass's scheduler feeds its evaluators
	out  *xmlstream.Writer
	opts Options
	// env holds the variable bindings by slot; epoch[slot] changes
	// whenever the slot is rebound, which is what invalidates the operand
	// values a comparison site collected under the previous binding.
	env   []*buffer.Node
	epoch []uint64
	// syms[id] is the symbol of the query's Names[id] in this run's symbol
	// table, interned when the run starts (Start): every name test
	// compares two integers.
	syms []xmlstream.Sym
	// stack holds the walkers of the running query, innermost last (see
	// frame); ret is the answer of the condition evaluated last.
	stack []frame
	ret   bool
	// cursors recycles cursors (one is consumed per for-loop, existence
	// check, and value collection — the per-binding hot path).
	cursors cursors
	// sites[c.Site] keeps the collected (right-hand) operand of comparison
	// c: a nested-loop join evaluates one comparison per PAIR of bindings,
	// but the collected operand changes only when its own variable
	// rebinds, so it is collected and classified once per binding and
	// reused for every pair. The left side streams (opStream) and never
	// materializes.
	sites []site
	// cmpOp/cmpRHS/cmpSite are the active comparison, read by every frame
	// of its stream. Comparisons never nest — a Compare condition has no
	// sub-conditions — so one set of fields suffices.
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
	// through the writer's batching toward the destination. Armed in
	// Resume rather than at write time so a run that fails on its very
	// first input token still produces zero client-visible bytes.
	firstFlushed bool
	// wait is what the evaluator parked on: the node whose next child,
	// completion or schema fact it waits for, with that node's change
	// stamp at the time of parking (see park). A shared pass's scheduler
	// reads both while the evaluator is parked (CanProceed). nil after a
	// descendant-axis wait, whose matches appear below nodes the evaluator
	// cannot name, and between runs. parked is set from a wait's first
	// park until the wait ends: the resumes in between continue one
	// blocking episode.
	wait      *buffer.Node
	waitStamp uint32
	parked    bool
	// work counts inner-loop operations for the deterministic work gates
	// (read by tests only).
	work work
}

// site is one comparison's collected operand: vals is complete for the
// binding epoch it was collected under once its collection has popped,
// so reuse within that binding cannot change an answer. It holds text,
// never nodes — nothing here keeps a buffer node linked or pinned.
type site struct {
	epoch uint64 // 0: nothing collected
	vals  []atom
}

// work is the evaluator's deterministic cost record for one run.
type work struct {
	compares    int64 // atom pairs compared
	collections int64 // collected-operand sequences built
	nameLookups int64 // string-keyed symbol table accesses (Start's interning)
	waits       int64 // blocking episodes begun (a wait's first park)
	entries     int64 // probe table entries built
	probes      int64 // probe table lookups, one per probe value
	tableBytes  int64 // probe table arrays built (entries and buckets): evaluator scratch, not buffer bytes
	signOffs    int64 // signOff statements executed
}

// New creates an evaluator writing query output to out and pulling input
// from feed (Run).
func New(buf *buffer.Buffer, feed Feeder, out *xmlstream.Writer, opts Options) *Evaluator {
	return &Evaluator{buf: buf, feed: feed, out: out, opts: opts,
		stack: make([]frame, 0, stackFrames), seed: maphash.MakeSeed()}
}

// siteValues is the room for operand values each comparison site, and
// each join's key scratch, of NewEvaluators' evaluators starts with: most
// operands have one value.
const siteValues = 4

// stackFrames is the frame stack each evaluator starts with: deeper than
// a query over XMark nests with its subtree copies.
const stackFrames = 32

// NewEvaluators returns the evaluators of a pass over buf, evaluator i
// writing to outs[i] and sized for qs[i]; their scheduler feeds buf. They
// are built in one allocation per kind — the evaluators, each of their
// per-query tables, their operand scratch, their frame stacks, their
// first cursor chunks — not several each, so a cold pass costs what its
// members share, not what each of them holds.
func NewEvaluators(buf *buffer.Buffer, outs []xmlstream.Writer, qs []*xqast.Query) []Evaluator {
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
	stacks := make([]frame, len(qs)*stackFrames)
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
		evs[i] = Evaluator{buf: buf, out: &outs[i],
			env:     env[:0:q.Slots],
			epoch:   epoch[:0:q.Slots],
			syms:    syms[:0:len(q.Names)],
			stack:   stacks[i*stackFrames : i*stackFrames : (i+1)*stackFrames],
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
// per-query tables are emptied here and filled again by Start.
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
	e.waitStamp, e.parked, e.ret = 0, false, false
	clear(e.stack) // a run that panicked may have left frames
	e.stack = e.stack[:0]
	e.cursors.reset()
	e.dropScratch()
}

// Run evaluates the resolved query q (xqast.Resolve), pulling its feeder
// whenever the evaluator parks, and flushes the output writer. The buffer
// must already be reset: the root binding is read from it.
func (e *Evaluator) Run(q *xqast.Query) error {
	if q.Slots == 0 {
		return &Error{Msg: "query is not resolved (xqast.Resolve)", Detail: q}
	}
	e.Start(q)
	var fed error
	for {
		done, err := e.Resume(fed)
		if done {
			return err
		}
		_, fed = e.feed.Step()
	}
}

// Start begins a run of the resolved query q (xqast.Resolve): the first
// Resume evaluates it. The buffer must already be reset: the root binding
// is read from it. Start sizes the evaluator's tables for q (allocating
// only when q is larger than anything run before) and resolves q's names
// against THIS run's symbol table: the evaluator's one place a tag name
// is hashed. The table keeps every name for as long as its run state
// lives, so interning the vocabulary ahead of the document costs no
// allocation once the table has seen it.
func (e *Evaluator) Start(q *xqast.Query) {
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
	// Not e.call(q.Root): boxing the root constructor into an xqast.Expr
	// would be the run's one avoidable allocation.
	e.push(frame{op: opElem, x: q.Root.Child, s: q.Root.Name})
}

// Resume is the evaluator's step function, which Run and a pass's
// scheduler drive: it runs the query until it is answered (done, with the
// run's error) or the evaluator parks (done false; park recorded what it
// waits on), and the driver feeds the buffer and resumes it with the
// feed's error, fed, with which the evaluator then unwinds.
//
// A resume after a successful feed is the earliest-answering flush point:
// once a result byte exists AND at least one input token has been
// consumed, the byte is certain, so it is pushed through the writer's
// batching (and the destination's, via ResultFlusher) instead of riding
// the batch until end of run. Between tokens, the flush never lands
// mid-tag; gated on a successful feed, it keeps a request that dies on
// its very first token free of committed output (the server's clean-4xx
// path depends on that).
func (e *Evaluator) Resume(fed error) (done bool, err error) {
	if fed != nil {
		return true, e.unwind(fed)
	}
	if e.parked && !e.firstFlushed && e.out.FirstByteAt() != 0 {
		e.firstFlushed = true
		e.out.FlushFirst()
	}
	for len(e.stack) > 0 {
		ok, err := e.exec(&e.stack[len(e.stack)-1])
		if err != nil {
			return true, e.unwind(err)
		}
		if !ok {
			return false, nil
		}
	}
	err = e.out.Flush()
	// The operand scratch holds views of buffered document text; drop
	// them when the evaluation ends so a pooled idle evaluator pins no
	// document data.
	e.dropScratch()
	return true, err
}

// unwind ends a failed run: it closes the frame stack innermost first,
// as the recursive walkers' deferred closes did — each frame's cursor
// releases its pin, a join loop its binding's — and drops the scratch.
//
//gcxlint:noalloc
func (e *Evaluator) unwind(err error) error {
	for i := len(e.stack) - 1; i >= 0; i-- {
		f := &e.stack[i]
		if f.cur != nil {
			f.cur.close()
		}
		if f.op == opJoin && f.n != nil {
			e.buf.Unpin(f.n)
		}
		*f = frame{}
	}
	e.stack = e.stack[:0]
	e.dropScratch()
	return err
}

// dropScratch forgets the bindings, the wait and the active comparison's
// operand strings, empties every site's collected operand and the key
// scratch (see dropValues), and every probe table.
//
//gcxlint:noalloc
func (e *Evaluator) dropScratch() {
	clear(e.env)
	e.wait = nil
	e.cmpRHS = xqast.Operand{}
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
// as long as the evaluator sits in its pool).
//
//gcxlint:noalloc
func dropValues(v []atom) []atom {
	clear(v[:cap(v)])
	return v[:0]
}

// Retained reports the bytes Reset keeps of what runs grew: a frame stack
// grown past its carved stackFrames, cursor chunks beyond the first,
// operand scratch beyond its carved siteValues, and probe tables. The
// tables Start sizes for the query do not count.
//
//gcxlint:noalloc
func (e *Evaluator) Retained() int64 {
	n := int64(max(len(e.cursors.chunks)-1, 0)) * cursorChunk * int64(unsafe.Sizeof(cursor{}))
	if cap(e.stack) > stackFrames {
		n += int64(cap(e.stack)) * int64(unsafe.Sizeof(frame{}))
	}
	for _, s := range e.sites[:cap(e.sites)] {
		n += valuesBytes(s.vals)
	}
	for _, t := range e.joins[:cap(e.joins)] {
		n += int64(cap(t.entries))*int64(unsafe.Sizeof(joinEntry{})) + int64(cap(t.heads)+cap(t.hits))*4
	}
	return n + valuesBytes(e.keys)
}

// valuesBytes is what an operand scratch grown out of its carved room
// holds.
//
//gcxlint:noalloc
func valuesBytes(v []atom) int64 {
	if cap(v) <= siteValues {
		return 0
	}
	return int64(cap(v)) * int64(unsafe.Sizeof(atom{}))
}

// park records what the evaluator waits on before it returns for input:
// the node whose state the waiting site reads, or nil when no single node
// decides it (CanProceed reads the record). A wait's first park begins a
// blocking episode; the site clears parked when its wait ends.
//
//gcxlint:noalloc
func (e *Evaluator) park(on *buffer.Node) {
	e.wait = on
	if on != nil {
		e.waitStamp = on.Stamp()
	}
	if !e.parked {
		e.parked = true
		e.work.waits++
	}
}

// CanProceed reports whether a parked evaluator could do anything if it
// were resumed: what it waits on changed, it waits on nothing the
// scheduler can watch, or its first result byte is still waiting for
// Resume's FlushFirst (earliest answering must not be delayed by a round).
// False means a resume would re-evaluate the same wait over the same node
// state, find it unmet, and park again — nothing written, nothing signed
// off. The caller resumes regardless at end of input and on a stream
// error.
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
// no-op leaves it equal; the engine's wake-rule audit and its driver
// differential check exactly that, and nothing else reads it.
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

func errUnsupported(x interface{}) error {
	return &Error{Msg: "unsupported expression in evaluator", Detail: x}
}

// Error is an evaluation failure.
type Error struct {
	Msg    string
	Detail interface{}
}

func (e *Error) Error() string { return "eval: " + e.Msg }

// --- the walkers ---

// frame is one walker of the running query, kept on the evaluator's
// stack instead of Go's so that it can park by returning: op names the
// walker, pc where it resumes. Frames point into the resolved query; which
// of the other fields a frame uses depends on its op.
type frame struct {
	op op
	pc uint8
	i  int32 // a sequence's next item, a join loop's next hit
	// x is the frame's query node (a Sequence, For, If, CondTag or
	// condition), or an element constructor's content.
	x any
	// n is the node opSerialize copies (prev: its child copied last), the
	// leaf of an opStream or opCollect frame, a join loop's pinned hit, or
	// the binding whose keys opBuild collects.
	n, prev *buffer.Node
	// cur iterates steps[0]; its matches are walked on with steps[1:].
	cur   *cursor
	steps []xqast.Step
	dst   *[]atom // where opCollect appends values
	// s is the name opElem or opSerialize writes, or the string value an
	// opStream leaf compares.
	s string
}

type op uint8

const (
	opElem      op = iota // element constructor (element)
	opSeq                 // sequence: its items in order
	opIf                  // if: the branch the condition picks
	opCondTag             // conditional tag: written if the condition holds
	opFor                 // for-loop (forLoop): the body once per binding
	opJoin                // join loop answered from its probe table (joinLoop)
	opBuild               // probe table build (buildTable)
	opOutput              // path output
	opSerialize           // subtree copy (serialize)
	opCond                // not, and, or
	opExists              // existence check (exists, search)
	opStream              // a comparison's streamed operand (search)
	opCollect             // value collection (collectValues)
)

//gcxlint:noalloc
func (e *Evaluator) push(f frame) {
	e.stack = append(e.stack, f) //gcxlint:allocok stack growth to the query's nesting and the copied subtree's depth; the pass decides whether an idle state keeps it
}

// pop drops the top frame, zeroed so that an idle stack pins nothing.
//
//gcxlint:noalloc
func (e *Evaluator) pop() {
	e.stack[len(e.stack)-1] = frame{}
	e.stack = e.stack[:len(e.stack)-1]
}

// exec runs the top frame f until it pushes a frame, pops, or must wait
// for input (false: it has parked). Once it has pushed or popped, f is
// no longer the top frame and may have moved: each case returns at once.
//
//gcxlint:allocok the dispatcher reaches output serialization and the unsupported-node error; the per-binding paths it leads to (forLoop, compare, cursors) carry their own noalloc
func (e *Evaluator) exec(f *frame) (bool, error) {
	switch f.op {
	case opElem:
		if f.pc == 0 {
			e.out.StartElement(f.s)
			f.pc = 1
			x, _ := f.x.(xqast.Expr) // nil: an empty constructor
			return true, e.call(x)
		}
		e.out.EndElement(f.s)
		e.pop()
		return true, e.out.Err()
	case opSeq:
		items := f.x.(xqast.Sequence).Items
		if int(f.i) == len(items) {
			e.pop()
			return true, nil
		}
		f.i++
		return true, e.call(items[f.i-1])
	case opIf:
		x := f.x.(xqast.If)
		e.pop()
		if e.ret {
			return true, e.call(x.Then)
		}
		return true, e.call(x.Else)
	case opCondTag:
		x := f.x.(xqast.CondTag)
		e.pop()
		if e.ret && x.Open {
			e.out.StartElement(x.Name)
		} else if e.ret {
			e.out.EndElement(x.Name)
		}
		return true, e.out.Err()
	case opFor:
		x := f.x.(xqast.For)
		e.env[x.Slot] = nil
		n, ok := e.next(f)
		if n == nil {
			return ok, nil
		}
		e.env[x.Slot] = n
		e.epoch[x.Slot]++
		return true, e.call(x.Return)
	case opJoin:
		return e.joinLoop(f)
	case opBuild:
		return e.buildTable(f)
	case opOutput:
		n, ok := e.next(f)
		if n == nil {
			return ok, nil
		}
		return true, e.serialize(n)
	case opSerialize:
		// The next child, or the end of a finished node. No signOffs run
		// during serialization, so the links are stable.
		for {
			c := f.n.FirstChild
			if f.prev != nil {
				c = f.prev.NextSib
			}
			if c == nil && !f.n.Finished() {
				e.park(f.n)
				return false, nil
			}
			e.parked = false
			if c == nil {
				break
			}
			f.prev = c
			if err := e.serialize(c); err != nil || c.Kind != buffer.KindText {
				return true, err
			}
		}
		// The virtual root has no tags: outputting $root copies the
		// entire document.
		element := f.n.Kind == buffer.KindElement
		if element {
			e.out.EndElement(f.s)
		}
		e.pop()
		if element {
			return true, e.out.Err()
		}
		return true, nil
	case opCond:
		c := f.x
		e.pop()
		switch c := c.(type) {
		case xqast.Not:
			e.ret = !e.ret
		case xqast.And:
			if e.ret {
				return true, e.test(c.R)
			}
		case xqast.Or:
			if !e.ret {
				return true, e.test(c.R)
			}
		}
		return true, nil
	case opExists, opStream:
		return e.search(f)
	case opCollect:
		return e.collectValues(f)
	}
	return true, errUnsupported(f.x)
}

// next advances frame f's cursor: the next match, or nil once f is
// exhausted — f is then popped — or while the match is not buffered
// (false: the evaluator has parked).
//
//gcxlint:noalloc
func (e *Evaluator) next(f *frame) (*buffer.Node, bool) {
	n, ok := f.cur.next()
	if ok && n == nil {
		e.pop()
	}
	return n, ok
}

// call evaluates x: at once when it cannot wait for input, else by
// pushing its frame.
//
//gcxlint:allocok the dispatcher reaches output serialization and the unsupported-node error; the per-binding paths it leads to (forLoop, compare, cursors) carry their own noalloc
func (e *Evaluator) call(x xqast.Expr) error {
	switch v := x.(type) {
	case nil, xqast.Empty:
	case xqast.Sequence:
		e.push(frame{op: opSeq, x: x})
	case xqast.Element:
		e.push(frame{op: opElem, x: v.Child, s: v.Name})
	case xqast.Text:
		e.out.Text(v.Data)
		return e.out.Err()
	case xqast.CondTag:
		e.push(frame{op: opCondTag, x: x})
		return e.test(v.Cond)
	case xqast.VarRef:
		return e.serialize(e.env[v.Slot])
	case xqast.PathExpr:
		// Path output copies every match with its subtree, in document
		// order (used when early updates are disabled).
		e.push(frame{op: opOutput, cur: newCursor(e, e.env[v.Path.Slot], v.Path.Steps[0])})
	case xqast.For:
		e.forLoop(x, v)
	case xqast.If:
		e.push(frame{op: opIf, x: x})
		return e.test(v.Cond)
	case xqast.SignOff:
		if !e.opts.ExecuteSignOffs {
			return nil
		}
		binding := e.env[v.Path.Slot]
		if err := e.buf.SignOff(binding, v.Path.Steps, e.syms, v.Role+e.opts.RoleOffset); err != nil {
			return err
		}
		e.work.signOffs++
		if e.opts.OnSignOff != nil {
			e.opts.OnSignOff(v)
		}
	default:
		return errUnsupported(x)
	}
	return nil
}

// forLoop iterates the binding sequence of a for-loop strictly
// sequentially, evaluating the body (including its trailing signOff batch)
// once per binding. Each binding opens a new epoch of the loop's slot:
// operand values collected below the previous binding are stale from here.
// A join loop whose probe table can answer runs from the table instead.
//
//gcxlint:noalloc
func (e *Evaluator) forLoop(x xqast.Expr, f xqast.For) {
	if f.Join != nil && e.tableReady(f) {
		e.push(frame{op: opJoin, x: x})
		return
	}
	e.push(frame{op: opFor, x: x, cur: newCursor(e, e.env[f.In.Slot], f.In.Steps[0])})
}

// serialize copies a buffered node (with its complete subtree) to the
// output, waiting for input while the subtree is unfinished. The subtree
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
		e.push(frame{op: opSerialize, n: n, s: name})
	default:
		e.push(frame{op: opSerialize, n: n})
	}
	return nil
}

// --- conditions ---

// test evaluates condition c into e.ret: at once when it cannot wait for
// input, else by pushing its frame.
//
//gcxlint:allocok reaches the unsupported-condition error only
func (e *Evaluator) test(c xqast.Cond) error {
	switch v := c.(type) {
	case xqast.TrueCond:
		e.ret = true
	case xqast.Not:
		e.push(frame{op: opCond, x: c})
		return e.test(v.C)
	case xqast.And:
		e.push(frame{op: opCond, x: c})
		return e.test(v.L)
	case xqast.Or:
		e.push(frame{op: opCond, x: c})
		return e.test(v.L)
	case xqast.Exists:
		e.exists(e.env[v.Path.Slot], v.Path.Steps)
	case xqast.Compare:
		e.compare(v)
	default:
		return &Error{Msg: "unsupported condition", Detail: c}
	}
	return nil
}

// exists searches for a witness of path steps below n, waiting until one
// is found or the relevant region is finished. The projection guarantees
// the first witness per context is buffered (the [1] predicate).
//
// With a DTD, the chain is first put to schemaDecides: a chain the
// content models prove present in every valid document is true, and one
// they prove absent is false, the moment the binding n is held — no
// witness event is waited for and no input is pulled toward one. The
// DTD only changes WHEN the answer is known, never what it is, so output
// bytes are untouched.
//
//gcxlint:noalloc
func (e *Evaluator) exists(n *buffer.Node, steps []xqast.Step) {
	if len(steps) == 0 {
		e.ret = true
		return
	}
	switch e.schemaDecides(n, steps) {
	case proven:
		e.ret = true
	case refuted:
		e.ret = false
	default:
		e.push(frame{op: opExists, steps: steps, cur: newCursor(e, n, steps[0])})
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
	tag := n.Sym
	all := true
	for _, st := range steps {
		if st.Axis != xqast.Child || st.Test.Kind != xqast.TestName {
			return undecided
		}
		child := e.syms[st.Test.ID]
		if can, known := s.CanContain(tag, child); known && !can {
			return refuted
		}
		all = all && s.MustContain(tag, child)
		tag = child
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
func (e *Evaluator) compare(c xqast.Compare) {
	lhs, op, rhs := c.LHS, c.Op, c.RHS
	if lhs.IsLiteral && !rhs.IsLiteral {
		lhs, rhs = rhs, lhs
		op = mirrorOp(op)
	}
	if lhs.IsLiteral {
		// Both sides literal (not produced by the normalizer, but cheap to
		// answer exactly).
		e.ret = compareValues(lhs.Lit, op, rhs.Lit)
		return
	}
	e.cmpOp, e.cmpRHS, e.cmpSite = op, rhs, c.Site
	e.stream(opStream, e.env[lhs.Path.Slot], lhs.Path.Steps, nil)
}

// stream pushes the walk of steps below n for a comparison's streamed
// operand (opStream, see search) or collectValues (opCollect, appending
// to dst): a frame with a cursor over steps[0], or, once the steps are
// used up, the leaf n.
//
//gcxlint:noalloc
func (e *Evaluator) stream(o op, n *buffer.Node, steps []xqast.Step, dst *[]atom) {
	f := frame{op: o, n: n, steps: steps, dst: dst}
	if len(steps) > 0 {
		f.n, f.cur = nil, newCursor(e, n, steps[0])
	}
	e.push(f)
}

// search walks the matches of an existence check (exists) or of a
// comparison's streamed operand in document order, and
// reports in e.ret whether any of them leads to a witness, stopping at
// the first. A comparison's leaf, its steps used up, waits for its string
// value, then for the collected operand (operand), and compares.
//
//gcxlint:noalloc
func (e *Evaluator) search(f *frame) (bool, error) {
	if f.cur == nil {
		if f.pc == 0 {
			v, ok := e.stringValue(f.n)
			if !ok {
				return false, nil
			}
			f.s, f.pc = v, 1
			if !e.operand() {
				return true, nil
			}
		}
		l, vals := classify(f.s), e.sites[e.cmpSite].vals
		e.ret = false
		for i := range vals {
			e.work.compares++
			if compareAtoms(l, e.cmpOp, vals[i]) {
				e.ret = true
				break
			}
		}
		e.pop()
		return true, nil
	}
	if f.pc == 1 && e.ret {
		f.cur.close()
		e.pop()
		return true, nil
	}
	f.pc, e.ret = 0, false
	m, ok := e.next(f)
	if m == nil {
		return ok, nil
	}
	f.pc = 1
	if f.op == opExists {
		e.exists(m, f.steps[1:])
	} else {
		e.stream(opStream, m, f.steps[1:], nil)
	}
	return true, nil
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

// operand makes the active comparison's collected operand current and
// reports whether it already is. It is collected only if the operand's
// variable was rebound since the site last was (a literal hangs off slot
// 0, the root, which never rebinds: it is classified once per run); the
// collection is pushed, and the site stamped with the binding's epoch at
// once — nothing reads the site before the collection pops, and a run
// whose collection fails drops every site.
//
//gcxlint:noalloc
func (e *Evaluator) operand() bool {
	s := &e.sites[e.cmpSite]
	o := &e.cmpRHS
	if now := e.epoch[o.Path.Slot]; s.epoch != now {
		e.work.collections++
		s.epoch, s.vals = now, s.vals[:0]
		if !o.IsLiteral {
			e.stream(opCollect, e.env[o.Path.Slot], o.Path.Steps, &s.vals)
			return false
		}
		s.vals = append(s.vals, classify(o.Lit))
	}
	return true
}

// collectValues appends the classified string value of every match of
// the frame's steps, in document order, to its dst.
//
//gcxlint:noalloc
func (e *Evaluator) collectValues(f *frame) (bool, error) {
	if f.cur == nil {
		v, ok := e.stringValue(f.n)
		if !ok {
			return false, nil
		}
		*f.dst = append(*f.dst, classify(v))
		e.pop()
		return true, nil
	}
	m, ok := e.next(f)
	if m == nil {
		return ok, nil
	}
	e.stream(opCollect, m, f.steps[1:], f.dst)
	return true, nil
}

// stringValue computes the concatenated text content of a node; false
// when it has to wait for the subtree to finish (comparison dependencies
// buffer whole subtrees, so all text is then present).
//
//gcxlint:noalloc
func (e *Evaluator) stringValue(n *buffer.Node) (string, bool) {
	if n.Kind == buffer.KindText {
		return n.Text, true
	}
	if !n.Finished() {
		e.park(n)
		return "", false
	}
	e.parked = false
	// Leaf elements with a single text child — the overwhelmingly common
	// shape of comparison operands (<price>10</price>) — need no
	// concatenation. Join conditions evaluate one comparison per pair of
	// bindings, so this path must not allocate.
	if c := n.FirstChild; c == nil {
		return "", true
	} else if c.Kind == buffer.KindText && c.NextSib == nil {
		return c.Text, true
	}
	return concatText(n), true
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
