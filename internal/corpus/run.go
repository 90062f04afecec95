package corpus

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"gcx/internal/obs"
)

// Options parameterizes a bulk run.
type Options struct {
	// Workers is the number of concurrent evaluations (≤0: GOMAXPROCS).
	Workers int
	// Outputs is the number of result writers per document (1 for an
	// engine, one per shared-pass member for a registry). ≤0 means 1.
	Outputs int
	// MaxDocBytes fails any document whose known size exceeds it
	// (file-backed documents are never even opened). Stream sources
	// additionally enforce their own construction-time cap, which keeps
	// oversized members from being materialized at all.
	MaxDocBytes int64
	// Context cancels the run: dispatch stops, and in-flight
	// evaluations are unwound promptly (their document reads fail), so
	// workers do not outlive a timeout. Documents already handed to
	// workers are still emitted — late ones with a cancellation error
	// in their slot — then Run returns ctx.Err(); a document the
	// source was still producing at cancellation may be discarded
	// (Run never waits on a blocked source read). Nil means no
	// cancellation.
	Context context.Context
}

// Result is one document's outcome, delivered to emit in corpus order.
type Result[T any] struct {
	// Index is the document's position in corpus order, starting at 0.
	Index int
	// Name identifies the document (file path, tar member, "doc[N]").
	Name string
	// Outs holds the result bytes, one buffer per output (nil for a
	// document that failed before it could be evaluated). The buffers
	// belong to the document's slot: they are valid only during the emit
	// call. On a failed document they hold whatever was produced before
	// the failure — exactly what a solo run would have written.
	Outs []*bytes.Buffer
	// Value is the evaluation's payload (stats). On a failed document
	// it holds whatever eval returned alongside the error — partial
	// stats, mirroring the partial bytes in Outs.
	Value T
	// Err is the document's failure, nil on success. A failed document
	// never affects its siblings.
	Err error
}

// Totals summarizes a bulk run.
type Totals struct {
	Docs    int64 // documents emitted
	Failed  int64 // documents whose slot carries an error
	Workers int
	// Window is the number of document slots, 2×Workers: at most Window
	// documents are dispatched but not yet emitted, so it bounds the
	// reorder memory.
	Window int
	// PeakInFlight is the high watermark of concurrently evaluating
	// documents (≤ Workers; how much of the pool the corpus kept busy).
	PeakInFlight int
	// BusyNanos sums per-document evaluation wall time across workers;
	// WallNanos is the run's wall time. BusyNanos/(WallNanos×Workers)
	// is the pool utilization.
	BusyNanos int64
	WallNanos int64
}

// EvalFunc evaluates one document, writing result bytes to outs and
// returning a payload (typically the run's stats). prev is the payload
// the previous evaluation in the same document slot returned (the zero T
// the first time): whatever storage it references belongs to the slot
// again, so eval may reuse it rather than allocate per document. EvalFunc
// is called concurrently from multiple workers and must be safe for that
// — the compiled engines are, by their concurrency contract.
type EvalFunc[T any] func(in io.Reader, outs []io.Writer, prev T) (T, error)

// ErrCanceled is the sentinel every run abandoned through its context
// matches under errors.Is: a solo or registry run, or a bulk document
// unwound in flight. Like ErrTooLarge it lives here, where the one
// cancelling reader is; the public API re-exports it as gcx.ErrCanceled.
var ErrCanceled = errors.New("gcx: run canceled")

// canceledError is the read error a done context produces: it matches
// ErrCanceled and unwraps to the context's own error, so callers can tell
// client-gone (context.Canceled) from timeout (DeadlineExceeded).
type canceledError struct{ cause error }

func (e *canceledError) Error() string        { return "gcx: run canceled: " + e.cause.Error() }
func (e *canceledError) Unwrap() error        { return e.cause }
func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// Guard surfaces context cancellation (timeout, caller gone) as a
// stream read error, which the engine propagates verbatim: the evaluation
// unwinds like any other input failure instead of being waited for. It is
// a value its owner keeps — a bulk slot, an engine run state — and resets
// at each run, so guarding a run allocates nothing.
//
// In a bulk slot it also enforces MaxDocBytes while the document streams
// through the evaluating engine: exceeding it surfaces as a read error
// carrying *DocTooLargeError, which the engine's unwinding reports in that
// document's slot.
type Guard struct {
	ctx  context.Context
	stop *atomic.Bool // a bulk run's own stop (emit failed); nil outside one
	r    io.Reader

	limit int64  // the byte cap (0: none)
	read  int64  // bytes read so far
	name  string // the document, for its DocTooLargeError
}

// Reset points g at in for a run bounded by ctx and returns what the run
// reads: g, whose reads fail with an error matching ErrCanceled once ctx
// is done, or in itself when ctx is nil, context.Background or
// context.TODO. It does not ask ctx for its Done channel, which a
// cancelable context makes on first request.
func (g *Guard) Reset(ctx context.Context, in io.Reader) io.Reader {
	if ctx == nil || ctx == context.Background() || ctx == context.TODO() {
		*g = Guard{}
		return in
	}
	*g = Guard{ctx: ctx, r: in}
	return g
}

func (g *Guard) Read(p []byte) (int, error) {
	if err := g.err(); err != nil {
		return 0, err
	}
	if g.limit > 0 {
		if g.read > g.limit {
			return 0, &DocTooLargeError{Name: g.name, Limit: g.limit}
		}
		// Allow one excess byte so the overflow is detected rather than
		// masked as a short read.
		if window := g.limit + 1 - g.read; int64(len(p)) > window {
			p = p[:window]
		}
	}
	n, err := g.r.Read(p)
	if g.read += int64(n); g.limit > 0 && g.read > g.limit {
		return n, &DocTooLargeError{Name: g.name, Limit: g.limit}
	}
	// A Read blocked past the deadline returns normally (or EOF) — the
	// expiry must still win, or a trickling input defeats the timeout.
	if cerr := g.err(); cerr != nil && (err == nil || errors.Is(err, io.EOF)) {
		return n, cerr
	}
	return n, err
}

func (g *Guard) err() error {
	if err := g.ctx.Err(); err != nil {
		return &canceledError{cause: err}
	}
	if g.stop != nil && g.stop.Load() {
		return &canceledError{cause: context.Canceled}
	}
	return nil
}

// slot is one of a runner's `window` document places, reused document
// after document and call after call: it owns the document's Result, the
// storage a materializing source fills, the output buffers with their
// writer slice, the reader the evaluation reads through, and the payload
// its last evaluation returned. One goroutine holds a slot at a time —
// dispatcher, worker, emitter — and every hand-over is a channel send.
type slot[T any] struct {
	res     Result[T]
	prev    T // the payload eval last returned here; its storage is the slot's
	doc     Doc
	store   pooledDoc
	outs    []*bytes.Buffer
	writers []io.Writer // outs, as eval takes them
	guard   Guard
}

// runner is Run's machinery for one payload type, window and output
// count: the slots, the channels that pass them between the goroutines,
// the reorder ring and the counters. Run takes a runner from runners and
// puts it back once no goroutine holds one of its slots, so a warm call
// builds none of it. The channels are never closed — each stream ends
// with one nil per worker — so that they can serve the next call.
type runner[T any] struct {
	workers int
	pool    *sync.Pool // where the runner goes back to
	slots   []slot[T]
	bufs    []bytes.Buffer // the slots' output buffers
	// Each channel has room for every slot and every worker's nil, so no
	// send blocks: backpressure comes solely from the dispatcher waiting
	// on free.
	free, tasks, results chan *slot[T]
	ring                 []*slot[T]

	// One call's inputs and state, set by Run and reset by release.
	src    Source
	eval   EvalFunc[T]
	parent context.Context
	maxDoc int64
	stop   atomic.Bool           // emit failed: dispatch no more, unwind reads
	srcErr atomic.Pointer[error] // terminal source failure

	dispatched, busy, inFlight, peakInFlight atomic.Int64
}

// runners holds the idle runners, one sync.Pool per runnerKey: like the
// engines' run states, an idle runner is dropped by the GC. A key once
// used keeps its entry, an empty pool when idle; the keys are bounded by
// the worker counts and pass sizes a process runs bulk calls with.
var runners sync.Map

// runnerKey names a pool; runners of two payload types never share one.
type runnerKey[T any] struct{ window, outputs int }

func acquireRunner[T any](window, outputs int) *runner[T] {
	key := runnerKey[T]{window, outputs}
	p, ok := runners.Load(key)
	if !ok {
		p, _ = runners.LoadOrStore(key, new(sync.Pool))
	}
	pool := p.(*sync.Pool)
	if r, _ := pool.Get().(*runner[T]); r != nil {
		return r
	}
	r := &runner[T]{
		workers: window / 2,
		pool:    pool,
		slots:   make([]slot[T], window),
		bufs:    make([]bytes.Buffer, window*outputs),
		free:    make(chan *slot[T], window),
		tasks:   make(chan *slot[T], window+window/2),
		results: make(chan *slot[T], window+window/2),
		ring:    make([]*slot[T], window),
	}
	outs, writers := make([]*bytes.Buffer, window*outputs), make([]io.Writer, window*outputs)
	for i := range outs {
		outs[i], writers[i] = &r.bufs[i], &r.bufs[i]
	}
	for i := range r.slots {
		s := &r.slots[i]
		s.outs, s.writers = outs[i*outputs:][:outputs], writers[i*outputs:][:outputs]
	}
	r.reset()
	return r
}

// release puts the runner back in its pool. It is called once no
// goroutine holds a slot: every worker has passed on its nil, and the
// dispatcher, which sends those nils last, is gone.
func (r *runner[T]) release() {
	r.reset()
	r.pool.Put(r)
}

// reset readies the runner for the next call: every slot free and empty,
// no call's inputs or counts left.
//
//gcxlint:keep workers fixed at construction, half the pool's window
//gcxlint:keep pool wired at construction
//gcxlint:keep slots persistent; each one's document is reset below, and its prev payload is storage eval reuses by design
//gcxlint:keep bufs persistent; evaluate resets each buffer before writing
//gcxlint:keep free refilled below with every slot
//gcxlint:keep tasks empty once every worker has taken its nil
//gcxlint:keep results empty once every worker's nil has been counted
func (r *runner[T]) reset() {
	for len(r.free) > 0 {
		<-r.free
	}
	for i := range r.slots {
		s := &r.slots[i]
		s.store.Reset()
		s.doc = Doc{}
		r.free <- s
	}
	clear(r.ring)
	r.src, r.eval, r.parent, r.maxDoc = nil, nil, nil, 0
	r.stop, r.srcErr = atomic.Bool{}, atomic.Pointer[error]{}
	r.dispatched, r.busy, r.inFlight, r.peakInFlight = atomic.Int64{}, atomic.Int64{}, atomic.Int64{}, atomic.Int64{}
}

// Run evaluates every document of src across a bounded worker pool and
// delivers results to emit strictly in corpus order. Per-document
// failures (materialization or evaluation) are isolated: they arrive as
// Results with Err set and do not disturb siblings or the pool — the
// engine's error unwinding already returns the run state to a reusable
// condition. A Result belongs to a slot the next document reuses: it, and
// every byte reachable from it, is valid only during the emit call.
//
// Run returns a non-nil error only for whole-corpus failures: the
// source broke mid-stream, emit returned an error (which cancels
// dispatch), or the context was canceled. In every case all documents
// dispatched before the failure are still emitted, in order.
func Run[T any](src Source, opts Options, eval EvalFunc[T], emit func(*Result[T]) error) (Totals, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := 2 * workers
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	totals := Totals{Workers: workers, Window: window}
	start := obs.Now()

	r := acquireRunner[T](window, max(opts.Outputs, 1))
	r.src, r.eval, r.parent, r.maxDoc = src, eval, parent, opts.MaxDocBytes
	go r.dispatch()
	for range workers {
		go r.work()
	}

	// Emitter (caller's goroutine): a finished slot waits in ring at its
	// document's index modulo the window — in-flight indexes are
	// consecutive and at most `window` many, so no two share a place —
	// until every earlier document is out. Once canceled, the loop receives
	// only until every DISPATCHED document has arrived (their reads fail,
	// so they unwind fast): a stalled source read can never hang Run.
	var (
		nextIdx  int
		received int64
		ended    int // workers whose nil has arrived
		emitErr  error
		canceled bool
		done     = parent.Done()
	)
	for ended < workers && (!canceled || received < r.dispatched.Load()) {
		select {
		case s := <-r.results:
			if s == nil {
				ended++
				continue
			}
			received++
			r.ring[s.res.Index%window] = s
			for s = r.ring[nextIdx%window]; s != nil; s = r.ring[nextIdx%window] {
				r.ring[nextIdx%window] = nil
				nextIdx++
				if emitErr == nil {
					if emitErr = emit(&s.res); emitErr != nil {
						r.stop.Store(true) // stop dispatching; drain what is in flight
						canceled = true
					}
					totals.Docs++
					if s.res.Err != nil {
						totals.Failed++
					}
				}
				s.store.Reset() // drops storage one huge document grew
				s.doc = Doc{}
				r.free <- s
			}
		case <-done:
			canceled = true
			done = nil // receive-only from here; the loop head decides when to stop
		}
	}

	totals.PeakInFlight = int(r.peakInFlight.Load())
	totals.BusyNanos = r.busy.Load()
	totals.WallNanos = obs.Now() - start
	err := parent.Err()
	if terminal := r.srcErr.Load(); terminal != nil {
		err = *terminal
	}
	if emitErr != nil {
		err = emitErr
	}
	if ended < workers {
		// Canceled exit: the dispatcher may hold a slot for as long as a
		// stalled read lasts, and still hand it off afterwards. The runner
		// goes back once the last worker's nil is in; nothing of it may be
		// touched here from now on.
		go r.drain(workers - ended)
	} else {
		r.release()
	}
	return totals, err
}

// dispatch fills free slots with the source's documents, then ends the
// task stream with one nil per worker.
func (r *runner[T]) dispatch() {
	r.feed()
	for range r.workers {
		r.tasks <- nil
	}
}

func (r *runner[T]) feed() {
	done := r.parent.Done()
	for idx := 0; ; idx++ {
		var s *slot[T]
		select {
		case s = <-r.free:
		case <-done:
			return
		}
		// Cancellation wins over a free slot: the select picks at random
		// when both are ready, and a stop comes with a freed slot.
		if r.stop.Load() || r.parent.Err() != nil {
			return
		}
		doc, err := r.src.Next(s.store.data)
		if doc.Data != nil {
			s.store.data = doc.Data // the storage, as far as it grew
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			var de *DocError
			if !errors.As(err, &de) {
				terminal := err // &err would move err to the heap, once a document
				r.srcErr.Store(&terminal)
				return
			}
			doc, err = Doc{Name: de.Name}, de.Err
		} else if r.maxDoc > 0 && doc.Size > r.maxDoc {
			err = &DocTooLargeError{Name: doc.Name, Limit: r.maxDoc}
		}
		s.doc, s.res = doc, Result[T]{Index: idx, Name: doc.Name, Err: err}
		r.dispatched.Add(1)
		r.tasks <- s
	}
}

// work evaluates each task's document in its slot and passes the slot to
// the emitter; the stream's nil is passed on last.
func (r *runner[T]) work() {
	for s := <-r.tasks; s != nil; s = <-r.tasks {
		if s.res.Err == nil {
			cur := r.inFlight.Add(1)
			for p := r.peakInFlight.Load(); cur > p && !r.peakInFlight.CompareAndSwap(p, cur); {
				p = r.peakInFlight.Load()
			}
			t0 := obs.Now()
			s.evaluate(r)
			r.busy.Add(obs.Now() - t0)
			r.inFlight.Add(-1)
		}
		r.results <- s
	}
	r.results <- nil
}

// drain receives what a canceled run's workers still pass on, then
// releases the runner.
func (r *runner[T]) drain(workers int) {
	for workers > 0 {
		if <-r.results == nil {
			workers--
		}
	}
	r.release()
}

// evaluate runs the slot's document through eval, into and through the
// slot's own buffers and readers.
func (s *slot[T]) evaluate(r *runner[T]) {
	s.res.Outs = s.outs
	for _, b := range s.outs {
		b.Reset()
	}
	var in io.Reader = &s.store.Reader
	if s.doc.Open == nil {
		s.store.Reader.Reset(s.doc.Data)
	} else {
		rc, err := s.doc.Open()
		if err != nil {
			s.res.Err = err
			return
		}
		defer rc.Close()
		in = rc
	}
	// Cancellation must reach IN-FLIGHT evaluations, not just dispatch: a
	// slow one would hold its worker past a timeout otherwise (the engine
	// unwinds on the read error, as with any failing stream). The cap is
	// the read-time backstop for a document of unknown size (a file stat
	// could not size): it holds whatever the source reported.
	s.guard = Guard{ctx: r.parent, stop: &r.stop, r: in, limit: r.maxDoc, name: s.doc.Name}
	s.prev, s.res.Err = r.eval(&s.guard, s.writers, s.prev)
	s.res.Value = s.prev
}
