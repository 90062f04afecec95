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
// returning a payload (typically the run's stats). It is called
// concurrently from multiple workers and must be safe for that — the
// compiled engines are, by their concurrency contract.
type EvalFunc[T any] func(in io.Reader, outs []io.Writer) (T, error)

// outBufs recycles result buffers across runs: Run draws one per document
// slot and output and returns them when it ends.
var outBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// cappedReader enforces MaxDocBytes while a document streams through
// the evaluating engine; exceeding it surfaces as a read error carrying
// *DocTooLargeError, which the engine's unwinding reports in that
// document's slot.
type cappedReader struct {
	r     io.Reader
	limit int64
	read  int64
	name  string
}

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

// ctxReader surfaces context cancellation (timeout, caller gone) as a
// stream read error, which the engine propagates verbatim: the evaluation
// unwinds like any other input failure instead of being waited for.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, &canceledError{cause: err}
	}
	n, err := c.r.Read(p)
	// A Read blocked past the deadline returns normally (or EOF) — the
	// expiry must still win, or a trickling input defeats the timeout.
	if cerr := c.ctx.Err(); cerr != nil && (err == nil || errors.Is(err, io.EOF)) {
		return n, &canceledError{cause: cerr}
	}
	return n, err
}

// Guard wraps in so its reads fail with an error matching ErrCanceled
// once ctx is done. A context that can never be canceled
// (context.Background, nil) adds no per-read overhead.
func Guard(ctx context.Context, in io.Reader) io.Reader {
	if ctx == nil || ctx.Done() == nil {
		return in
	}
	return &ctxReader{ctx: ctx, r: in}
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.read > c.limit {
		return 0, &DocTooLargeError{Name: c.name, Limit: c.limit}
	}
	// Allow one excess byte so the overflow is detected rather than
	// masked as a short read.
	if window := c.limit + 1 - c.read; int64(len(p)) > window {
		p = p[:window]
	}
	n, err := c.r.Read(p)
	c.read += int64(n)
	if c.read > c.limit {
		return n, &DocTooLargeError{Name: c.name, Limit: c.limit}
	}
	return n, err
}

// slot is one of the run's `window` document places, built once per Run
// and reused document after document: it owns the document's Result, the
// pooled storage a materializing source fills, the output buffers with
// their writer slice, and the readers the evaluation reads through. One
// goroutine holds a slot at a time — dispatcher, worker, emitter — and
// every hand-over is a channel send.
type slot[T any] struct {
	res     Result[T]
	doc     Doc
	store   *pooledDoc      // from docBufs, held for the whole run
	outs    []*bytes.Buffer // from outBufs, held for the whole run
	writers []io.Writer     // outs, as eval takes them
	capped  cappedReader
	ctx     ctxReader
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
	outputs := max(opts.Outputs, 1)
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	totals := Totals{Workers: workers, Window: window}
	start := obs.Now()

	// Each channel has room for every slot, so no send blocks: backpressure
	// comes solely from the dispatcher waiting on free.
	var (
		slots      = make([]slot[T], window)
		outs       = make([]*bytes.Buffer, window*outputs)
		writers    = make([]io.Writer, window*outputs)
		free       = make(chan *slot[T], window)
		tasks      = make(chan *slot[T], window)
		results    = make(chan *slot[T], window)
		srcErr     atomic.Pointer[error] // terminal source failure
		dispatched atomic.Int64          // slots handed to workers
	)
	for i := range outs {
		outs[i] = outBufs.Get().(*bytes.Buffer)
		writers[i] = outs[i]
	}
	for i := range slots {
		s := &slots[i]
		s.store = docBufs.Get().(*pooledDoc)
		s.outs, s.writers = outs[i*outputs:][:outputs], writers[i*outputs:][:outputs]
		free <- s
	}
	release := func() { // once no goroutine holds a slot
		for i := range slots {
			slots[i].store.Reset()
			docBufs.Put(slots[i].store)
		}
		for _, b := range outs {
			outBufs.Put(b)
		}
	}

	// Dispatcher: fill a free slot with the next document.
	go func() {
		defer close(tasks)
		for idx := 0; ; idx++ {
			// Cancellation wins over a free slot: a select over both picks
			// at random, dispatching documents for a run already dead.
			if ctx.Err() != nil {
				return
			}
			var s *slot[T]
			select {
			case s = <-free:
			case <-ctx.Done():
				return
			}
			doc, err := next(src, s.store.data)
			if doc.Data != nil {
				s.store.data = doc.Data // the storage, as far as it grew
			}
			if err != nil {
				var de *DocError
				if !errors.As(err, &de) {
					if err != io.EOF {
						terminal := err // &err would move err to the heap, once a document
						srcErr.Store(&terminal)
					}
					return
				}
				doc, err = Doc{Name: de.Name}, de.Err
			} else if opts.MaxDocBytes > 0 && doc.Size > opts.MaxDocBytes {
				err = &DocTooLargeError{Name: doc.Name, Limit: opts.MaxDocBytes}
			}
			s.doc, s.res = doc, Result[T]{Index: idx, Name: doc.Name, Err: err}
			dispatched.Add(1)
			tasks <- s
		}
	}()

	// Workers: evaluate a slot's document in place, pass it to the emitter.
	var (
		wg           sync.WaitGroup
		busy         atomic.Int64
		inFlight     atomic.Int64
		peakInFlight atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range tasks {
				if s.res.Err == nil {
					cur := inFlight.Add(1)
					for p := peakInFlight.Load(); cur > p && !peakInFlight.CompareAndSwap(p, cur); {
						p = peakInFlight.Load()
					}
					t0 := obs.Now()
					s.evaluate(ctx, opts.MaxDocBytes, eval)
					busy.Add(obs.Now() - t0)
					inFlight.Add(-1)
				}
				results <- s
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Emitter (caller's goroutine): a finished slot waits in ring at its
	// document's index modulo the window — in-flight indexes are
	// consecutive and at most `window` many, so no two share a place —
	// until every earlier document is out. Once canceled, the loop receives
	// only until every DISPATCHED document has arrived (their reads fail,
	// so they unwind fast): a stalled source read can never hang Run.
	var (
		ring     = make([]*slot[T], window)
		nextIdx  int
		received int64
		emitErr  error
		canceled bool
		done     = ctx.Done()
	)
	for !canceled || received < dispatched.Load() {
		select {
		case s, ok := <-results:
			if !ok {
				release()
				goto drained
			}
			received++
			ring[s.res.Index%window] = s
			for s = ring[nextIdx%window]; s != nil; s = ring[nextIdx%window] {
				ring[nextIdx%window] = nil
				nextIdx++
				if emitErr == nil {
					if emitErr = emit(&s.res); emitErr != nil {
						cancel() // stop dispatching; drain what is in flight
					}
					totals.Docs++
					if s.res.Err != nil {
						totals.Failed++
					}
				}
				s.store.Reset() // drops storage one huge document grew
				s.doc = Doc{}
				free <- s
			}
		case <-done:
			canceled = true
			done = nil // receive-only from here; the loop head decides when to stop
		}
	}
	// Canceled exit: the dispatcher may hold a slot for as long as a stalled
	// read lasts, and still hand it off afterwards; release comes then.
	go func() {
		for range results {
		}
		release()
	}()

drained:
	totals.PeakInFlight = int(peakInFlight.Load())
	totals.BusyNanos = busy.Load()
	totals.WallNanos = obs.Now() - start
	switch terminal := srcErr.Load(); {
	case emitErr != nil:
		return totals, emitErr
	case terminal != nil:
		return totals, *terminal
	}
	return totals, parent.Err()
}

// evaluate runs the slot's document through eval, into and through the
// slot's own buffers and readers.
func (s *slot[T]) evaluate(ctx context.Context, maxDocBytes int64, eval EvalFunc[T]) {
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
	if maxDocBytes > 0 {
		// Read-time backstop for a document of unknown size (a file stat
		// could not size): the cap holds whatever the source reported.
		s.capped = cappedReader{r: in, limit: maxDocBytes, name: s.doc.Name}
		in = &s.capped
	}
	// Cancellation must reach IN-FLIGHT evaluations, not just dispatch: a
	// slow one would hold its worker past a timeout otherwise (the engine
	// unwinds on the read error, as with any failing stream).
	s.ctx = ctxReader{ctx: ctx, r: in}
	s.res.Value, s.res.Err = eval(&s.ctx, s.writers)
}
