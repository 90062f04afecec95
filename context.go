package gcx

// Context-aware run variants. The engine's evaluation loop is a
// synchronous pull over the input stream, so cancellation is delivered
// where the engine already handles failure: the stream read. A canceled
// context makes the next read fail with an error matching ErrCanceled
// (and, through it, the context's own Canceled/DeadlineExceeded), and the
// evaluation unwinds exactly like any other input failure — no goroutines
// are abandoned, pooled run states are recycled normally.

import (
	"context"
	"errors"
	"io"
)

// ctxReader surfaces context cancellation (timeout, caller gone) as a
// stream read error, which the engine propagates verbatim.
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

// guard wraps in with cancellation checks; a context that can never be
// canceled (context.Background, nil) adds no per-read overhead.
func guard(ctx context.Context, in io.Reader) io.Reader {
	if ctx == nil || ctx.Done() == nil {
		return in
	}
	return &ctxReader{ctx: ctx, r: in}
}

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline expires, the evaluation unwinds promptly and the returned
// error matches ErrCanceled (and the context's own error). A background
// context adds no overhead — Run is RunContext with context.Background().
func (e *Engine) RunContext(ctx context.Context, in io.Reader, out io.Writer) (Stats, error) {
	st, err := e.c.Run(guard(ctx, in), out)
	return convertStats(st), err
}

// RunContext is Workload.Run bounded by a context; see Engine.RunContext.
func (w *Workload) RunContext(ctx context.Context, in io.Reader, outs []io.Writer) (WorkloadStats, error) {
	if len(outs) != w.Len() {
		return WorkloadStats{}, errWriterCount(w.Len(), len(outs))
	}
	st, qs, err := w.c.Run(guard(ctx, in), outs)
	return WorkloadStats{Aggregate: convertStats(st), Queries: qs}, err
}
