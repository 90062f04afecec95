package gcx

// Context-aware run variants. The engine's evaluation loop is a
// synchronous pull over the input stream, so cancellation is delivered
// where the engine already handles failure: the stream read. A canceled
// context makes the next read fail with an error matching ErrCanceled
// (and, through it, the context's own Canceled/DeadlineExceeded), and the
// evaluation unwinds exactly like any other input failure — no goroutines
// are abandoned, pooled run states are recycled normally. The reader is
// corpus.Guard, the same one a bulk run puts in front of every document.

import (
	"context"
	"io"

	"gcx/internal/corpus"
)

// RunContext is Run bounded by a context: when ctx is canceled or its
// deadline expires, the evaluation unwinds promptly and the returned
// error matches ErrCanceled (and the context's own error). A background
// context adds no overhead — Run is RunContext with context.Background().
func (e *Engine) RunContext(ctx context.Context, in io.Reader, out io.Writer) (Stats, error) {
	st, err := e.c.Run(corpus.Guard(ctx, in), out)
	return convertStats(st), err
}

// RunContext is Workload.Run bounded by a context; see Engine.RunContext.
func (w *Workload) RunContext(ctx context.Context, in io.Reader, outs []io.Writer) (WorkloadStats, error) {
	if len(outs) != w.Len() {
		return WorkloadStats{}, errWriterCount(w.Len(), len(outs))
	}
	st, qs, err := w.c.Run(corpus.Guard(ctx, in), outs)
	return WorkloadStats{Aggregate: convertStats(st), Queries: qs}, err
}
