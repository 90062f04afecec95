package main

import (
	"errors"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"gcx"
)

// opStats is what one op reports about itself. An op that runs several
// evaluations (stream-select runs five queries) folds them: totals add,
// peaks take the maximum, ttfr is the mean over its evaluations.
type opStats struct {
	in     int64     // input bytes fed to the program
	st     gcx.Stats // as the program reported them
	out    int64     // result bytes the sinks received
	writes int64     // Write calls the sinks received
	ttfr   int64     // ns from evaluation start to the first result byte; 0 if none
	err    error     // evaluation error, bad status, or output mismatch
}

var errMismatch = errors.New("output differs from the reference")

// fold adds one evaluation's stats into an op's, the way BulkStats
// aggregates documents: totals sum, peaks take the maximum.
func fold(dst *gcx.Stats, st gcx.Stats) {
	dst.PeakBufferNodes = max(dst.PeakBufferNodes, st.PeakBufferNodes)
	dst.PeakBufferBytes = max(dst.PeakBufferBytes, st.PeakBufferBytes)
	dst.BufferedTotal += st.BufferedTotal
	dst.PurgedTotal += st.PurgedTotal
	dst.SignOffs += st.SignOffs
	dst.TokensRead += st.TokensRead
	dst.OutputBytes += st.OutputBytes
}

// sample is one timed op.
type sample struct {
	dur int64 // ns
	opStats
}

// window is one closed-loop measurement: every client issues its next op
// only after the previous one completed, until the deadline passes.
type window struct {
	ops      []sample
	wall     time.Duration
	mallocs  uint64
	allocd   uint64
	gcCycles uint32
	gcPause  uint64  // ns
	held     []int64 // heldBytes after each of client 0's ops
}

// runWindow drives w from n closed-loop clients for d. tr is nil for the
// untraced pass.
func runWindow(w workload, n int, d time.Duration, tr *tracer) window {
	perClient := make([][]sample, n)
	for i := range perClient {
		perClient[i] = make([]sample, 0, 4096)
	}
	heldSample := newHeldSample()
	held := make([]int64, 0, 1<<16)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx := opCtx{client: c, tr: tr}
				if tr != nil {
					ctx.id = tr.nextOp.Add(1)
				}
				t0 := nanos()
				st := w.op(ctx)
				t1 := nanos()
				if tr != nil {
					tr.add(span{Op: ctx.id, Name: "op", Client: c, StartNs: t0, EndNs: t1})
				}
				perClient[c] = append(perClient[c], sample{dur: t1 - t0, opStats: st})
				if c == 0 {
					held = append(held, heldBytes(heldSample))
				}
			}
		}()
	}
	wg.Wait()
	win := window{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	for _, s := range perClient {
		win.ops = append(win.ops, s...)
	}
	win.mallocs = after.Mallocs - before.Mallocs
	win.allocd = after.TotalAlloc - before.TotalAlloc
	win.gcCycles = after.NumGC - before.NumGC
	win.gcPause = after.PauseTotalNs - before.PauseTotalNs
	win.held = held
	return win
}

// failed counts ops that returned an error, a bad response, or output
// that differs from the reference.
func (w *window) failed() int {
	n := 0
	for i := range w.ops {
		if w.ops[i].err != nil {
			n++
		}
	}
	return n
}

func (w *window) firstErr() error {
	for i := range w.ops {
		if w.ops[i].err != nil {
			return w.ops[i].err
		}
	}
	return nil
}

// bytesIn sums the input of successful ops.
func (w *window) bytesIn() int64 {
	var n int64
	for i := range w.ops {
		if w.ops[i].err == nil {
			n += w.ops[i].in
		}
	}
	return n
}

func (w *window) durations() []int64 {
	d := make([]int64, len(w.ops))
	for i := range w.ops {
		d[i] = w.ops[i].dur
	}
	return d
}

// ttfrs lists the time to first result of the ops that produced output.
func (w *window) ttfrs() []int64 {
	var d []int64
	for i := range w.ops {
		if w.ops[i].ttfr > 0 {
			d = append(d, w.ops[i].ttfr)
		}
	}
	return d
}

// percentile is the nearest-rank percentile of v (which it sorts); 0 for
// an empty slice.
func percentile(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(p*float64(len(v))+0.999999) - 1
	return float64(v[min(max(i, 0), len(v)-1)])
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

const msPerNs = 1e-6

// releaseSetupMemory returns what set-up allocated (documents generated
// several times, FullBuffer reference runs) to the OS, so the memory
// sampled during the window is the measured run's own. FreeOSMemory
// collects once more itself; two cycles are what it takes to drop the
// reference engines' pooled run states from sync.Pool's victim cache.
func releaseSetupMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// heldBytes is the memory the Go runtime holds from the OS: everything it
// has mapped minus what it has released back. It follows the heap the way
// the resident set does, without reading /proc and without the kernel's
// page-granularity effects; reading it neither allocates nor stops the
// world, so it can run inside the window.
func heldBytes(s []metrics.Sample) int64 {
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

func newHeldSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
}
