// Package obs provides the observability primitives shared by the engine,
// the schedulers, and gcxd: a monotonic run clock, an allocation-free
// lock-free latency histogram, and a stage stopwatch.
//
// Everything on a recording path follows the discipline of
// internal/server/metrics.go — atomics only, no locks, no allocation — so
// instrumented hot paths (the writer's first-byte stamp, per-request
// histogram observes) cost a few atomic operations and nothing else.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// base anchors the process-wide monotonic clock. time.Since on a Time that
// carries a monotonic reading compiles to a nanotime read — no allocation,
// immune to wall-clock steps.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. The zero value is
// reserved as "never": Now is strictly positive for any call made after
// package initialization.
//
//gcxlint:noalloc
func Now() int64 {
	return int64(time.Since(base)) | 1
}

// Histogram bucket geometry: bucket i counts observations v (nanoseconds)
// with bits.Len64(v) == minLen+i, i.e. v ∈ [2^(minLen+i-1), 2^(minLen+i));
// everything below 2^minLen ns (~1µs) collapses into bucket 0 and
// everything at or above the last finite bound (~69s) into the final
// overflow bucket. Log₂ buckets bound the quantile overestimate at 2×,
// which is ample for p50/p99 latency reporting, and make recording a
// single bits.Len64 plus three atomic adds.
const (
	// minLen is the resolution floor: 2^10 ns ≈ 1µs.
	minLen = 10
	// NumBuckets spans ~1µs .. ~69s in factors of two, plus overflow.
	NumBuckets = 27
)

// Histogram is a fixed-bucket log₂ latency histogram. The zero value is
// ready to use; all methods are safe for concurrent use. Recording never
// allocates and never blocks.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one latency in nanoseconds. Negative values are clamped
// to zero (they can only arise from clock misuse; dropping them silently
// would bias counts).
//
//gcxlint:noalloc
func (h *Histogram) Observe(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	i := bits.Len64(uint64(nanos)) - minLen
	if i < 0 {
		i = 0
	} else if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(nanos)
}

// ObservePositive records nanos only when it is a real measurement
// (> 0). Throughout this codebase the zero value means "never happened"
// (writer first-byte stamps, TTFR fields of runs that produced no
// output), so recording it would invent a zero-latency observation and
// drag every quantile down.
//
//gcxlint:noalloc
func (h *Histogram) ObservePositive(nanos int64) {
	if nanos <= 0 {
		return
	}
	h.Observe(nanos)
}

// UpperBound returns the exclusive upper bound, in nanoseconds, of bucket
// i. The final bucket is unbounded; its reported bound is the largest
// finite bound (used as the conservative quantile answer for overflow).
func UpperBound(i int) int64 {
	if i < 0 {
		i = 0
	}
	if i > NumBuckets-1 {
		i = NumBuckets - 1
	}
	return 1 << (minLen + i)
}

// HistSnapshot is a point-in-time copy of a Histogram. Counts are read
// bucket by bucket without a lock: concurrent Observes may straddle the
// read, so Count may differ from the bucket sum by in-flight observations
// — harmless for monitoring, and Quantile uses the bucket sum.
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	Sum    int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns the nearest-rank p-quantile (0 < p ≤ 1) in
// nanoseconds: the upper bound of the bucket holding the observation of
// rank ⌈p·n⌉. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(p float64) int64 {
	var n int64
	for i := range s.Counts {
		n += s.Counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := int64(p*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			return UpperBound(i)
		}
	}
	return UpperBound(NumBuckets - 1)
}
