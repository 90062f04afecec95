package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNowMonotonicAndNonzero(t *testing.T) {
	a := Now()
	if a <= 0 {
		t.Fatalf("Now() = %d, want > 0", a)
	}
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Fatalf("Now() not monotonic: %d then %d", a, b)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Observe(0)                 // below floor → bucket 0
	h.Observe(1023)              // still bucket 0 (floor is 2^10)
	h.Observe(1024)              // bucket 1
	h.Observe(1 << 62)           // beyond range → last bucket
	h.Observe(-5)                // clamped to 0 → bucket 0
	h.Observe(UpperBound(3) - 1) // top of bucket 3
	h.Observe(UpperBound(3))     // bottom of bucket 4
	s := h.Snapshot()
	want := map[int]int64{0: 3, 1: 1, 3: 1, 4: 1, NumBuckets - 1: 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d: count %d, want %d", i, c, want[i])
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
}

// TestObservePositiveSkipsNonResults: 0 means "never happened" (a run
// with no output has no first result), so ObservePositive must record
// nothing for it — Observe would file a fake zero-latency sample in
// bucket 0 and drag every quantile down.
func TestObservePositiveSkipsNonResults(t *testing.T) {
	var h Histogram
	h.ObservePositive(0)
	h.ObservePositive(-1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("non-results were recorded: count %d", s.Count)
	}
	h.ObservePositive(2047) // top of bucket 1: [1024, 2048)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 2047 {
		t.Fatalf("real observation lost: count %d sum %d", s.Count, s.Sum)
	}
	if q := s.Quantile(0.5); q != UpperBound(1) {
		t.Fatalf("quantile %d, want %d — zero samples must not dilute", q, UpperBound(1))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
	// 90 fast observations (~2µs) and 10 slow ones (~1s).
	for i := 0; i < 90; i++ {
		h.Observe(2_000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000_000)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 > 4_096 {
		t.Errorf("p50 = %dns, want ≤ 4096ns (bucket bound of ~2µs)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 1_000_000_000 {
		t.Errorf("p99 = %dns, want ≥ 1s", p99)
	}
	if s.Sum != 90*2_000+10*1_000_000_000 {
		t.Errorf("Sum = %d", s.Sum)
	}
	// Nearest-rank edges: p=1 is the max bucket, tiny p is the min.
	if q := s.Quantile(1.0); q < 1_000_000_000 {
		t.Errorf("p100 = %dns, want ≥ 1s", q)
	}
	if q := s.Quantile(0.01); q > 4_096 {
		t.Errorf("p1 = %dns, want ≤ 4096ns", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Observe(seed + i)
			}
		}(int64(w) * 1_000)
	}
	done := make(chan struct{})
	go func() {
		// Scrape while recording: snapshots must stay internally sane.
		for {
			select {
			case <-done:
				return
			default:
				s := h.Snapshot()
				var n int64
				for _, c := range s.Counts {
					n += c
				}
				if n > workers*per || s.Count > workers*per {
					t.Errorf("snapshot overcounts: buckets %d count %d", n, s.Count)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
}

// TestObserveAllocationFree is the acceptance proof that histogram
// recording — the code running inside instrumented hot paths — allocates
// nothing.
func TestObserveAllocationFree(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		start := Now()
		h.Observe(Now() - start)
		h.Observe(Now())
	})
	if allocs != 0 {
		t.Fatalf("Observe/Now allocate %.1f per run, want 0", allocs)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
