package gcx

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"gcx/internal/xmark"
)

// TestSignOffResolutionScalesLinearly: resolving a signOff path visits
// each target once, so doubling the document doubles the time of the
// two shapes whose target sets grow with it — a copy without aggregate
// roles, whose signOff reaches every node below the binding, and Q8's
// join, whose inner loop signs off every auction once per person. A
// de-duplicating scan per target made both quadratic (4x per doubling).
// The gate is the best-of-5 time ratio, at most 3. Every timed run is an
// engine's first, so both sizes build their run state cold (the larger
// join's state is over the pass's retention budget and would be rebuilt
// on every run anyway), and runs with the collector off, which would
// otherwise run during the larger runs only.
func TestSignOffResolutionScalesLinearly(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a wall-clock ratio: skipped under -race and -short")
	}
	site := func(size int64) string {
		var doc bytes.Buffer
		if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(size), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return doc.String()
	}
	for _, c := range []struct {
		name         string
		query        string
		opts         []Option
		small, large string
	}{
		{"regions copy without aggregate roles, 1 MB vs 2 MB of XMark",
			`<r>{ for $s in /site/regions return $s }</r>`, []Option{WithoutAggregateRoles()},
			site(1 << 20), site(2 << 20)},
		{"join, 8,000 vs 16,000 auctions", joinTestQuery, nil, joinTestDoc(3, 8_000), joinTestDoc(3, 16_000)},
	} {
		best := func(doc string) time.Duration {
			least := time.Duration(1<<63 - 1)
			for range 5 {
				eng := MustCompile(c.query, c.opts...)
				runtime.GC()
				gc := debug.SetGCPercent(-1)
				start := time.Now()
				_, err := eng.Run(strings.NewReader(doc), io.Discard)
				least = min(least, time.Since(start))
				debug.SetGCPercent(gc)
				if err != nil {
					t.Fatal(err)
				}
			}
			return least
		}
		small, large := best(c.small), best(c.large)
		ratio := float64(large) / float64(small)
		t.Logf("%s: %v vs %v (%.2fx)", c.name, small, large, ratio)
		if ratio > 3 {
			t.Errorf("%s: %v vs %v, %.2fx; want at most 3x", c.name, small, large, ratio)
		}
	}
}
