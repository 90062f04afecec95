package main

import (
	"strings"
	"testing"
	"time"

	"gcx/internal/engine"
	"gcx/internal/queries"
)

func TestRunSmallSweep(t *testing.T) {
	cfg := config{
		Sizes:   []int64{256 << 10},
		Queries: []queries.Query{queries.Q1, queries.Q13},
		Modes:   []engine.Mode{engine.ModeGCX, engine.ModeStaticOnly, engine.ModeFullBuffer},
		Seed:    1,
		Dir:     t.TempDir(),
	}
	results, err := runSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*3 { // 2 queries × 3 modes
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Query, r.Mode, r.Err)
		}
		if r.Duration <= 0 || r.PeakBytes <= 0 || r.Tokens <= 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	table := formatTable(results)
	for _, want := range []string{"Q1", "Q13", "GCX", "StaticOnly", "FullBuffer"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := formatCSV(results)
	if strings.Count(csv, "\n") != len(results)+1 {
		t.Fatalf("csv row count wrong:\n%s", csv)
	}
}

func TestDocumentCaching(t *testing.T) {
	dir := t.TempDir()
	p1, n1, err := document(dir, 128<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, n2, err := document(dir, 128<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || n1 != n2 {
		t.Fatal("second call must reuse the cached document")
	}
}

func TestTimeout(t *testing.T) {
	cfg := config{
		Sizes:   []int64{512 << 10},
		Queries: []queries.Query{queries.Q8}, // quadratic join
		Modes:   []engine.Mode{engine.ModeGCX},
		Seed:    1,
		Dir:     t.TempDir(),
		Timeout: 1 * time.Millisecond,
	}
	// The timeout select races with run completion when the process is
	// descheduled past both events (possible on loaded CI machines), so
	// allow a few attempts before declaring the mechanism broken.
	var last result
	for attempt := 0; attempt < 5; attempt++ {
		results, err := runSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = results[0]
		if last.TimedOut {
			if !strings.Contains(formatResult(last), "timeout") {
				t.Fatal("timeout must be rendered")
			}
			return
		}
	}
	t.Fatalf("expected a timeout, got %+v", last)
}
