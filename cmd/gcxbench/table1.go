package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/queries"
	"gcx/internal/units"
	"gcx/internal/xmark"
	"gcx/internal/xmarkdtd"
)

// config parameterizes a Table 1 sweep.
type config struct {
	// Sizes are target document sizes in bytes (the paper used 10, 50,
	// 100, 200 MB).
	Sizes []int64
	// Queries to run.
	Queries []queries.Query
	// Modes to compare.
	Modes []engine.Mode
	// Seed for document generation.
	Seed uint64
	// Timeout aborts a single run (0 = no timeout). The paper used 1 hour.
	Timeout time.Duration
	// WithSchema additionally runs GCX with the XMark DTD (schema-aware
	// early region termination; the FluX-style capability).
	WithSchema bool
	// Dir is where generated documents are cached; defaults to the OS
	// temp directory.
	Dir string
	// Progress, if non-nil, receives one line per completed run.
	Progress io.Writer
}

// result is one cell of Table 1.
type result struct {
	Query string
	// Engine is the column label: the mode name, or "GCX+DTD" for the
	// schema-aware run.
	Engine    string
	Mode      engine.Mode
	DocBytes  int64
	Duration  time.Duration
	PeakNodes int64
	PeakBytes int64
	OutBytes  int64
	Tokens    int64
	// Allocs / AllocBytes are the heap allocations performed during the
	// run (process-wide malloc deltas; with the engine's pooled run state
	// they approach the bytes the query genuinely had to buffer). Only
	// meaningful when AllocsMeasured is set: a goroutine abandoned by an
	// earlier timed-out run suppresses the measurement.
	Allocs         uint64
	AllocBytes     uint64
	AllocsMeasured bool
	Err            error
	TimedOut       bool
}

// runSweep executes the sweep and returns all results in (size, query, mode)
// order.
func runSweep(cfg config) ([]result, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = os.TempDir()
	}

	var results []result
	record := func(r result) {
		results = append(results, r)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%s\n", formatResult(r))
		}
	}
	for _, size := range cfg.Sizes {
		path, actual, err := document(dir, size, cfg.Seed)
		if err != nil {
			return results, err
		}
		for _, q := range cfg.Queries {
			for _, mode := range cfg.Modes {
				record(runOne(q, mode, nil, path, actual, cfg.Timeout))
			}
			if cfg.WithSchema {
				record(runOne(q, engine.ModeGCX, xmarkSchema(), path, actual, cfg.Timeout))
			}
		}
	}
	return results, nil
}

// document generates (or reuses) a cached XMark document of approximately
// the target size and returns its path and actual size.
func document(dir string, targetBytes int64, seed uint64) (string, int64, error) {
	factor := xmark.FactorForSize(targetBytes)
	name := fmt.Sprintf("xmark-f%.6f-s%d.xml", factor, seed)
	path := filepath.Join(dir, name)
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return path, fi.Size(), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", 0, fmt.Errorf("create document: %w", err)
	}
	n, err := xmark.Generate(f, xmark.Config{Factor: factor, Seed: seed})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", 0, fmt.Errorf("generate document: %w", err)
	}
	return path, n, nil
}

var schemaOnce struct {
	once   sync.Once
	schema *dtd.Schema
}

func xmarkSchema() *dtd.Schema {
	schemaOnce.once.Do(func() {
		schemaOnce.schema = dtd.MustParse(xmarkdtd.DTD)
	})
	return schemaOnce.schema
}

func runOne(q queries.Query, mode engine.Mode, schema *dtd.Schema, path string, docBytes int64, timeout time.Duration) result {
	label := mode.String()
	if schema != nil {
		label += "+DTD"
	}
	r := result{Query: q.Name, Engine: label, Mode: mode, DocBytes: docBytes}
	c, err := engine.Compile(q.Text, engine.Config{Mode: mode, Schema: schema})
	if err != nil {
		r.Err = err
		return r
	}
	f, err := os.Open(path)
	if err != nil {
		r.Err = err
		return r
	}
	defer f.Close()

	type outcome struct {
		st  engine.Stats
		err error
	}
	done := make(chan outcome, 1)
	// Alloc metrics are process-wide malloc deltas; a goroutine abandoned
	// by an earlier timeout would pollute them, so they are only reported
	// when no stray run is in flight around the measurement.
	cleanStart := strayRuns.Load() == 0
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	strayRuns.Add(1)
	go func() {
		st, err := c.Run(f, io.Discard)
		strayRuns.Add(-1)
		done <- outcome{st, err}
	}()

	var out outcome
	if timeout > 0 {
		select {
		case out = <-done:
		case <-time.After(timeout):
			r.TimedOut = true
			r.Duration = timeout
			return r
		}
	} else {
		out = <-done
	}
	r.Duration = time.Since(start)
	r.Err = out.err
	r.PeakNodes = out.st.Buffer.PeakNodes
	r.PeakBytes = out.st.Buffer.PeakBytes
	r.OutBytes = out.st.OutputBytes
	r.Tokens = out.st.TokensRead
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if cleanStart && strayRuns.Load() == 0 {
		r.Allocs = ms.Mallocs - before.Mallocs
		r.AllocBytes = ms.TotalAlloc - before.TotalAlloc
		r.AllocsMeasured = true
	}
	return r
}

// strayRuns counts run goroutines currently inside engine.Run. A timed-out
// run's goroutine keeps executing after its result is abandoned; while any
// such stray is alive, per-run alloc metrics are left zero rather than
// reported wrong.
var strayRuns atomic.Int64

// formatResult renders one result as a single line.
func formatResult(r result) string {
	if r.TimedOut {
		return fmt.Sprintf("%-4s %-11s %7s   timeout", r.Query, r.Engine, units.FormatSize(r.DocBytes))
	}
	if r.Err != nil {
		return fmt.Sprintf("%-4s %-11s %7s   error: %v", r.Query, r.Engine, units.FormatSize(r.DocBytes), r.Err)
	}
	allocs := "allocs n/a"
	if r.AllocsMeasured {
		allocs = fmt.Sprintf("allocs %d (%s)", r.Allocs, units.FormatSize(int64(r.AllocBytes)))
	}
	return fmt.Sprintf("%-4s %-11s %7s   %10s   peak %9s (%d nodes)   out %s   %s",
		r.Query, r.Engine, units.FormatSize(r.DocBytes), r.Duration.Round(time.Millisecond),
		units.FormatSize(r.PeakBytes), r.PeakNodes, units.FormatSize(r.OutBytes), allocs)
}

// formatTable renders results in the layout of Table 1: one block per
// query, one row per document size, one column per engine showing
// "time / peak buffer".
func formatTable(results []result) string {
	type key struct {
		query string
		size  int64
	}
	cells := map[key]map[string]result{}
	var modes []string
	modeSeen := map[string]bool{}
	var queriesOrder []string
	querySeen := map[string]bool{}
	sizesByQuery := map[string][]int64{}

	for _, r := range results {
		k := key{r.Query, r.DocBytes}
		if cells[k] == nil {
			cells[k] = map[string]result{}
		}
		cells[k][r.Engine] = r
		if !modeSeen[r.Engine] {
			modeSeen[r.Engine] = true
			modes = append(modes, r.Engine)
		}
		if !querySeen[r.Query] {
			querySeen[r.Query] = true
			queriesOrder = append(queriesOrder, r.Query)
		}
		found := false
		for _, s := range sizesByQuery[r.Query] {
			if s == r.DocBytes {
				found = true
			}
		}
		if !found {
			sizesByQuery[r.Query] = append(sizesByQuery[r.Query], r.DocBytes)
		}
	}

	var b strings.Builder
	b.WriteString("Table 1 reproduction: evaluation time / buffer high watermark\n")
	b.WriteString(fmt.Sprintf("%-14s", "Query  Size"))
	for _, m := range modes {
		b.WriteString(fmt.Sprintf(" | %-24s", m))
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 14+27*len(modes)) + "\n")
	for _, qn := range queriesOrder {
		sizes := sizesByQuery[qn]
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, size := range sizes {
			b.WriteString(fmt.Sprintf("%-5s %8s", qn, units.FormatSize(size)))
			for _, m := range modes {
				r, ok := cells[key{qn, size}][m]
				switch {
				case !ok:
					b.WriteString(fmt.Sprintf(" | %-24s", "-"))
				case r.TimedOut:
					b.WriteString(fmt.Sprintf(" | %-24s", "timeout"))
				case r.Err != nil:
					b.WriteString(fmt.Sprintf(" | %-24s", "error"))
				default:
					b.WriteString(fmt.Sprintf(" | %9s / %-11s",
						r.Duration.Round(time.Millisecond), units.FormatSize(r.PeakBytes)))
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// formatCSV renders results as CSV for downstream plotting.
func formatCSV(results []result) string {
	var b strings.Builder
	b.WriteString("query,engine,doc_bytes,duration_ms,peak_buffer_bytes,peak_buffer_nodes,output_bytes,tokens,timed_out,error\n")
	for _, r := range results {
		errStr := ""
		if r.Err != nil {
			errStr = strings.ReplaceAll(r.Err.Error(), ",", ";")
		}
		fmt.Fprintf(&b, "%s,%s,%d,%.3f,%d,%d,%d,%d,%t,%s\n",
			r.Query, r.Engine, r.DocBytes,
			float64(r.Duration.Microseconds())/1000.0,
			r.PeakBytes, r.PeakNodes, r.OutBytes, r.Tokens, r.TimedOut, errStr)
	}
	return b.String()
}
