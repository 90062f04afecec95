// Command gcxbench reproduces Table 1 of the paper: it sweeps the XMark
// queries Q1, Q6, Q8, Q13, Q20 over generated documents of the requested
// sizes and prints evaluation time and buffer high watermark for each
// engine (GCX, StaticOnly, FullBuffer).
//
// The paper's full sweep:
//
//	gcxbench -sizes 10MB,50MB,100MB,200MB -timeout 1h
//
// A laptop-scale smoke run (the default):
//
//	gcxbench
//
// The paper measured resident memory of whole processes (C++/Java
// engines) with `top`; gcxbench reports the quantity the engine controls
// — peak buffered nodes/bytes, deterministic for a given document and
// query — plus the run's allocation count. It is a reproduction, not
// a regression benchmark: what gates a change is `bash benchmark/run.sh`
// (BENCHMARK.json), which runs smaller documents through every layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gcx/internal/engine"
	"gcx/internal/queries"
	"gcx/internal/units"
)

func main() {
	var (
		sizes   = flag.String("sizes", "2MB,10MB", "comma-separated document sizes")
		qnames  = flag.String("queries", "Q1,Q6,Q8,Q13,Q20", "comma-separated query names")
		modes   = flag.String("modes", "gcx,static,full", "engines to compare")
		seed    = flag.Uint64("seed", 1, "document generator seed")
		timeout = flag.Duration("timeout", 15*time.Minute, "per-run timeout (paper: 1h); 0 disables")
		dir     = flag.String("dir", "", "directory for cached documents (default OS temp)")
		csv     = flag.String("csv", "", "also write results as CSV to this file")
		schema  = flag.Bool("schema", false, "add a GCX+DTD column (schema-aware early termination with the XMark DTD)")
	)
	flag.Parse()

	cfg := config{
		Seed:       *seed,
		Timeout:    *timeout,
		Dir:        *dir,
		Progress:   os.Stderr,
		WithSchema: *schema,
	}
	for _, s := range strings.Split(*sizes, ",") {
		b, err := units.ParseSize(s)
		if err != nil {
			fatal(err)
		}
		cfg.Sizes = append(cfg.Sizes, b)
	}
	for _, name := range strings.Split(*qnames, ",") {
		q := queries.ByName(strings.TrimSpace(name))
		if q.Name == "" {
			fatal(fmt.Errorf("unknown query %q", name))
		}
		cfg.Queries = append(cfg.Queries, q)
	}
	for _, m := range strings.Split(*modes, ",") {
		switch strings.TrimSpace(m) {
		case "gcx":
			cfg.Modes = append(cfg.Modes, engine.ModeGCX)
		case "static":
			cfg.Modes = append(cfg.Modes, engine.ModeStaticOnly)
		case "full":
			cfg.Modes = append(cfg.Modes, engine.ModeFullBuffer)
		default:
			fatal(fmt.Errorf("unknown mode %q (want gcx, static, full)", m))
		}
	}

	results, err := runSweep(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(formatTable(results))

	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(formatCSV(results)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csv)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcxbench:", err)
	os.Exit(1)
}
