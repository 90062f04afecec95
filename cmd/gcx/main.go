// Command gcx runs one or more XQueries (fragment XQ) over XML documents
// with the GCX buffer-minimization technique.
//
// Usage:
//
//	gcx -query query.xq [-query more.xq] [-q 'inline query']...
//	    [-input doc.xml]... [-j N] [-mode gcx|static|full]
//	    [-explain] [-trace] [-stats] [-stats-json] [-no-early-updates]
//	    [-no-aggregate-roles] [-no-role-elimination] [path ...]
//
// -q and -query are repeatable and may be mixed; with more than one query
// each flag subscribes to one shared-stream registry (gcx.Registry): the
// input is tokenized, projected, and buffered ONCE, and each query's
// result is printed to stdout in flag order (each query's output is
// identical to running it alone; a text given twice is evaluated once).
//
// -input is repeatable, and positional arguments are further inputs: a
// file, a glob pattern, or a .tar archive of documents. More than one
// document selects BULK mode: the corpus is evaluated across -j parallel
// workers (default GOMAXPROCS) drawing pooled run states from one
// compiled engine, and results are printed in corpus order, each
// followed by a newline — byte-identical to looping gcx over the
// documents one at a time, only faster. A document that fails (bad XML,
// unreadable file) reports on stderr and exits non-zero at the end;
// sibling documents are unaffected.
//
// Statistics and diagnostics go to stderr; -stats-json emits them as a
// single JSON object so benchmarks and CI can scrape them without parsing
// prose.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gcx"
	"gcx/internal/corpus"
)

// queryFlag appends to a shared query list, so mixing -q and -query
// preserves the true command-line order (output blocks are printed in the
// same order the queries were given).
type queryFlag struct {
	dst      *[]string
	fromFile bool
}

func (f queryFlag) String() string {
	if f.dst == nil {
		return ""
	}
	return fmt.Sprintf("%d queries", len(*f.dst))
}

func (f queryFlag) Set(v string) error {
	if f.fromFile {
		data, err := os.ReadFile(v)
		if err != nil {
			return err
		}
		v = string(data)
	}
	*f.dst = append(*f.dst, v)
	return nil
}

// listFlag collects repeated string flag values.
type listFlag struct{ dst *[]string }

func (f listFlag) String() string {
	if f.dst == nil {
		return ""
	}
	return fmt.Sprintf("%d values", len(*f.dst))
}

func (f listFlag) Set(v string) error {
	*f.dst = append(*f.dst, v)
	return nil
}

func main() {
	var srcs, inputs []string
	var (
		mode        = flag.String("mode", "gcx", "buffering strategy: gcx, static, full")
		jobs        = flag.Int("j", 0, "bulk workers: parallel document evaluations (0 = GOMAXPROCS)")
		explain     = flag.Bool("explain", false, "print compilation diagnostics (projection tree, roles, rewritten query) and exit")
		trace       = flag.Bool("trace", false, "print a Figure-2-style buffer trace to stderr (single query, single document only)")
		stats       = flag.Bool("stats", false, "print run statistics to stderr")
		statsJSON   = flag.Bool("stats-json", false, "print run statistics as one JSON object to stderr")
		noEarly     = flag.Bool("no-early-updates", false, "disable the early-update optimization")
		noAggregate = flag.Bool("no-aggregate-roles", false, "disable aggregate roles")
		noElim      = flag.Bool("no-role-elimination", false, "disable redundant-role elimination")
	)
	flag.Var(queryFlag{dst: &srcs, fromFile: true}, "query", "file containing a query (repeatable; multiple queries run as a shared-stream workload)")
	flag.Var(queryFlag{dst: &srcs}, "q", "query text given inline (repeatable)")
	flag.Var(listFlag{dst: &inputs}, "input", "XML input: a file, glob pattern, or .tar archive of documents (repeatable; positional arguments are more inputs; default stdin; several documents evaluate in bulk)")
	flag.Parse()
	inputs = append(inputs, flag.Args()...)
	if err := run(srcs, inputs, *mode, *jobs, *explain, *trace, *stats, *statsJSON, *noEarly, *noAggregate, *noElim); err != nil {
		fmt.Fprintln(os.Stderr, "gcx:", err)
		os.Exit(1)
	}
}

// jsonStats is the -stats-json document: aggregate is the run's stats (for
// a single query, the run IS the aggregate); queries, one per query flag,
// is present only with several flags (summed across documents when bulk),
// bulk only when several documents were evaluated.
type jsonStats struct {
	Strategy  string           `json:"strategy"`
	Aggregate gcx.Stats        `json:"aggregate"`
	Queries   []gcx.QueryStats `json:"queries,omitempty"`
	Bulk      *gcx.BulkStats   `json:"bulk,omitempty"`
}

func run(srcs, inputs []string, mode string, jobs int, explain, trace, stats, statsJSON, noEarly, noAggregate, noElim bool) error {
	if len(srcs) == 0 {
		return fmt.Errorf("at least one -query or -q is required")
	}
	if jobs < 0 {
		return fmt.Errorf("-j %d: want a positive worker count (or 0 for GOMAXPROCS)", jobs)
	}

	var opts []gcx.Option
	switch mode {
	case "gcx":
	case "static":
		opts = append(opts, gcx.WithStrategy(gcx.StaticOnly))
	case "full":
		opts = append(opts, gcx.WithStrategy(gcx.FullBuffer))
	default:
		return fmt.Errorf("unknown mode %q (want gcx, static, or full)", mode)
	}
	if noEarly {
		opts = append(opts, gcx.WithoutEarlyUpdates())
	}
	if noAggregate {
		opts = append(opts, gcx.WithoutAggregateRoles())
	}
	if noElim {
		opts = append(opts, gcx.WithoutRedundantRoleElimination())
	}

	if inputFile, solo := resolveSoloInput(inputs); solo {
		if len(srcs) > 1 {
			return runWorkload(srcs, inputFile, mode, explain, trace, stats, statsJSON, opts)
		}
		return runSingle(srcs[0], inputFile, mode, explain, trace, stats, statsJSON, opts)
	}
	return runBulk(srcs, inputs, mode, jobs, explain, trace, stats, statsJSON, opts)
}

// resolveSoloInput reports whether the inputs name exactly one plain
// document — keeping the classic one-document pipeline byte-for-byte —
// and returns its path ("" = stdin). Several inputs, a tar archive,
// "-" (stdin as a concatenated stream), or a glob matching more than
// one file select bulk mode; a glob resolving to a single plain file
// (including the no-match literal fallback, so a file named
// "doc[1].xml" still works with -trace) stays solo.
func resolveSoloInput(inputs []string) (string, bool) {
	switch len(inputs) {
	case 0:
		return "", true
	case 1:
		p := inputs[0]
		if p == "-" || strings.HasSuffix(p, ".tar") {
			return "", false
		}
		if !strings.ContainsAny(p, "*?[") {
			return p, true
		}
		resolved, err := corpus.ExpandPatterns(p)
		if err == nil && len(resolved) == 1 && !strings.HasSuffix(resolved[0], ".tar") {
			return resolved[0], true
		}
		return "", false
	default:
		return "", false
	}
}

// runBulk evaluates the compiled query (or registry) over every
// document of the corpus, printing results to stdout in corpus order —
// the same bytes a per-document loop of solo gcx invocations would
// print. Failed documents report on stderr and make the run exit
// non-zero after every sibling has been served.
func runBulk(srcs, inputs []string, mode string, jobs int, explain, trace, stats, statsJSON bool, opts []gcx.Option) error {
	if trace {
		return fmt.Errorf("-trace supports a single document only")
	}
	var crp *gcx.Corpus
	if len(inputs) == 1 && inputs[0] == "-" {
		crp = gcx.CorpusConcat(os.Stdin)
	} else {
		for _, in := range inputs {
			if in == "-" {
				return fmt.Errorf(`"-" (stdin corpus) cannot be mixed with other inputs`)
			}
		}
		var err error
		crp, err = gcx.CorpusPaths(inputs...)
		if err != nil {
			return err
		}
	}
	stdout := bufio.NewWriter(os.Stdout)
	bopts := gcx.BulkOptions{Workers: jobs}

	var qagg []gcx.QueryStats // per-flag stats summed across documents
	emit := func(d gcx.BulkDoc) error {
		if len(d.Queries) > 0 {
			if qagg == nil {
				qagg = make([]gcx.QueryStats, len(d.Queries))
			}
			for i, q := range d.Queries {
				qagg[i].OutputBytes += q.OutputBytes
				qagg[i].SignOffs += q.SignOffs
				qagg[i].RoleAssignments += q.RoleAssignments
				qagg[i].RoleRemovals += q.RoleRemovals
				qagg[i].TokensAtDone += q.TokensAtDone
			}
		}
		// Propagate output failures (full disk, closed pipe): returning
		// the error cancels dispatch instead of evaluating the rest of
		// the corpus for a sink that is already gone.
		write := func(b []byte, newline bool) error {
			if _, err := stdout.Write(b); err != nil {
				return err
			}
			if !newline {
				return nil
			}
			_, err := fmt.Fprintln(stdout)
			return err
		}
		if d.Err != nil {
			fmt.Fprintf(os.Stderr, "gcx: %s\n", gcx.BulkError(d))
			// Match the solo error path byte for byte: a failing solo run
			// prints its partial output with no trailing newline (and a
			// failing multi-query run flushes only the streamed first
			// flag).
			if len(d.Outputs) > 0 {
				return write(d.Outputs[0], false)
			}
			return write(d.Output, false)
		}
		if len(d.Outputs) > 0 { // registry bulk: one block per query flag
			for _, out := range d.Outputs {
				if err := write(out, true); err != nil {
					return err
				}
			}
			return nil
		}
		return write(d.Output, true)
	}

	var bulk func(*gcx.Corpus, gcx.BulkOptions, func(gcx.BulkDoc) error) (gcx.BulkStats, error)
	if len(srcs) > 1 {
		reg, _, err := subscribe(srcs, opts)
		if err != nil {
			return err
		}
		if explain {
			fmt.Fprintln(os.Stderr, reg.Explain())
			return nil
		}
		bulk = reg.Bulk
	} else {
		eng, err := gcx.Compile(srcs[0], opts...)
		if err != nil {
			return err
		}
		if explain {
			fmt.Fprintln(os.Stderr, eng.Explain())
			return nil
		}
		bulk = eng.Bulk
	}
	bs, err := bulk(crp, bopts, emit)
	if err != nil {
		stdout.Flush()
		return err
	}
	if err := stdout.Flush(); err != nil {
		return err
	}

	if stats {
		printStats(os.Stderr, bs.Aggregate)
		fmt.Fprintf(os.Stderr, "documents:          %d (%d failed), %d workers, %.0f%% pool utilization\n",
			bs.Docs, bs.Failed, bs.Workers, 100*bs.Utilization())
	}
	if statsJSON {
		// With several flags the queries block carries each flag's
		// additive stats summed across the corpus (TokensAtDone included:
		// the total stream position consumed for that flag over all
		// documents).
		if err := emitJSON(jsonStats{Strategy: modeLabel(mode), Aggregate: bs.Aggregate, Queries: qagg, Bulk: &bs}); err != nil {
			return err
		}
	}
	if bs.Failed > 0 {
		return fmt.Errorf("%d of %d documents failed", bs.Failed, bs.Docs)
	}
	return nil
}

func runSingle(src, inputFile, mode string, explain, trace, stats, statsJSON bool, opts []gcx.Option) error {
	eng, err := gcx.Compile(src, opts...)
	if err != nil {
		return err
	}
	if explain {
		fmt.Fprintln(os.Stderr, eng.Explain())
		return nil
	}

	in, closeIn, err := openInput(inputFile)
	if err != nil {
		return err
	}
	defer closeIn()

	var st gcx.Stats
	if trace {
		tl, err := eng.Trace(context.Background(), in, os.Stdout, 0)
		if err != nil {
			return err
		}
		st = tl.Stats
		fmt.Fprint(os.Stderr, tl)
	} else {
		st, err = eng.Run(in, os.Stdout)
		if err != nil {
			return err
		}
	}
	fmt.Println()

	if stats {
		printStats(os.Stderr, st)
	}
	if statsJSON {
		return emitJSON(jsonStats{Strategy: modeLabel(mode), Aggregate: st})
	}
	return nil
}

// subscribe builds the registry of a multi-query run: one subscription per
// query flag, its id the flag's position, so a text given twice shares one
// evaluation.
func subscribe(srcs []string, opts []gcx.Option) (*gcx.Registry, []*gcx.Subscription, error) {
	reg, err := gcx.NewRegistry(opts...)
	if err != nil {
		return nil, nil, err
	}
	subs := make([]*gcx.Subscription, len(srcs))
	for i, src := range srcs {
		if subs[i], err = reg.Subscribe(strconv.Itoa(i), src); err != nil {
			return nil, nil, err
		}
	}
	return reg, subs, nil
}

func runWorkload(srcs []string, inputFile, mode string, explain, trace, stats, statsJSON bool, opts []gcx.Option) error {
	if trace {
		return fmt.Errorf("-trace supports a single query only")
	}
	reg, subs, err := subscribe(srcs, opts)
	if err != nil {
		return err
	}
	if explain {
		fmt.Fprintln(os.Stderr, reg.Explain())
		return nil
	}

	in, closeIn, err := openInput(inputFile)
	if err != nil {
		return err
	}
	defer closeIn()

	// Queries produce output progressively along the shared pass, but
	// stdout must show one complete result per flag in flag order. The
	// FIRST flag's bytes come first in that order anyway, so it streams
	// straight to stdout (bounded memory even for a huge first result);
	// the remaining flags are buffered until the pass completes.
	stdout := bufio.NewWriter(os.Stdout)
	bufs := make([]bytes.Buffer, len(subs))
	outs := map[*gcx.Subscription]io.Writer{subs[0]: stdout}
	for i := 1; i < len(subs); i++ {
		outs[subs[i]] = &bufs[i]
	}
	st, err := reg.Run(in, gcx.SinkFunc(func(sub *gcx.Subscription) io.Writer { return outs[sub] }))
	if err != nil {
		stdout.Flush()
		return err
	}
	fmt.Fprintln(stdout)
	for i := 1; i < len(subs); i++ {
		stdout.Write(bufs[i].Bytes())
		fmt.Fprintln(stdout)
	}
	if err := stdout.Flush(); err != nil {
		return err
	}

	queries := make([]gcx.QueryStats, len(subs))
	for i, sub := range subs {
		queries[i], _ = st.Query(sub)
	}
	if stats {
		printStats(os.Stderr, st.Aggregate)
		for i, q := range queries {
			fmt.Fprintf(os.Stderr, "query %d:            %d bytes out, %d signOffs, done at token %d\n",
				i, q.OutputBytes, q.SignOffs, q.TokensAtDone)
		}
	}
	if statsJSON {
		return emitJSON(jsonStats{Strategy: modeLabel(mode), Aggregate: st.Aggregate, Queries: queries})
	}
	return nil
}

func openInput(inputFile string) (io.Reader, func(), error) {
	if inputFile == "" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(inputFile)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func modeLabel(mode string) string {
	switch mode {
	case "static":
		return gcx.StaticOnly.String()
	case "full":
		return gcx.FullBuffer.String()
	default:
		return gcx.GCX.String()
	}
}

func printStats(w io.Writer, st gcx.Stats) {
	fmt.Fprintf(w, "tokens read:        %d\n", st.TokensRead)
	fmt.Fprintf(w, "buffered total:     %d nodes\n", st.BufferedTotal)
	fmt.Fprintf(w, "purged by GC:       %d nodes\n", st.PurgedTotal)
	fmt.Fprintf(w, "signOffs executed:  %d\n", st.SignOffs)
	fmt.Fprintf(w, "peak buffer:        %d nodes / %d bytes\n", st.PeakBufferNodes, st.PeakBufferBytes)
	fmt.Fprintf(w, "output:             %d bytes\n", st.OutputBytes)
	if st.EvalWallNanos > 0 {
		if st.TimeToFirstResultNanos > 0 {
			fmt.Fprintf(w, "first result after: %s\n", time.Duration(st.TimeToFirstResultNanos))
		}
		fmt.Fprintf(w, "evaluation took:    %s\n", time.Duration(st.EvalWallNanos))
	}
}

func emitJSON(v jsonStats) error {
	enc := json.NewEncoder(os.Stderr)
	return enc.Encode(v)
}
