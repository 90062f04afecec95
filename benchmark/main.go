// Command benchmark is the repository's one benchmark: five workloads over
// the whole Figure 11 chain, end-to-end metrics from an untraced pass and
// per-layer metrics from a separate traced pass. BENCHMARK.json at the
// repository root is its contract; README.md explains how to read it.
//
//	bash benchmark/run.sh --workload stream-join --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1                  # every workload, one document
//	bash benchmark/run.sh --compare A.json B.json   # apply the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result line; empty runs all of them")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		runs    = flag.Int("runs", 1, "full run: untraced runs per workload (their median is compared)")
		compare = flag.Bool("compare", false, "compare two full-run documents: -compare A.json B.json")
		update  = flag.Bool("update-golden", false, "rewrite testdata/golden-seed1.json from this run (seed 1 only)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *runs, *compare, *update); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool, runs int, compare, update bool) error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if name == "" {
		return fullRun(spec, root, seed, seconds, runs)
	}
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	opts := runOptions{seed: seed, window: time.Duration(seconds) * time.Second, trace: trace,
		sc: fullScale, root: root, golden: true, updateGolden: update}
	res, err := runWorkload(spec, def, opts)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or a golden expectation did not hold", name, res.Failed, res.Attempted)
	}
	return nil
}

type runOptions struct {
	seed         uint64
	window       time.Duration
	trace        bool
	sc           scale
	root         string
	golden       bool // check set-up against testdata (full-scale inputs of seed 1 have an expectation)
	updateGolden bool
}

// runWorkload is one invocation for one workload: set up (several times
// when untraced, so setup_s is a median), measure, verify.
func runWorkload(spec *benchSpec, def workloadDef, o runOptions) (result, error) {
	if nproc := runtime.NumCPU(); def.procs > nproc {
		return result{}, fmt.Errorf("%s needs %d clients/workers but nproc is %d: refusing to oversubscribe", def.name, def.procs, nproc)
	}
	w, setupS, err := setUp(def, o)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	defer w.close()
	goldenOK, err := checkGolden(def.name, w.golden(), o)
	if err != nil {
		return result{}, err
	}
	releaseSetupMemory()

	c := collector{}
	var win window
	var specs []metricSpec
	if o.trace {
		specs = spec.PerLayer
		if win, err = tracedPass(def, w, o, c); err != nil {
			return result{}, fmt.Errorf("%s traced pass: %w", def.name, err)
		}
	} else {
		specs = spec.EndToEnd
		win = runWindow(w, def.clients, o.window, nil)
		endToEnd(c, &win, setupS)
	}
	if err := win.firstErr(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", def.name, err)
	}
	metrics, err := c.collect(specs, !o.trace)
	if err != nil {
		return result{}, err
	}
	failed := win.failed()
	return result{Correct: failed == 0 && goldenOK, Attempted: len(win.ops), Failed: failed, Metrics: metrics}, nil
}

// setUp runs the workload's set-up and reports its median time. The
// builder's contract makes setup_s a bounded end-to-end metric and wants
// it as the median of several set-ups in one run, so the untraced pass
// sets up at least five times, and up to nine while that takes under
// 1.5 s; the last instance is the one measured (releaseSetupMemory then
// drops what the earlier ones allocated). The traced pass sets up once.
func setUp(def workloadDef, o runOptions) (workload, float64, error) {
	var times []float64
	var w workload
	start := time.Now()
	for {
		if w != nil {
			w.close()
		}
		w = def.create()
		t0 := time.Now()
		if err := w.setup(o.seed, o.sc); err != nil {
			w.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if o.trace || len(times) >= 9 || (len(times) >= 5 && time.Since(start) > 1500*time.Millisecond) {
			return w, medianFloat(times), nil
		}
	}
}

// endToEnd fills the end-to-end metrics from the untraced window: the
// buffer peak, allocation and memory, which repeat from run to run.
// Throughput, op time and time to first result do not on the dev
// container — its speed shifts by 1.3x to 2x for minutes at a time, and
// the same commit failed the two-set agreement check on them at the
// widest bound the contract allows — so by issue 12's rule they are
// per-layer metrics (run.*, see tracedPass) and gate nothing.
func endToEnd(c collector, win *window, setupS float64) {
	in := float64(win.bytesIn())
	var peak int64
	for i := range win.ops {
		peak = max(peak, win.ops[i].st.PeakBufferBytes)
	}
	c["peak_buffer_bytes"] = float64(peak)
	c["allocs_per_mb"] = float64(win.mallocs) / (in / 1e6)
	c["alloc_bytes_per_byte"] = float64(win.allocd) / in
	c["mem_mb_p90"] = percentile(win.held, 0.9) / 1e6
	c["setup_s"] = setupS
}

// tracedPass produces the per-layer metrics: a short untraced window (the
// run.* timings) and a traced one (their ratio is the tracing overhead),
// the rung ladder
// over the workload's pairs, and the workload's own layers. The whole
// pass fits in the run's window length.
func tracedPass(def workloadDef, w workload, o runOptions, c collector) (window, error) {
	untraced := runWindow(w, def.clients, o.window/5, nil)
	tr := newTracer()
	traced := runWindow(w, def.clients, o.window/5, tr)
	if err := tr.write(o.root, def.name, o.seed); err != nil {
		return traced, err
	}
	if traced.failed() > 0 || untraced.failed() > 0 {
		traced.ops = append(traced.ops, untraced.ops...)
		return traced, nil
	}
	base := percentile(untraced.durations(), 0.5)
	c["trace.overhead_ratio"] = percentile(traced.durations(), 0.5) / base
	c["run.throughput_mb_s"] = float64(untraced.bytesIn()) / 1e6 / untraced.wall.Seconds()
	c["run.op_ms_p50"] = base * msPerNs
	c["run.ttfr_ms_p50"] = percentile(untraced.ttfrs(), 0.5) * msPerNs
	c["run.op_ms_p90"] = percentile(untraced.durations(), 0.9) * msPerNs
	c["runtime.gc_cycles_per_op"] = float64(untraced.gcCycles) / float64(len(untraced.ops))
	c["runtime.gc_pause_ms_per_s"] = float64(untraced.gcPause) * msPerNs / untraced.wall.Seconds()

	// Exact work counts, as the program reported them for one op. Inputs
	// do not change between ops, so neither do these.
	op := traced.ops[0]
	st := op.st
	c["proj.tokens_read_per_op"] = float64(st.TokensRead)
	c["proj.buffered_nodes_per_op"] = float64(st.BufferedTotal)
	c["proj.useful_ratio"] = float64(st.BufferedTotal) / float64(st.TokensRead)
	c["buffer.peak_nodes"] = float64(st.PeakBufferNodes)
	c["buffer.purged_nodes_per_op"] = float64(st.PurgedTotal)
	c["buffer.signoffs_per_op"] = float64(st.SignOffs)
	c["buffer.residue_nodes"] = float64(st.BufferedTotal - st.PurgedTotal)
	c["xmlstream.writer_bytes_per_op"] = float64(op.out)
	c["xmlstream.sink_writes_per_op"] = float64(op.writes)
	c["xmlstream.first_write_ms_p50"] = percentile(traced.ttfrs(), 0.5) * msPerNs

	lad, err := runLadder(w.pairs(), o.window/2)
	if err != nil {
		return traced, err
	}
	lad.report(c)
	c["buffer.gc_gain"] = c["buffer.fill_peak_bytes"] / float64(st.PeakBufferBytes)
	if err := w.layers(c, lad, &traced, o.window/10); err != nil {
		return traced, err
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["runtime.process_max_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KB
	}
	return traced, nil
}

const goldenFile = "golden-seed1.json"

// checkGolden compares what set-up saw with the committed expectation for
// seed 1 at full scale. Other seeds and scales have none and pass.
func checkGolden(name string, got []goldenRow, o runOptions) (bool, error) {
	if !o.golden || o.seed != 1 {
		return true, nil
	}
	path := filepath.Join(o.root, "benchmark", "testdata", goldenFile)
	all := map[string][]goldenRow{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &all)
	}
	if err != nil && !(o.updateGolden && os.IsNotExist(err)) {
		return false, err
	}
	if o.updateGolden {
		all[name] = got
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return false, err
		}
		return true, os.WriteFile(path, append(data, '\n'), 0o644)
	}
	want := all[name]
	ok := slices.Equal(want, got)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: %s: set-up differs from %s\n  want %+v\n  got  %+v\n", name, goldenFile, want, got)
	}
	return ok, nil
}
