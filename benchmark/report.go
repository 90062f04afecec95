package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// A full run executes every workload in a process of its own (so resident
// set and GC state are per workload): `runs` untraced invocations and one
// traced one each, gathered into one JSON document that starts with the
// run header. -compare reads two such documents.

type runHeader struct {
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	RunSeconds int            `json:"run_seconds"`
	Runs       int            `json:"runs"`
	Loop       string         `json:"loop"`
	Clients    map[string]int `json:"clients"` // closed-loop clients per workload
	Procs      map[string]int `json:"procs"`   // clients or pool workers, checked against nproc
}

// series is one end-to-end metric over the untraced runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

type fullDoc struct {
	Header    runHeader        `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

func fullRun(spec *benchSpec, root string, seed uint64, seconds, runs int) error {
	doc := fullDoc{Header: runHeader{
		Commit: gitCommit(root), Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, RunSeconds: seconds, Runs: runs, Loop: "closed",
		Clients: map[string]int{}, Procs: map[string]int{},
	}}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, wl := range spec.Workloads {
		def, ok := findWorkload(wl.Name)
		if !ok {
			return fmt.Errorf("%s names workload %q, which the program does not have", specFile, wl.Name)
		}
		doc.Header.Clients[def.name], doc.Header.Procs[def.name] = def.clients, def.procs
		rep := workloadReport{Name: def.name, EndToEnd: map[string]series{}}
		for i := 0; i < runs; i++ {
			res, err := runChild(exe, def.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
			failed = failed || !res.Correct
			for name, m := range res.Metrics {
				s := rep.EndToEnd[name]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				s.Median = medianFloat(s.Values)
				rep.EndToEnd[name] = s
			}
		}
		res, err := runChild(exe, def.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		rep.PerLayer = res.Metrics
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		failed = failed || !res.Correct
		rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
		doc.Workloads = append(doc.Workloads, rep)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed {
		return errors.New("at least one workload reported failed ops or a golden mismatch")
	}
	return nil
}

// runChild re-executes this program for one workload and parses the
// result line it prints last.
func runChild(exe, name string, seed uint64, seconds, trace int) (result, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil // a printed result with correct=false is reported, not fatal here
}

// gitCommit reads the checked-out commit from .git without running git
// (the benchmark starts no program but itself). A checkout that is not a
// repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

// sameSeedBounds replace BENCHMARK.json's bounds, where they are tighter,
// when -compare reads two documents of one seed. The file's bounds have to
// hold between runs of different seeds (the driver measures spread that
// way), and there the documents themselves differ: the buffer peak by up
// to 5 % and allocations by up to 8 %. With the same inputs the peak
// repeats exactly and the allocation metrics to within 2 %, so a change
// of a few percent there is the program's, not the input's.
var sameSeedBounds = map[string]float64{
	"peak_buffer_bytes":    0,
	"allocs_per_mb":        0.05,
	"alloc_bytes_per_byte": 0.05,
}

// exactMetrics are work counts that repeat exactly between two runs of
// the same inputs on the same commit; -compare lists any that differ.
var exactMetrics = []string{
	"xmlstream.tokens_per_op", "xmlstream.structural_bytes_per_op", "xmlstream.writer_bytes_per_op",
	"proj.tokens_read_per_op", "proj.buffered_nodes_per_op",
	"buffer.peak_nodes", "buffer.fill_peak_bytes", "buffer.purged_nodes_per_op", "buffer.signoffs_per_op", "buffer.residue_nodes",
	"registry.fanout_bytes_per_op", "registry.groups",
	"server.bytes_in_per_op", "server.bytes_out_per_op", "server.errors",
}

// spread is the run-to-run spread of a set as a share of its median: the
// distance between the first and third quartile (as Python's
// statistics.quantiles(v, n=4) places them) from four values up, the
// full range below that.
func spread(v []float64) float64 {
	med := medianFloat(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

func loadFullDoc(path string) (*fullDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d fullDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *fullDoc) workload(name string) *workloadReport {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two full-run documents,
// set median against set median: one row per workload and end-to-end
// metric. A metric whose spread inside either set is wider than its bound
// is unresolved, not unchanged. Exact counts that differ are listed. It
// fails on a regression and on failed ops, and refuses two documents that
// were not measured with the same run length and number of runs.
func compareFiles(spec *benchSpec, basePath, newPath string) error {
	base, err := loadFullDoc(basePath)
	if err != nil {
		return err
	}
	cand, err := loadFullDoc(newPath)
	if err != nil {
		return err
	}
	if b, n := base.Header, cand.Header; b.RunSeconds != n.RunSeconds || b.Runs != n.Runs {
		return fmt.Errorf("the documents were measured differently (%d runs of %d s, %d runs of %d s) and cannot be compared",
			b.Runs, b.RunSeconds, n.Runs, n.RunSeconds)
	}
	sameSeed := base.Header.Seed == cand.Header.Seed
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	bad, differ := 0, 0
	for _, wl := range spec.Workloads {
		b, n := base.workload(wl.Name), cand.workload(wl.Name)
		if b == nil || n == nil {
			return fmt.Errorf("workload %s is missing from one of the documents", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			bs, ns := b.EndToEnd[m.Name], n.EndToEnd[m.Name]
			bound := m.Bound
			if tight, ok := sameSeedBounds[m.Name]; ok && sameSeed {
				bound = min(bound, tight)
			}
			worse := (ns.Median - bs.Median) / bs.Median
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(bs.Values), spread(ns.Values))
			verdict := "unchanged"
			switch {
			case worse > bound:
				verdict = "REGRESSED"
				bad++
			case sp > bound:
				verdict = "unresolved"
			case worse < -bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.2f\t%s\n",
				wl.Name, m.Name, m.Unit, bs.Median, ns.Median, ns.Median/bs.Median, sp, bound, verdict)
		}
		// The timings gate nothing (see endToEnd), and one traced pass per
		// document gives no spread to judge them by.
		for _, name := range []string{"run.throughput_mb_s", "run.op_ms_p50", "run.ttfr_ms_p50"} {
			bv, nv := b.PerLayer[name], n.PerLayer[name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t\t\tnot gated\n", wl.Name, name, bv.Unit, bv.Value, nv.Value, nv.Value/bv.Value)
		}
		if n.Failed > 0 {
			fmt.Fprintf(tw, "%s\terror_rate\tratio\t%g\t%g\t\t\t0\tFAILED OPS\n", wl.Name, b.ErrorRate, n.ErrorRate)
			bad++
		}
		for _, name := range exactMetrics {
			if bv, nv := b.PerLayer[name].Value, n.PerLayer[name].Value; bv != nv {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%g\t%g\t\t\texact\tdiffers\n", wl.Name, name, b.PerLayer[name].Unit, bv, nv)
				differ++
			}
		}
	}
	tw.Flush()
	if !sameSeed {
		fmt.Println("note: the documents were measured with different seeds; exact counts are expected to differ")
	}
	// Work counts have no better or worse, so a difference is reported and
	// does not fail: between two commits it is what a PR that cuts work
	// shows, between two sets of one commit it must read 0.
	fmt.Printf("exact per-layer counts that differ: %d\n", differ)
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or failed", bad)
	}
	return nil
}
