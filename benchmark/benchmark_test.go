package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"
)

// The tests run every workload through the same code as the command, at
// testScale (64 KB documents) with 0.2 s windows.

func testOptions(root string, seed uint64, trace bool) runOptions {
	return runOptions{seed: seed, window: 200 * time.Millisecond, trace: trace, sc: testScale, root: root}
}

// specDefs pairs BENCHMARK.json's workloads with the program's, and fails
// if either side has one the other lacks.
func specDefs(t *testing.T) (*benchSpec, string, []workloadDef) {
	t.Helper()
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var defs []workloadDef
	for _, wl := range spec.Workloads {
		def, ok := findWorkload(wl.Name)
		if !ok {
			t.Fatalf("%s names workload %q, which the program does not have", specFile, wl.Name)
		}
		if def.procs > runtime.NumCPU() {
			t.Logf("skipping %s: it needs %d processors", def.name, def.procs)
			continue
		}
		defs = append(defs, def)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(spec.Workloads), len(workloadDefs))
	}
	return spec, root, defs
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	slices.Sort(out)
	return out
}

// Every workload prints every metric BENCHMARK.json names for the pass —
// exactly those, each once (the result is a map), with the declared unit
// — and every op verifies.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec, root, defs := specDefs(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range spec.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q", wl.Name)
		}
	}
	for _, pass := range []struct {
		trace bool
		specs []metricSpec
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		want := names(pass.specs)
		units := map[string]string{}
		for _, s := range pass.specs {
			units[s.Name] = s.Unit
			if !nameRE.MatchString(s.Name) {
				t.Errorf("metric name %q", s.Name)
			}
		}
		for _, def := range defs {
			res, err := runWorkload(spec, def, testOptions(root, 1, pass.trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, pass.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.name, pass.trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := slices.Sorted(maps.Keys(res.Metrics)); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", def.name, pass.trace, got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s %s: unit %q, want %q", def.name, name, m.Unit, units[name])
				}
				if !pass.trace && m.Value <= 0 {
					t.Errorf("%s %s: end-to-end value %v is not positive", def.name, name, m.Value)
				}
			}
			if pass.trace {
				if r := res.Metrics["buffer.residue_nodes"].Value; r != 0 {
					t.Errorf("%s: %v nodes left in the buffer", def.name, r)
				}
			}
		}
	}
}

// Work counts and the buffer peak are exact: two runs of the same inputs
// report identical values.
func TestExactMetricsRepeat(t *testing.T) {
	spec, root, defs := specDefs(t)
	for _, def := range defs {
		var peaks [2]float64
		var layers [2]map[string]metricValue
		for i := range 2 {
			e2e, err := runWorkload(spec, def, testOptions(root, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			peaks[i] = e2e.Metrics["peak_buffer_bytes"].Value
			traced, err := runWorkload(spec, def, testOptions(root, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			layers[i] = traced.Metrics
		}
		if peaks[0] != peaks[1] {
			t.Errorf("%s peak_buffer_bytes: %v then %v", def.name, peaks[0], peaks[1])
		}
		for _, name := range exactMetrics {
			if _, ok := layers[0][name]; !ok {
				t.Errorf("exact metric %s is not a per-layer metric of %s", name, specFile)
			}
			if a, b := layers[0][name].Value, layers[1][name].Value; a != b {
				t.Errorf("%s %s: %v then %v", def.name, name, a, b)
			}
		}
	}
}

// The seed reaches the generator: another seed gives other reference
// outputs on every workload, and the same seed the same ones.
func TestSeedChangesTheInputs(t *testing.T) {
	_, _, defs := specDefs(t)
	for _, def := range defs {
		var rows [3][]goldenRow
		for i, seed := range []uint64{1, 2, 1} {
			w := def.create()
			if err := w.setup(seed, testScale); err != nil {
				t.Fatalf("%s seed %d: %v", def.name, seed, err)
			}
			rows[i] = w.golden()
			w.close()
		}
		if !slices.Equal(rows[0], rows[2]) {
			t.Errorf("%s: seed 1 twice gave %+v and %+v", def.name, rows[0], rows[2])
		}
		digests := func(rows []goldenRow) (d []string) {
			for _, r := range rows {
				d = append(d, r.Digest)
			}
			return d
		}
		if slices.Equal(digests(rows[0]), digests(rows[1])) {
			t.Errorf("%s: seeds 1 and 2 give the same output digests %v", def.name, digests(rows[0]))
		}
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s < 0.99 || s > 1.01 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := spread([]float64{10, 11, 12}); s < 0.18 || s > 0.19 {
		t.Errorf("spread of three values = %v, want their range over the median", s)
	}
}

// -compare refuses documents measured differently, and at equal seeds
// holds the buffer peak to exactly the base's value.
func TestCompare(t *testing.T) {
	spec, _, _ := specDefs(t)
	doc := func(runSeconds int, peak float64) string {
		d := fullDoc{Header: runHeader{Seed: 1, RunSeconds: runSeconds, Runs: 3}}
		for _, wl := range spec.Workloads {
			rep := workloadReport{Name: wl.Name, Attempted: 3, EndToEnd: map[string]series{}}
			for _, m := range spec.EndToEnd {
				v := 100.0
				if m.Name == "peak_buffer_bytes" {
					v = peak
				}
				rep.EndToEnd[m.Name] = series{Unit: m.Unit, Values: []float64{v, v, v}, Median: v}
			}
			d.Workloads = append(d.Workloads, rep)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(20, 1000)
	if err := compareFiles(spec, base, doc(20, 1000)); err != nil {
		t.Errorf("identical documents: %v", err)
	}
	if err := compareFiles(spec, base, doc(10, 1000)); err == nil {
		t.Error("documents with different run lengths were compared")
	}
	if err := compareFiles(spec, base, doc(20, 1010)); err == nil {
		t.Error("a 1 % larger buffer peak at the same seed did not fail")
	}
}
