package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is the contract the benchmark is written to: BENCHMARK.json at
// the repository root names every workload and metric, with units,
// directions and regression bounds. The code never spells a unit or a
// bound itself — it looks them up here, so the file and the program
// cannot drift apart silently (see collector.collect).
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end_to_end only
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory (run.sh and the
// driver start the program at the repository root) or its parent (go test
// runs in benchmark/), and returns it with the root it was found in.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, specFile))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("%s: %w", specFile, err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("%s not found in . or ..", specFile)
}

// metricValue is one reported number, with the unit BENCHMARK.json gives it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collector gathers values by metric name while a run measures.
type collector map[string]float64

// collect renders the values in the order and with the units of specs.
// A value set under a name the spec does not list is a programming error
// (a typo would otherwise silently report nothing). A per-layer metric
// that does not apply to this workload reads 0; an end-to-end metric must
// be measured on every workload.
func (c collector) collect(specs []metricSpec, mustHaveAll bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := c[s.Name]
		if !ok && mustHaveAll {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range c {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in %s", name, specFile)
		}
	}
	return out, nil
}
