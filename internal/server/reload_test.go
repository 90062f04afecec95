package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
)

// TestReloadRegistryRacesWorkload hot-swaps the registry while full-fleet
// /workload requests are streaming, under -race. Every response must be
// internally consistent: the id set it reports is one registry generation
// (never a blend), and each id's payload matches that id's solo run.
func TestReloadRegistryRacesWorkload(t *testing.T) {
	all := queries.All()
	if len(all) < 4 {
		t.Fatal("need at least 4 catalog queries")
	}
	// Generation 0: first half of the catalog. Generation 1: second half
	// plus one query whose TEXT changes meaning under the same id.
	mkReg := func(gen int) *Registry {
		reg := NewRegistry()
		half := len(all) / 2
		qs := all[:half]
		if gen == 1 {
			qs = all[half:]
		}
		for _, q := range qs {
			if err := reg.Add(q.Name, q.Text); err != nil {
				t.Fatal(err)
			}
		}
		// "pivot" exists in both generations with different texts — the
		// reload diff must resubscribe it, not reuse the old compile.
		pivot := fmt.Sprintf(`<pivot-gen%d>{ /site/people/person/name }</pivot-gen%d>`, gen, gen)
		if err := reg.Add("pivot", pivot); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	doc := xmarkDoc(t)
	s, ts := newTestServer(t, Config{Registry: mkReg(0)})

	// Ground truth per generation, per id.
	want := make([]map[string]string, 2)
	for gen := 0; gen < 2; gen++ {
		want[gen] = map[string]string{}
		reg := mkReg(gen)
		for _, id := range reg.IDs() {
			q, _ := reg.Get(id)
			want[gen][id] = directRun(t, q, doc)
		}
	}

	const workers = 4
	const reqs = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				resp, body, err := tryPost(ts.Client(), ts.URL+"/workload", doc, "application/json")
				if err != nil {
					t.Errorf("workload: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("workload: status %d: %s", resp.StatusCode, body)
					return
				}
				var wr struct {
					IDs     []string `json:"ids"`
					Results []string `json:"results"`
				}
				if err := json.Unmarshal(body, &wr); err != nil {
					t.Errorf("workload: bad json: %v", err)
					return
				}
				if len(wr.Results) != len(wr.IDs) {
					t.Errorf("got %d results for %d ids", len(wr.Results), len(wr.IDs))
					return
				}
				results := map[string]string{}
				for i, id := range wr.IDs {
					results[id] = wr.Results[i]
				}
				// Identify the generation by the pivot payload, then demand
				// the whole response is that generation.
				gen := -1
				if strings.Contains(results["pivot"], "<pivot-gen0>") {
					gen = 0
				} else if strings.Contains(results["pivot"], "<pivot-gen1>") {
					gen = 1
				}
				if gen < 0 {
					t.Errorf("pivot output matches neither generation: %.80q", results["pivot"])
					return
				}
				if len(wr.IDs) != len(want[gen]) {
					t.Errorf("gen %d response has %d ids, want %d (%v)", gen, len(wr.IDs), len(want[gen]), wr.IDs)
					return
				}
				for id, got := range results {
					if exp, ok := want[gen][id]; !ok {
						t.Errorf("gen %d response served id %q from another generation", gen, id)
						return
					} else if got != exp {
						t.Errorf("gen %d id %q output diverged from solo run", gen, id)
						return
					}
				}
			}
		}()
	}
	// The reloader flips generations while the workers stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 20; i++ {
			if err := s.ReloadRegistry(mkReg(i % 2)); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	// Reload with an invalid query must refuse and keep the previous set.
	bad := NewRegistry()
	if err := bad.Add("broken", "<r>{ for $x in"); err != nil {
		t.Fatal(err)
	}
	before := s.reg.Load().IDs()
	if err := s.ReloadRegistry(bad); err == nil {
		t.Fatal("reload with an invalid query must fail")
	}
	after := s.reg.Load().IDs()
	if len(before) != len(after) {
		t.Fatalf("failed reload mutated the registry: %v -> %v", before, after)
	}
	resp, _, err := tryPost(ts.Client(), ts.URL+"/workload", doc, "application/json")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after rejected reload: %v status %v", err, resp)
	}
}
