package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
		// reload must serve the new text, not reuse the old compile.
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

// fleetView is what a client sees of a server's registered fleet: the
// /queries listing and a full-fleet JSON /workload over doc.
func fleetView(t *testing.T, s *Server, doc []byte) ([]string, workloadResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/queries", nil))
	var listed struct {
		IDs []string `json:"ids"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listed); err != nil {
		t.Fatalf("/queries: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(doc))
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var wr workloadResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("/workload: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
		t.Fatalf("/workload: %v", err)
	}
	return listed.IDs, wr
}

// TestReloadEqualsRestart: after every reload the server answers /queries
// and a full-fleet /workload exactly as a server started on the same file
// does — same ids in the same (file) order, same results, same groups and
// subscriptions, same per-id output bytes.
func TestReloadEqualsRestart(t *testing.T) {
	doc := xmarkDoc(t)
	q20 := queries.ByName("Q20").Text
	files := []struct {
		name string
		reg  *Registry
	}{
		{"reorder", fleetRegistry(t, []string{"Q13", "Q1", "Q6"})},
		{"dropped id", fleetRegistry(t, []string{"Q13", "Q1"})},
		{"new id", fleetRegistry(t, []string{"Q13", "Q1", "Q8"})},
		{"changed text", fleetRegistry(t, []string{"Q13", "Q8"}, "Q1", q20)},
		{"second id on a text", fleetRegistry(t, []string{"Q13", "Q8"}, "Q1", q20, "Q20", q20)},
	}
	s, err := New(Config{Registry: fleetRegistry(t, []string{"Q1", "Q6", "Q13"})})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := s.ReloadRegistry(f.reg); err != nil {
			t.Fatalf("%s: reload: %v", f.name, err)
		}
		restarted, err := New(Config{Registry: f.reg})
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, got := fleetView(t, s, doc)
		wantIDs, want := fleetView(t, restarted, doc)
		if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(got.IDs, want.IDs) {
			t.Fatalf("%s: reloaded server lists %v and runs %v, a restart %v and %v", f.name, gotIDs, got.IDs, wantIDs, want.IDs)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: results differ from a restart's", f.name)
		}
		if got.Stats.Groups != want.Stats.Groups || got.Stats.Subscriptions != want.Stats.Subscriptions {
			t.Errorf("%s: groups/subscriptions %d/%d, a restart %d/%d", f.name,
				got.Stats.Groups, got.Stats.Subscriptions, want.Stats.Groups, want.Stats.Subscriptions)
		}
		for i := range want.Stats.Queries {
			if g, w := got.Stats.Queries[i].OutputBytes, want.Stats.Queries[i].OutputBytes; g != w {
				t.Errorf("%s: %s output_bytes %d, a restart %d", f.name, want.IDs[i], g, w)
			}
		}
	}
}

// TestRegisteredTextsCompileOnce: the compile cache is the only compiler
// in the server, so its Compiles counter is the number of texts compiled
// — once per distinct text at boot, never again for a selection over
// registered ids or a reload that keeps a text.
func TestRegisteredTextsCompileOnce(t *testing.T) {
	doc := xmarkDoc(t)
	names := []string{"Q1", "Q6", "Q8", "Q13", "Q20"}
	boot := fleetRegistry(t, names, "Q1-again", queries.Q1.Text)
	s, ts := newTestServer(t, Config{Registry: boot})
	compiles := func() int64 { return s.Cache().Stats().Compiles }
	step := func(what string, want int64, do func()) {
		t.Helper()
		before := compiles()
		do()
		if got := compiles() - before; got != want {
			t.Fatalf("%s: %d compiles, want %d", what, got, want)
		}
	}
	if got := compiles(); got != 5 {
		t.Fatalf("boot with 5 distinct texts: %d compiles, want 5", got)
	}
	step("/workload?id=Q1&id=Q6", 0, func() {
		if resp, body := post(t, ts.Client(), ts.URL+"/workload?id=Q1&id=Q6", doc, "application/json"); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})
	reload := func(reg *Registry) func() {
		return func() {
			if err := s.ReloadRegistry(reg); err != nil {
				t.Fatal(err)
			}
		}
	}
	step("reload of the same file", 0, reload(fleetRegistry(t, names, "Q1-again", queries.Q1.Text)))
	grown := func(extra ...string) *Registry {
		return fleetRegistry(t, names, append([]string{"Q1-again", queries.Q1.Text, "fresh", `<fresh>{ /site/people/person/name }</fresh>`}, extra...)...)
	}
	step("reload adding one text", 1, reload(grown()))

	_, served := post(t, ts.Client(), ts.URL+"/query?id=Q1", doc, "")
	broken := func() {
		if err := s.ReloadRegistry(grown("broken", "<r>{ for $x in")); err == nil {
			t.Fatal("a reload with a broken text must be rejected")
		}
	}
	step("rejected reload", 1, broken)
	if _, again := post(t, ts.Client(), ts.URL+"/query?id=Q1", doc, ""); !bytes.Equal(again, served) {
		t.Fatal("the previous generation no longer serves /query?id=Q1 byte-identically")
	}
	step("the same rejected reload again (negative-cached)", 0, broken)
}

// TestReloadedIDsGetTTFR: an id a reload adds records time-to-first-result
// under its own histogram (it used to fold into "inline" until a restart),
// survivors keep their counts, and an id a reload drops keeps its series.
func TestReloadedIDsGetTTFR(t *testing.T) {
	doc := xmarkDoc(t)
	s, ts := newTestServer(t, Config{})
	post(t, ts.Client(), ts.URL+"/query?id=Q1", doc, "")
	inline := s.Metrics().TTFR[inlineLabel].Count
	if err := s.ReloadRegistry(fleetRegistry(t, []string{"Q1"}, "fresh", `<fresh>{ /site/people/person/name }</fresh>`)); err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, ts.Client(), ts.URL+"/query?id=fresh", doc, ""); resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/query?id=fresh: status %d, %d bytes", resp.StatusCode, len(body))
	}
	ttfr := s.Metrics().TTFR
	if ttfr["fresh"].Count != 1 || ttfr[inlineLabel].Count != inline {
		t.Fatalf("fresh has %d TTFR samples (want 1), inline %d (want %d)", ttfr["fresh"].Count, ttfr[inlineLabel].Count, inline)
	}
	if ttfr["Q1"].Count != 1 {
		t.Fatalf("Q1 kept %d TTFR samples across the reload, want 1", ttfr["Q1"].Count)
	}
	if _, kept := ttfr["Q6"]; !kept {
		t.Fatal("an id the reload dropped lost its TTFR series")
	}
	exp := scrape(t, ts.Client(), ts.URL)
	if v, ok := sampleValue(exp.Family("gcxd_ttfr_seconds"), "gcxd_ttfr_seconds_count", map[string]string{"query": "fresh"}); !ok || v != 1 {
		t.Fatalf("gcxd_ttfr_seconds_count{query=\"fresh\"} = %v (present %v), want 1", v, ok)
	}
}
