package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"gcx/internal/queries"
)

// fleetRegistry registers the named catalog queries, plus extra
// (id, text) pairs, in order.
func fleetRegistry(t testing.TB, names []string, extra ...string) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, name := range names {
		q := queries.ByName(name)
		if q.Text == "" {
			t.Fatalf("no catalog query %s", name)
		}
		if err := reg.Add(name, q.Text); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if err := reg.Add(extra[i], extra[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func getJSON(t testing.TB, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestFleetWorkloadRecordsTTFRPerID: a full-fleet /workload is a shared
// pass like any other, so every registered id's time-to-first-result
// lands in that id's histogram (the fleet path used to record none).
func TestFleetWorkloadRecordsTTFRPerID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.Client(), ts.URL+"/workload", xmarkDoc(t), "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var snap Snapshot
	getJSON(t, ts.Client(), ts.URL+"/metrics?format=json", &snap)
	for _, q := range queries.All() {
		if snap.TTFR[q.Name].Count == 0 {
			t.Errorf("%s: no TTFR observation after a full-fleet /workload", q.Name)
		}
	}
}

// TestWorkloadStatsShapeAndOrderAfterReload: both /workload forms answer
// with one stats shape (aggregate + queries aligned with ids + groups +
// subscriptions), /queries and full-fleet /workload list one order after
// a reload, and an id a reload adds under an ALREADY-REGISTERED text is
// served by the next full-fleet request.
func TestWorkloadStatsShapeAndOrderAfterReload(t *testing.T) {
	doc := xmarkDoc(t)
	s, ts := newTestServer(t, Config{Registry: fleetRegistry(t, []string{"Q1", "Q6", "Q13"})})
	// Freeze a fleet snapshot before the reload, so the added duplicate
	// text is a late joiner of an existing group.
	post(t, ts.Client(), ts.URL+"/workload", doc, "application/json")
	if err := s.ReloadRegistry(fleetRegistry(t, []string{"Q13", "Q1", "Q8"}, "Q1-again", queries.Q1.Text)); err != nil {
		t.Fatal(err)
	}

	var listed struct {
		IDs []string `json:"ids"`
	}
	getJSON(t, ts.Client(), ts.URL+"/queries", &listed)
	if len(listed.IDs) != 4 {
		t.Fatalf("/queries lists %v, want 4 ids", listed.IDs)
	}

	for _, form := range []struct {
		name, url      string
		ids            []string
		groups, served int
	}{
		{"fleet", ts.URL + "/workload", listed.IDs, 3, 4},
		{"selection", ts.URL + "/workload?id=Q8&id=Q1-again", []string{"Q8", "Q1-again"}, 2, 2},
	} {
		resp, body := post(t, ts.Client(), form.url, doc, "application/json")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", form.name, resp.StatusCode, body)
		}
		var wr workloadResponse
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wr.IDs, form.ids) {
			t.Fatalf("%s: ids %v, want %v", form.name, wr.IDs, form.ids)
		}
		if wr.Stats.Groups != form.groups || wr.Stats.Subscriptions != form.served {
			t.Fatalf("%s: groups/subscriptions = %d/%d, want %d/%d",
				form.name, wr.Stats.Groups, wr.Stats.Subscriptions, form.groups, form.served)
		}
		if len(wr.Results) != len(wr.IDs) || len(wr.Stats.Queries) != len(wr.IDs) {
			t.Fatalf("%s: %d results and %d stats.queries for %d ids",
				form.name, len(wr.Results), len(wr.Stats.Queries), len(wr.IDs))
		}
		for i, id := range wr.IDs {
			text := queries.ByName(id).Text
			if id == "Q1-again" {
				text = queries.Q1.Text
			}
			if wr.Results[i] != directRun(t, text, doc) {
				t.Errorf("%s: %s differs from its solo run", form.name, id)
			}
			if wr.Stats.Queries[i].OutputBytes != int64(len(wr.Results[i])) {
				t.Errorf("%s: stats.queries[%d] is not %s's", form.name, i, id)
			}
		}
	}
}

// TestFleetErrorsComeFromOwnRun: a full-fleet response's status and error
// list describe THAT request's pass. Failing requests (truncated body:
// every member fails, so 400) race succeeding ones; when the error list
// was read back from state the requests share, a success finishing in
// between turned a failing request into a 200 with a partial list.
func TestFleetErrorsComeFromOwnRun(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	serve := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(body))
		req.Header.Set("Accept", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(fail bool) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if fail {
					if rec := serve(doc[:len(doc)/3]); rec.Code != http.StatusBadRequest {
						t.Errorf("truncated body: status %d, want 400 from its own run", rec.Code)
					}
					continue
				}
				rec := serve(doc)
				var wr workloadResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil || rec.Code != http.StatusOK {
					t.Errorf("complete body: status %d (%v)", rec.Code, err)
				} else if len(wr.Errors) != 0 {
					t.Errorf("complete body reported another request's errors: %v", wr.Errors)
				}
			}
		}(w%2 == 0)
	}
	wg.Wait()
}
