package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"gcx/internal/queries"
)

// postWorkload posts doc to /workload?query as JSON and decodes the answer.
func postWorkload(t *testing.T, ts string, client *http.Client, query string, doc []byte) workloadResponse {
	t.Helper()
	resp, body := post(t, client, ts+"/workload?"+query, doc, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/workload?%s: status %d: %s", query, resp.StatusCode, body)
	}
	var wr workloadResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	return wr
}

// TestSelectionMemoReusesPass: a repeated /workload selection on one
// generation is served by the selection its first request built — no
// compile, no new registry, hence no new pass — and a reload starts the
// next generation with an empty memo.
func TestSelectionMemoReusesPass(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	const query = "id=Q1&id=Q6"
	postWorkload(t, ts.URL, ts.Client(), query, doc)
	g := s.reg.Load()
	first := g.memo[string(appendSelectionKey(nil, []string{"Q1", "Q6"}, nil))]
	if first == nil || len(g.memo) != 1 {
		t.Fatalf("after one selection the memo holds %d entries (the selection: %v)", len(g.memo), first != nil)
	}
	compiles := s.Cache().Stats().Compiles
	for i := 0; i < 3; i++ {
		postWorkload(t, ts.URL, ts.Client(), query, doc)
	}
	if got := s.Cache().Stats().Compiles; got != compiles {
		t.Fatalf("repeated selections compiled %d texts", got-compiles)
	}
	if len(g.memo) != 1 || g.memo[string(appendSelectionKey(nil, []string{"Q1", "Q6"}, nil))] != first {
		t.Fatal("a repeated selection built a new registry")
	}
	if err := s.ReloadRegistry(testRegistry(t)); err != nil {
		t.Fatal(err)
	}
	if next := s.reg.Load(); next == g || len(next.memo) != 0 {
		t.Fatalf("a reload kept the memo: %d entries", len(next.memo))
	}
	postWorkload(t, ts.URL, ts.Client(), query, doc)
	if s.reg.Load().memo[string(appendSelectionKey(nil, []string{"Q1", "Q6"}, nil))] == first {
		t.Fatal("the new generation serves the old generation's selection")
	}
}

// TestSelectionKeyedByOrder: selector order is part of a selection's
// identity — it is the response order.
func TestSelectionKeyedByOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	forward := postWorkload(t, ts.URL, ts.Client(), "id=Q1&id=Q6", doc)
	reverse := postWorkload(t, ts.URL, ts.Client(), "id=Q6&id=Q1", doc)
	if !reflect.DeepEqual(forward.IDs, []string{"Q1", "Q6"}) || !reflect.DeepEqual(reverse.IDs, []string{"Q6", "Q1"}) {
		t.Fatalf("ids %v and %v", forward.IDs, reverse.IDs)
	}
	if forward.Results[0] != reverse.Results[1] || forward.Results[1] != reverse.Results[0] {
		t.Fatal("reordered selection reordered the results wrongly")
	}
	if g := s.reg.Load(); len(g.memo) != 2 {
		t.Fatalf("two orders of one id set share a memo entry: %d entries", len(g.memo))
	}
}

// TestSelectionKeyCollisionResistance: the memo key must keep selector
// boundaries and kinds apart for texts a URL can carry — a NUL or a
// length-prefix-looking fragment inside a query must not fuse two
// selectors into one, nor may an id= pose as a q=.
func TestSelectionKeyCollisionResistance(t *testing.T) {
	a := "<a>{ for $x in /r/a return $x }</a>"
	b := "<b>{ for $x in /r/b return $x }</b>"
	keys := map[string]bool{}
	for _, qs := range [][]string{
		{a, b},
		{a + "\x00" + b},
		{a + "\x00", b},
		{a, "\x00" + b},
		{a + fmt.Sprintf("q%d:", len(b)) + b},
	} {
		keys[string(appendSelectionKey(nil, nil, qs))] = true
	}
	keys[string(appendSelectionKey(nil, []string{a}, []string{b}))] = true
	keys[string(appendSelectionKey(nil, []string{a, b}, nil))] = true
	if len(keys) != 7 {
		t.Fatalf("7 distinct selections produced %d distinct keys", len(keys))
	}
}

// TestSelectionMemoIsBounded: selectors come from the URL, so the memo
// holds at most maxSelections selections however many distinct ones
// arrive.
func TestSelectionMemoIsBounded(t *testing.T) {
	s, err := New(Config{Registry: testRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxSelections+8; i++ {
		q := url.Values{"q": {fmt.Sprintf("<v%d>{ /site/people/person/name }</v%d>", i, i)}}
		if _, err := s.selection(params(q.Encode())); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.reg.Load().memo); n != maxSelections {
		t.Fatalf("memo holds %d selections, want the bound %d", n, maxSelections)
	}
}

// TestDuplicateSelectionSharesAGroup: a text selected twice is evaluated
// once — one group, two subscriptions — and each label still gets the
// solo run's bytes and output_bytes.
func TestDuplicateSelectionSharesAGroup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	wr := postWorkload(t, ts.URL, ts.Client(), "id=Q1&id=Q1", doc)
	want := directRun(t, queries.Q1.Text, doc)
	if wr.Stats.Groups != 1 || wr.Stats.Subscriptions != 2 {
		t.Fatalf("groups/subscriptions = %d/%d, want 1/2", wr.Stats.Groups, wr.Stats.Subscriptions)
	}
	if len(wr.Results) != 2 || len(wr.Stats.Queries) != 2 {
		t.Fatalf("%d results, %d stats.queries for two labels", len(wr.Results), len(wr.Stats.Queries))
	}
	for i := range wr.Results {
		if wr.Results[i] != want || wr.Stats.Queries[i].OutputBytes != int64(len(want)) {
			t.Errorf("label %d: %d bytes (output_bytes %d), solo %d", i, len(wr.Results[i]), wr.Stats.Queries[i].OutputBytes, len(want))
		}
	}
}

// TestInlineTTFRStaysInline: an inline query of a /workload selection is
// labeled inline-N in the response, but its time-to-first-result goes to
// the inline histogram even when the registry holds an id named inline-N;
// and no registry may take the id "inline" itself.
func TestInlineTTFRStaysInline(t *testing.T) {
	reg := fleetRegistry(t, []string{"Q1"}, "inline-0", queries.Q6.Text)
	s, ts := newTestServer(t, Config{Registry: reg})
	inline := `<i>{ for $p in /site/people/person return $p/name }</i>`
	wr := postWorkload(t, ts.URL, ts.Client(), "q="+urlEscape(inline), xmarkDoc(t))
	if !reflect.DeepEqual(wr.IDs, []string{"inline-0"}) || wr.Results[0] == "" {
		t.Fatalf("ids %v, result %q", wr.IDs, wr.Results[0])
	}
	ttfr := s.Metrics().TTFR
	if ttfr["inline-0"].Count != 0 || ttfr[inlineLabel].Count != 1 {
		t.Fatalf("registered inline-0 has %d TTFR samples (want 0), inline %d (want 1)", ttfr["inline-0"].Count, ttfr[inlineLabel].Count)
	}
	if err := NewRegistry().Add(inlineLabel, queries.Q1.Text); err == nil {
		t.Fatalf("the id %q was accepted", inlineLabel)
	}
}

// TestSelectionsRaceReloads: concurrent selections share a generation's
// memo while reloads replace it; every response must still be its
// selectors' solo runs, in selector order.
func TestSelectionsRaceReloads(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	want := map[string]string{}
	for _, q := range queries.All() {
		want[q.Name] = directRun(t, q.Text, doc)
	}
	selections := [][]string{{"Q1", "Q6"}, {"Q6", "Q1"}, {"Q13", "Q13"}, {"Q8"}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ids := selections[(w+i)%len(selections)]
				query := url.Values{"id": ids}.Encode()
				resp, body, err := tryPost(ts.Client(), ts.URL+"/workload?"+query, doc, "application/json")
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %v %v", query, err, resp)
					return
				}
				var wr workloadResponse
				if err := json.Unmarshal(body, &wr); err != nil || !reflect.DeepEqual(wr.IDs, ids) {
					t.Errorf("%s: ids %v (%v)", query, wr.IDs, err)
					return
				}
				for j, id := range ids {
					if wr.Results[j] != want[id] {
						t.Errorf("%s: %s differs from its solo run", query, id)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := s.ReloadRegistry(testRegistry(t)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
