package server

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"gcx"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// bulkDocs builds a small corpus of distinct XMark documents (sizes
// shuffled so parallel completion order differs from corpus order).
func bulkTestDocs(t testing.TB, n int) [][]byte {
	t.Helper()
	var docs [][]byte
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		factor := 0.001 * float64(1+(i*7)%5)
		if _, err := xmark.Generate(&buf, xmark.Config{Factor: factor, Seed: uint64(40 + i)}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	return docs
}

func concatBody(docs [][]byte) []byte {
	var buf bytes.Buffer
	for _, d := range docs {
		buf.Write(d)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func tarBody(t testing.TB, names []string, docs [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i, d := range docs {
		if err := tw.WriteHeader(&tar.Header{Name: names[i], Mode: 0o644, Size: int64(len(d))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bulkPart is one parsed document part of a /bulk response.
type bulkPart struct {
	index int
	name  string
	errh  string
	stats gcx.Stats
	body  []byte
}

// parseBulk parses a /bulk multipart response into document parts and
// the aggregate stats part.
func parseBulk(t testing.TB, resp *http.Response, body []byte) ([]bulkPart, bulkResponse) {
	t.Helper()
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/mixed" {
		t.Fatalf("content type %q: %v", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	var parts []bulkPart
	var agg bulkResponse
	var gotAgg bool
	for {
		p, err := mr.NextPart()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if p.Header.Get("Gcx-Part") == "stats" {
			gotAgg = true
			if err := json.Unmarshal(data, &agg); err != nil {
				t.Fatalf("aggregate part: %v", err)
			}
			continue
		}
		var bp bulkPart
		fmt.Sscanf(p.Header.Get("Gcx-Doc-Index"), "%d", &bp.index)
		bp.name = p.Header.Get("Gcx-Doc-Name")
		bp.errh = p.Header.Get("Gcx-Error")
		if sh := p.Header.Get("Gcx-Stats"); sh != "" {
			if err := json.Unmarshal([]byte(sh), &bp.stats); err != nil {
				t.Fatalf("doc stats header: %v", err)
			}
		}
		bp.body = data
		parts = append(parts, bp)
	}
	if !gotAgg {
		t.Fatal("no aggregate stats part")
	}
	return parts, agg
}

func TestBulkConcatMatchesSoloRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{BulkWorkers: 8})
	docs := bulkTestDocs(t, 6)
	resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1&j=4", concatBody(docs), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) != len(docs) {
		t.Fatalf("got %d doc parts, want %d", len(parts), len(docs))
	}
	for i, p := range parts {
		if p.index != i {
			t.Errorf("part %d carries index %d: order violated", i, p.index)
		}
		if p.errh != "" {
			t.Errorf("doc %d failed: %s", i, p.errh)
		}
		if want := directRun(t, queries.Q1.Text, docs[i]); string(p.body) != want {
			t.Errorf("doc %d differs from solo run (%d vs %d bytes)", i, len(p.body), len(want))
		}
		if p.stats.TokensRead == 0 {
			t.Errorf("doc %d has no per-document stats", i)
		}
	}
	if agg.Stats.Docs != int64(len(docs)) || agg.Stats.Failed != 0 {
		t.Errorf("aggregate: %+v", agg.Stats)
	}
	if agg.Stats.Workers != 4 {
		t.Errorf("aggregate workers %d, want 4", agg.Stats.Workers)
	}
	// The trailer repeats the envelope for clients that skip the body.
	var trailerStats gcx.BulkStats
	if err := json.Unmarshal([]byte(resp.Trailer.Get("Gcx-Bulk-Stats")), &trailerStats); err != nil {
		t.Fatalf("Gcx-Bulk-Stats trailer: %v", err)
	}
	if trailerStats.Docs != int64(len(docs)) {
		t.Errorf("trailer docs %d, want %d", trailerStats.Docs, len(docs))
	}
	// Service counters: documents and worker time are accounted.
	snap := s.Metrics()
	if snap.RequestsBulk != 1 || snap.BulkDocs != int64(len(docs)) || snap.BulkDocErrors != 0 {
		t.Errorf("metrics: %+v", snap)
	}
	if snap.BulkBusyNanos <= 0 || snap.BulkWorkerNanos < snap.BulkBusyNanos {
		t.Errorf("utilization counters: busy %d, worker %d", snap.BulkBusyNanos, snap.BulkWorkerNanos)
	}
}

func TestBulkTarPreservesMemberNames(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	docs := bulkTestDocs(t, 3)
	names := []string{"a/first.xml", "a/second.xml", "b/third.xml"}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/bulk?id=Q13", bytes.NewReader(tarBody(t, names, docs)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) != 3 || agg.Stats.Failed != 0 {
		t.Fatalf("parts %d, aggregate %+v", len(parts), agg.Stats)
	}
	for i, p := range parts {
		if p.name != names[i] {
			t.Errorf("part %d name %q, want %q", i, p.name, names[i])
		}
		if want := directRun(t, queries.Q13.Text, docs[i]); string(p.body) != want {
			t.Errorf("member %s differs from solo run", p.name)
		}
	}
}

// TestBulkPoisonMember: one bad document among healthy ones is a
// 207-style partial result — 200 envelope, the poison part carries
// Gcx-Error, every sibling is byte-identical to its solo run.
func TestBulkPoisonMember(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	docs := bulkTestDocs(t, 4)
	names := []string{"ok1.xml", "poison.xml", "ok2.xml", "ok3.xml"}
	members := [][]byte{docs[0], []byte("<poison><unclosed></poison>"), docs[1], docs[2]}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/bulk?id=Q6", bytes.NewReader(tarBody(t, names, members)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (want 200 with a per-part error): %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	if parts[1].errh == "" {
		t.Error("poison part carries no Gcx-Error")
	}
	for i, docIdx := range map[int]int{0: 0, 2: 1, 3: 2} {
		if parts[i].errh != "" {
			t.Errorf("healthy member %d errored: %s", i, parts[i].errh)
		}
		if want := directRun(t, queries.Q6.Text, docs[docIdx]); string(parts[i].body) != want {
			t.Errorf("healthy member %d differs from its solo run", i)
		}
	}
	if agg.Stats.Failed != 1 || len(agg.Errors) != 1 {
		t.Errorf("aggregate: %+v errors %v", agg.Stats, agg.Errors)
	}
	if snap := s.Metrics(); snap.BulkDocErrors != 1 {
		t.Errorf("bulk doc errors counter %d, want 1", snap.BulkDocErrors)
	}
}

// TestBulkOversizedFirstMember413: a resource-limit violation on the
// very first document fails the whole request with a real status code
// — nothing has been committed yet.
func TestBulkOversizedFirstMember413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDocBytes: 1 << 10})
	docs := bulkTestDocs(t, 2)
	big := bytes.Repeat([]byte("x"), 4<<10)
	bigDoc := append(append([]byte("<big>"), big...), []byte("</big>")...)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/bulk?id=Q1",
		bytes.NewReader(tarBody(t, []string{"big.xml", "ok.xml"}, [][]byte{bigDoc, docs[0]})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
}

// TestBulkOversizedLaterMemberIsolated: once parts are flowing, an
// oversized member degrades to a per-part error; siblings (including
// those AFTER it) still evaluate.
func TestBulkOversizedLaterMemberIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDocBytes: 16 << 10})
	small := []byte(`<site><people><person><id>person0</id><name>tiny</name></person></people></site>`)
	big := append(append([]byte("<big>"), bytes.Repeat([]byte("y"), 32<<10)...), []byte("</big>")...)
	resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1", concatBody([][]byte{small, big, small}), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	if parts[1].errh == "" || !strings.Contains(parts[1].errh, "exceeds") {
		t.Errorf("oversized part error %q", parts[1].errh)
	}
	want := directRun(t, queries.Q1.Text, small)
	if string(parts[0].body) != want || string(parts[2].body) != want {
		t.Error("siblings of the oversized member differ from solo runs")
	}
	if agg.Stats.Failed != 1 {
		t.Errorf("aggregate: %+v", agg.Stats)
	}
}

// TestBulkTruncatedArchive: the body dies mid-archive. Members served
// before the break are intact; the break itself lands in the aggregate
// error list, and the handler returns instead of wedging the pool.
func TestBulkTruncatedArchive(t *testing.T) {
	s := newFailureServer(t, Config{})
	docs := bulkTestDocs(t, 3)
	whole := tarBody(t, []string{"a.xml", "b.xml", "c.xml"}, docs)
	// Cut mid-way through the second member's data.
	cut := whole[:1024+len(docs[0])+512+len(docs[1])/2]
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/bulk?id=Q1", bytes.NewReader(cut))
	req.Header.Set("Content-Type", "application/x-tar")
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		// Acceptable alternative: the break happened before the first
		// member completed, so the whole request failed with a code.
		if resp.StatusCode == http.StatusBadRequest {
			return
		}
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) < 1 {
		t.Fatal("no parts before the truncation")
	}
	if want := directRun(t, queries.Q1.Text, docs[0]); string(parts[0].body) != want {
		t.Error("first member differs from its solo run despite truncation later")
	}
	if len(agg.Errors) == 0 {
		t.Error("aggregate does not report the broken archive")
	}
}

// TestBulkClientGoneMidStream: the response writer starts failing while
// parts are streaming; the run unwinds (dispatch cancelled), the pool
// stays healthy, and the next request works.
func TestBulkClientGoneMidStream(t *testing.T) {
	s := newFailureServer(t, Config{})
	docs := bulkTestDocs(t, 6)
	w := &failingResponseWriter{n: 512}
	req := httptest.NewRequest(http.MethodPost, "/bulk?id=Q6&j=2", bytes.NewReader(concatBody(docs)))
	s.ServeHTTP(w, req)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bulk?id=Q1&j=2", bytes.NewReader(concatBody(docs[:2]))))
	if rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after client disconnect: %d", rec.Code)
	}
	parts, _ := parseBulk(t, rec.Result(), rec.Body.Bytes())
	if len(parts) != 2 {
		t.Fatalf("follow-up request got %d parts, want 2", len(parts))
	}
}

// TestBulkEmptyCorpus: an empty body is a valid corpus of zero
// documents — the envelope holds just the aggregate part.
func TestBulkEmptyCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts, agg := parseBulk(t, resp, body)
	if len(parts) != 0 || agg.Stats.Docs != 0 {
		t.Fatalf("parts %d, aggregate %+v", len(parts), agg.Stats)
	}
}

// TestBulkWorkerCapClamps: the server's BulkWorkers cap wins over a
// greedy j= parameter.
func TestBulkWorkerCapClamps(t *testing.T) {
	_, ts := newTestServer(t, Config{BulkWorkers: 2})
	docs := bulkTestDocs(t, 3)
	resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1&j=64", concatBody(docs), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, agg := parseBulk(t, resp, body)
	if agg.Stats.Workers != 2 {
		t.Errorf("workers %d, want the cap 2", agg.Stats.Workers)
	}
	// A j= that does not parse (or is non-positive) is a 400, not a
	// silent fallback to the default parallelism.
	for _, bad := range []string{"banana", "0", "-3", "1O"} {
		resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1&j="+bad, concatBody(docs), "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("j=%s: status %d, want 400: %s", bad, resp.StatusCode, body)
		}
	}
}

// TestBulkConcurrentMixedTraffic races bulk, solo, and workload
// requests against one server — the pool, cache, and metrics must stay
// consistent (run under -race).
func TestBulkConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	docs := bulkTestDocs(t, 4)
	bulk := concatBody(docs)
	solo := docs[0]
	wantSolo := directRun(t, queries.Q1.Text, solo)
	wantBulk := make([]string, len(docs))
	for i, d := range docs {
		wantBulk[i] = directRun(t, queries.Q6.Text, d)
	}

	const perKind = 6
	var wg sync.WaitGroup
	errc := make(chan error, 3*perKind)
	for i := 0; i < perKind; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			resp, body, err := tryPost(ts.Client(), ts.URL+"/bulk?id=Q6&j=3", bulk, "")
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("bulk status %d", resp.StatusCode)
				return
			}
			mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
			if err != nil || mt != "multipart/mixed" {
				errc <- fmt.Errorf("bulk content type %q: %v", resp.Header.Get("Content-Type"), err)
				return
			}
			mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
			idx := 0
			for {
				p, err := mr.NextPart()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					errc <- err
					return
				}
				data, _ := io.ReadAll(p)
				if p.Header.Get("Gcx-Part") == "stats" {
					continue
				}
				if string(data) != wantBulk[idx] {
					errc <- fmt.Errorf("bulk doc %d diverged under concurrency", idx)
					return
				}
				idx++
			}
			if idx != len(docs) {
				errc <- fmt.Errorf("bulk saw %d docs, want %d", idx, len(docs))
			}
		}()
		go func() {
			defer wg.Done()
			resp, body, err := tryPost(ts.Client(), ts.URL+"/query?id=Q1", solo, "")
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK || string(body) != wantSolo {
				errc <- fmt.Errorf("solo diverged under concurrency (status %d)", resp.StatusCode)
			}
		}()
		go func() {
			defer wg.Done()
			resp, _, err := tryPost(ts.Client(), ts.URL+"/workload?id=Q1&id=Q13", solo, "application/json")
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("workload status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBulkMemberNameCannotForgeHeaders: a tar member name holding CR LF
// stays one Gcx-Doc-Name value on its part and forges no header: the
// clean document's part carries no Gcx-Error.
func TestBulkMemberNameCannotForgeHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	docs := bulkTestDocs(t, 2)
	names := []string{"a\r\nGcx-Error: forged", "b.xml"}
	resp, body := post(t, ts.Client(), ts.URL+"/bulk?id=Q1&format=tar", tarBody(t, names, docs), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, ps, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	mr := multipart.NewReader(bytes.NewReader(body), ps["boundary"])
	for i := range names {
		p, err := mr.NextPart()
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		if got := p.Header["Gcx-Doc-Name"]; len(got) != 1 || got[0] != strings.NewReplacer("\r", " ", "\n", " ").Replace(names[i]) {
			t.Errorf("part %d: Gcx-Doc-Name %q", i, got)
		}
		if got, ok := p.Header["Gcx-Error"]; ok {
			t.Errorf("part %d of a clean document: Gcx-Error %q", i, got)
		}
	}
}

// TestBulkAllocsPerPart: what one more /bulk document costs gcxd, its
// framing included — measured through Server.ServeHTTP between a 64- and
// a 512-document corpus, which cancels the per-request constant. The
// part header is written from one reused buffer; what is left is the
// Gcx-Stats and Gcx-Doc-Index strings. (mime/multipart.Writer's framing
// made it about 28.)
func TestBulkAllocsPerPart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newFailureServer(t, Config{})
	doc := []byte(`<site><people><person id="person0"><name>n</name></person></people></site>`)
	allocs := func(n int) float64 {
		body := concatBody(slices.Repeat([][]byte{doc}, n))
		w := &discardResponse{h: http.Header{}}
		serve := func() {
			clear(w.h)
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/bulk?id=Q6&j=2", bytes.NewReader(body)))
		}
		// The least of several runs, as in the root package's
		// TestBulkAllocsPerDocument: a collection that empties a pool
		// mid-run only ever adds allocations.
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(2, serve))
		}
		return least
	}
	small, large := allocs(64), allocs(512)
	perDoc := (large - small) / (512 - 64)
	t.Logf("%.0f allocations at 64 documents, %.0f at 512: %.2f per document", small, large, perDoc)
	if perDoc > 4 {
		t.Errorf("%.2f allocations per /bulk document, want <= 4", perDoc)
	}
}
