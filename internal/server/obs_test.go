package server

import (
	"bytes"
	"encoding/json"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gcx"
	"gcx/internal/obs/expfmt"
	"gcx/internal/xmark"
)

// bigXmarkDoc generates a document large enough that evaluation takes
// measurably longer than producing the first result byte.
func bigXmarkDoc(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: 0.05, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scrape fetches /metrics and runs it through the strict exposition
// parser — the compliance check every test of this file inherits.
func scrape(t testing.TB, client *http.Client, base string) *expfmt.Exposition {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q, want the 0.0.4 exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := expfmt.ParseExposition(data)
	if err != nil {
		t.Fatalf("/metrics violates the exposition format: %v", err)
	}
	return exp
}

// sampleValue finds the sample of a family whose labels all match; the
// second return reports whether it exists.
func sampleValue(f *expfmt.Family, name string, labels map[string]string) (float64, bool) {
	if f == nil {
		return 0, false
	}
next:
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		for k, v := range labels {
			if s.Label(k) != v {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// TestMetricsExpositionCompliance is the satellite acceptance check: a
// live scrape after real traffic parses under the strict 0.0.4 parser,
// every family carries HELP and TYPE, the TTFR histogram is labeled by
// registered query id, and the bulk utilization gauge is derived from
// the monotonic counters.
func TestMetricsExpositionCompliance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)

	resp, body := post(t, ts.Client(), ts.URL+"/query?id=Q1", doc, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.Client(), ts.URL+"/bulk?id=Q6", append(append([]byte{}, doc...), doc...), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d: %s", resp.StatusCode, body)
	}

	exp := scrape(t, ts.Client(), ts.URL)
	for name, f := range exp.Families {
		if f.Help == "" || f.Type == "" {
			t.Errorf("family %s lacks HELP/TYPE metadata", name)
		}
	}

	ttfr := exp.Family("gcxd_ttfr_seconds")
	if ttfr == nil || ttfr.Type != "histogram" {
		t.Fatalf("gcxd_ttfr_seconds missing or not a histogram: %+v", ttfr)
	}
	if v, ok := sampleValue(ttfr, "gcxd_ttfr_seconds_count", map[string]string{"query": "Q1"}); !ok || v < 1 {
		t.Errorf("gcxd_ttfr_seconds_count{query=\"Q1\"} = %v (present %v), want >= 1 after a /query?id=Q1 request", v, ok)
	}
	// /bulk ran two documents of Q6: each contributes its own TTFR sample.
	if v, ok := sampleValue(ttfr, "gcxd_ttfr_seconds_count", map[string]string{"query": "Q6"}); !ok || v < 2 {
		t.Errorf("gcxd_ttfr_seconds_count{query=\"Q6\"} = %v (present %v), want >= 2 after a two-document /bulk", v, ok)
	}
	if _, ok := sampleValue(ttfr, "gcxd_ttfr_seconds_bucket", map[string]string{"query": "Q1", "le": "+Inf"}); !ok {
		t.Error("gcxd_ttfr_seconds_bucket{query=\"Q1\",le=\"+Inf\"} missing")
	}

	lat := exp.Family("gcxd_request_duration_seconds")
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("gcxd_request_duration_seconds missing or not a histogram")
	}
	for _, endpoint := range []string{"query", "bulk"} {
		if v, ok := sampleValue(lat, "gcxd_request_duration_seconds_count", map[string]string{"endpoint": endpoint}); !ok || v < 1 {
			t.Errorf("request duration count for endpoint %q = %v (present %v), want >= 1", endpoint, v, ok)
		}
	}

	util := exp.Family("gcx_bulk_utilization_ratio")
	if util == nil || util.Type != "gauge" {
		t.Fatalf("gcx_bulk_utilization_ratio missing or not a gauge")
	}
	if v := util.Samples[0].Value; v <= 0 || v > 1 {
		t.Errorf("gcx_bulk_utilization_ratio = %v, want in (0, 1] after bulk traffic", v)
	}
	// The derived gauge must agree with the raw monotonic counters.
	busy, _ := sampleValue(exp.Family("gcxd_bulk_busy_seconds_total"), "gcxd_bulk_busy_seconds_total", nil)
	worker, _ := sampleValue(exp.Family("gcxd_bulk_worker_seconds_total"), "gcxd_bulk_worker_seconds_total", nil)
	if busy <= 0 || worker <= 0 || busy > worker {
		t.Errorf("raw pool counters implausible: busy %v worker %v", busy, worker)
	}

	if v, ok := sampleValue(exp.Family("gcxd_go_goroutines"), "gcxd_go_goroutines", nil); !ok || v < 1 {
		t.Errorf("gcxd_go_goroutines = %v (present %v), want >= 1", v, ok)
	}
}

// TestStatsTrailerReportsTTFR: the Gcx-Stats trailer of a large streamed
// /query carries a nonzero time-to-first-result strictly below the
// evaluation wall time — first output begins well before evaluation ends.
func TestStatsTrailerReportsTTFR(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := bigXmarkDoc(t)
	resp, body := post(t, ts.Client(), ts.URL+"/query?id=Q1", doc, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("no result bytes streamed")
	}
	var st gcx.Stats
	if err := json.Unmarshal([]byte(resp.Trailer.Get("Gcx-Stats")), &st); err != nil {
		t.Fatalf("stats trailer: %v (%q)", err, resp.Trailer.Get("Gcx-Stats"))
	}
	if st.TimeToFirstResultNanos <= 0 {
		t.Fatalf("TimeToFirstResultNanos = %d, want > 0", st.TimeToFirstResultNanos)
	}
	if st.EvalWallNanos <= 0 {
		t.Fatalf("EvalWallNanos = %d, want > 0", st.EvalWallNanos)
	}
	if st.TimeToFirstResultNanos >= st.EvalWallNanos {
		t.Fatalf("TTFR %d >= wall %d: first result should precede evaluation end on a %d-byte document",
			st.TimeToFirstResultNanos, st.EvalWallNanos, len(doc))
	}
}

// TestConcurrentScrapeWhileServing hammers /query while scraping and
// parsing /metrics — the lock-free histogram recording and snapshotting
// under real contention (run with -race in CI).
func TestConcurrentScrapeWhileServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	const servers, scrapers, iters = 4, 2, 8

	var wg sync.WaitGroup
	errs := make(chan error, servers+scrapers)
	for w := 0; w < servers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, _, err := tryPost(ts.Client(), ts.URL+"/query?id=Q1", doc, "")
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- errorFromStatus(resp.StatusCode)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if _, err := expfmt.ParseExposition(data); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Stop scrapers once the serving goroutines drain.
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			time.Sleep(20 * time.Millisecond)
			if len(errs) > 0 {
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	exp := scrape(t, ts.Client(), ts.URL)
	if v, ok := sampleValue(exp.Family("gcxd_ttfr_seconds"), "gcxd_ttfr_seconds_count", map[string]string{"query": "Q1"}); !ok || v != servers*iters {
		t.Fatalf("gcxd_ttfr_seconds_count{query=\"Q1\"} = %v, want %d", v, servers*iters)
	}
}

type statusError int

func (e statusError) Error() string { return "unexpected status " + http.StatusText(int(e)) }

func errorFromStatus(code int) error { return statusError(code) }

// TestQueryTraceSidecar: a Gcx-Trace header turns /query into a
// multipart response — the streamed result plus a JSON sidecar with the
// bounded buffer-lifecycle trace.
func TestQueryTraceSidecar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	q, _ := testRegistry(t).Get("Q1")
	want := directRun(t, q, doc)

	readTrace := func(headerValue string) (result string, tr struct {
		Steps     []gcx.TraceStep `json:"steps"`
		Truncated bool            `json:"truncated"`
		Stats     gcx.Stats       `json:"stats"`
	}) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query?id=Q1", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Gcx-Trace", headerValue)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		if err != nil || mt != "multipart/mixed" {
			t.Fatalf("content type %q (%v), want multipart/mixed", resp.Header.Get("Content-Type"), err)
		}
		mr := multipart.NewReader(resp.Body, params["boundary"])
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			switch p.Header.Get("Gcx-Part") {
			case "result":
				result = string(data)
			case "trace":
				if err := json.Unmarshal(data, &tr); err != nil {
					t.Fatalf("trace part: %v", err)
				}
			default:
				t.Fatalf("unexpected part %q", p.Header.Get("Gcx-Part"))
			}
		}
		return result, tr
	}

	result, tr := readTrace("1")
	if result != want {
		t.Fatalf("traced result differs from direct run (%d vs %d bytes)", len(result), len(want))
	}
	if len(tr.Steps) == 0 {
		t.Fatal("trace sidecar carries no steps")
	}
	if len(tr.Steps) > 1024 {
		t.Fatalf("default trace bound exceeded: %d steps", len(tr.Steps))
	}
	if tr.Stats.TokensRead == 0 {
		t.Fatal("trace sidecar stats are empty")
	}

	// An explicit tiny bound truncates but leaves the result intact.
	result, tr = readTrace("2")
	if result != want {
		t.Fatal("bounded trace changed the result stream")
	}
	if len(tr.Steps) != 2 || !tr.Truncated {
		t.Fatalf("Gcx-Trace: 2 recorded %d steps (truncated %v), want exactly 2 truncated", len(tr.Steps), tr.Truncated)
	}
}

// TestReadyz covers both unready conditions: a degraded boot
// (SetNotReady) and admission pressure (MaxInflight saturated by a
// hanging request).
func TestReadyz(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})

	get := func() (int, string) {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(); code != http.StatusOK {
		t.Fatalf("idle server not ready: %d %s", code, body)
	}

	srv.SetNotReady("registry /tmp/nope: no such directory")
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "registry") {
		t.Fatalf("SetNotReady: got %d %q, want 503 naming the registry", code, body)
	}
	srv.SetReady()
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("SetReady did not restore readiness: %d", code)
	}

	// Saturate the single admission slot with a request whose body never
	// completes; readiness must flip to 503 while it is in flight.
	pr, pw := io.Pipe()
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query?id=Q1", pr)
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte("<site>")); err != nil {
		t.Fatal(err)
	}
	saturated := false
	for i := 0; i < 100 && !saturated; i++ {
		code, _ := get()
		saturated = code == http.StatusServiceUnavailable
		if !saturated {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !saturated {
		t.Fatal("/readyz never reported admission pressure with MaxInflight=1 saturated")
	}
	pw.Close()
	<-reqDone
	ready := false
	for i := 0; i < 100 && !ready; i++ {
		code, _ := get()
		ready = code == http.StatusOK
		if !ready {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !ready {
		t.Fatal("/readyz stuck unready after the hanging request finished")
	}
}

func TestBuildinfo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var bi struct {
		GoVersion string `json:"go_version"`
		Module    string `json:"module"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if bi.GoVersion == "" {
		t.Fatal("buildinfo reports no Go version")
	}
}

// TestPprofGating: the profiling suite exists only behind EnablePprof.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := off.Client().Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without the flag: status %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = on.Client().Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not served with EnablePprof: status %d", resp.StatusCode)
	}
}
