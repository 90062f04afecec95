package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gcx"
	"gcx/internal/queries"
)

// discardResponse is a ResponseWriter that keeps nothing: the allocation
// guard measures the server, not a recorder's buffers.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestRequestAllocs bounds what one warm request costs the server in
// allocations. Thirteen of a /query's belong to the test: eleven build
// the request, two are the errNotSupported that EnableFullDuplex returns
// on discardResponse. The other two are gcxd's own: the request value
// and the Gcx-Stats string. /workload adds its per-label writers and
// buffers, the boundary and the JSON stats part. gcxd-copy's
// allocs_per_mb rides on the /query count.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	for _, c := range []struct {
		target string
		max    float64
	}{
		{"/query?id=Q1", 16},
		{"/workload?id=Q1", 50},
	} {
		w := &discardResponse{h: http.Header{}}
		serve := func() {
			clear(w.h)
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.target, bytes.NewReader(doc)))
		}
		serve() // warm the pools and the selection memo
		if got := testing.AllocsPerRun(50, serve); got > c.max {
			t.Errorf("POST %s: %.0f allocations per request, want <= %.0f", c.target, got, c.max)
		} else {
			t.Logf("POST %s: %.0f allocations per request", c.target, got)
		}
	}
}

// TestRequestAccountingAgrees: every serving path accounts a request
// the same way — its endpoint's request counter, the body bytes the
// engine read, the result bytes it produced, the errored counter and one
// first result under the query's TTFR label — for a clean body and for
// one that ends a third of the way in.
func TestRequestAccountingAgrees(t *testing.T) {
	doc := xmarkDoc(t)
	paths := []struct {
		name, target, header, value string
		requests                    func(Snapshot) int64
	}{
		{"query", "/query?id=Q1", "", "", func(s Snapshot) int64 { return s.RequestsQuery }},
		{"query traced", "/query?id=Q1", "Gcx-Trace", "1", func(s Snapshot) int64 { return s.RequestsQuery }},
		{"workload json", "/workload?id=Q1", "Accept", "application/json", func(s Snapshot) int64 { return s.RequestsWorkload }},
		{"workload multipart", "/workload?id=Q1", "", "", func(s Snapshot) int64 { return s.RequestsWorkload }},
		{"bulk", "/bulk?id=Q1", "", "", func(s Snapshot) int64 { return s.RequestsBulk }},
	}
	type account struct{ requests, bytesIn, bytesOut, errors, firsts int64 }
	for _, body := range []struct {
		name string
		doc  []byte
	}{
		{"clean", doc},
		{"truncated", doc[:len(doc)/3]},
	} {
		var first account
		for i, p := range paths {
			s := newFailureServer(t, Config{})
			req := httptest.NewRequest(http.MethodPost, p.target, bytes.NewReader(body.doc))
			if p.header != "" {
				req.Header.Set(p.header, p.value)
			}
			s.ServeHTTP(httptest.NewRecorder(), req)
			m := s.Metrics()
			got := account{p.requests(m), m.BytesIn, m.Aggregate.OutputBytes, m.RequestsErrored, m.TTFR["Q1"].Count}
			t.Logf("%s body, %s: %+v", body.name, p.name, got)
			if i == 0 {
				first = got
				continue
			}
			if got != first {
				t.Errorf("%s body, %s: accounted %+v, %s accounted %+v", body.name, p.name, got, paths[0].name, first)
			}
		}
		want := account{requests: 1, bytesIn: int64(len(body.doc)), firsts: 1}
		if body.name == "clean" {
			want.bytesOut = int64(len(directRun(t, queries.Q1.Text, doc)))
		} else {
			want.errors = 1
			want.bytesOut = first.bytesOut
		}
		if first != want {
			t.Errorf("%s body: accounted %+v, want %+v", body.name, first, want)
		}
	}
}

// statsPartError returns the Gcx-Error header of a multipart /workload
// response's stats part ("" if it has none).
func statsPartError(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	_, params, err := mime.ParseMediaType(rec.Header().Get("Content-Type"))
	if err != nil {
		t.Fatalf("content type %q: %v", rec.Header().Get("Content-Type"), err)
	}
	mr := multipart.NewReader(bytes.NewReader(rec.Body.Bytes()), params["boundary"])
	for {
		p, err := mr.NextPart()
		if err != nil {
			t.Fatalf("no stats part: %v", err)
		}
		if p.Header.Get("Gcx-Part") == "stats" {
			return p.Header.Get("Gcx-Error")
		}
	}
}

// TestTruncatedWorkloadBodyMultipart: the multipart twin of
// TestTruncatedWorkloadBody. Part 0 opens at its first byte, so a body
// that breaks before any member produced one (1,000 bytes in, inside
// the first item, which every member reads before it answers) fails at the HTTP level exactly as the JSON form
// does. One that breaks after part 0 went out (a third of the way in)
// keeps its 200 and carries the diagnosis in the stats part.
func TestTruncatedWorkloadBodyMultipart(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	serve := func(body []byte, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(body))
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	rec, asJSON := serve(doc[:1000], ""), serve(doc[:1000], "application/json")
	if rec.Code != http.StatusBadRequest || rec.Flushed {
		t.Fatalf("stream broken before any result byte: want an unflushed 400, got %d (flushed %t): %s", rec.Code, rec.Flushed, rec.Body.String())
	}
	if rec.Body.String() != asJSON.Body.String() || asJSON.Code != rec.Code {
		t.Fatalf("multipart answered %d %q, JSON %d %q", rec.Code, rec.Body.String(), asJSON.Code, asJSON.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "unexpected end of input") {
		t.Fatalf("diagnosis missing from response: %s", rec.Body.String())
	}
	if got := s.Metrics().RequestsErrored; got != 2 {
		t.Fatalf("errored requests %d, want 2", got)
	}

	rec = serve(doc[:len(doc)/3], "")
	if rec.Code != http.StatusOK || !rec.Flushed {
		t.Fatalf("stream broken after part 0 went out: want a flushed 200, got %d (flushed %t)", rec.Code, rec.Flushed)
	}
	if got := statsPartError(t, rec); !strings.Contains(got, "unexpected end of input") {
		t.Fatalf("diagnosis missing from the stats part: %q", got)
	}
}

// TestOversizedWorkloadBodyMultipart: the multipart twin of
// TestOversizedWorkloadBodyJSON. The size cap answers 413 whether the
// client declared the length (refused at admission) or streamed the body
// with no length (the cap trips 1 KB in, inside the first item, before any
// member's first byte).
func TestOversizedWorkloadBodyMultipart(t *testing.T) {
	s := newFailureServer(t, Config{MaxBodyBytes: 1 << 10})
	doc := xmarkDoc(t)
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(doc))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared length %t: want 413, got %d (%s)", declared, rec.Code, rec.Body.String())
		}
	}
	if got := s.Metrics().BytesIn; got > 1<<10+1 {
		t.Fatalf("bytes_in %d: the body was read past the cap", got)
	}
}

// BenchmarkQueryLoopback is a warm POST /query?id=Q1 over a real
// loopback keep-alive connection: the handler inside net/http's server,
// driven by a raw HTTP/1.1 client that reads each response with
// http.ReadResponse. Its allocation profile splits the request's
// allocations by owner (DESIGN.md, "One request lifecycle").
func BenchmarkQueryLoopback(b *testing.B) {
	s, err := New(Config{Registry: testRegistry(b)})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	defer hs.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	doc := xmarkDoc(b)
	req := append(fmt.Appendf(nil, "POST /query?id=Q1 HTTP/1.1\r\nHost: gcxd\r\nContent-Length: %d\r\n\r\n", len(doc)), doc...)
	br := bufio.NewReaderSize(c, 64<<10)
	op := func() {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Trailer.Get("Gcx-Stats") == "" {
			b.Fatalf("status %d, trailers %v", resp.StatusCode, resp.Trailer)
		}
	}
	op()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// TestStatsJSONMatchesEncodingJSON: the Gcx-Stats value is what
// encoding/json writes for gcx.Stats — every field, zero and negative
// values, a zero time to first result omitted — so the hand-written
// encoding leaves the wire bytes as they were.
func TestStatsJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range 1000 {
		var st gcx.Stats
		v := reflect.ValueOf(&st).Elem()
		for f := range v.NumField() {
			switch rng.IntN(4) {
			case 1:
				v.Field(f).SetInt(rng.Int64N(1000))
			case 2:
				v.Field(f).SetInt(rng.Int64())
			case 3:
				v.Field(f).SetInt(-rng.Int64())
			}
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := statsJSON(st); got != string(want) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}
