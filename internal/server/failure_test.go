package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gcx/internal/queries"
)

// failingResponseWriter accepts n body bytes and then fails every write —
// a client whose connection died mid-response. It bypasses httptest's
// in-memory recorder so the engine's write-error path runs inside a real
// handler invocation.
type failingResponseWriter struct {
	h    http.Header
	code int
	n    int
	mu   sync.Mutex
}

func (w *failingResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *failingResponseWriter) WriteHeader(code int) { w.code = code }

func (w *failingResponseWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		m := w.n
		w.n = 0
		return m, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

// slowResponseWriter accepts writes but stalls on each one.
type slowResponseWriter struct {
	failingResponseWriter
	delay time.Duration
}

func (w *slowResponseWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.failingResponseWriter.Write(p)
}

func newFailureServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHandlerSurvivesFailingResponseWriter: the engine's write error must
// unwind the handler cleanly (no panic, no goroutine left running) and be
// counted as an errored request.
func TestHandlerSurvivesFailingResponseWriter(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	req := httptest.NewRequest(http.MethodPost, "/query?id=Q6", bytes.NewReader(doc))
	w := &failingResponseWriter{n: 32}
	s.ServeHTTP(w, req) // must not panic
	if got := s.Metrics().RequestsErrored; got != 1 {
		t.Fatalf("failing client must count as an errored request, got %d", got)
	}
	// The server must still serve correct results afterwards.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?id=Q1", bytes.NewReader(doc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request failed: %d", rec.Code)
	}
	if rec.Body.String() != directRun(t, queries.Q1.Text, doc) {
		t.Fatal("follow-up request produced wrong output")
	}
}

// TestHandlerSurvivesSlowResponseWriter: a glacial client must not wedge
// the handler (writes are synchronous; this exercises the path, the
// draining is the OS socket's problem in production).
func TestHandlerSurvivesSlowResponseWriter(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	req := httptest.NewRequest(http.MethodPost, "/query?id=Q1", bytes.NewReader(doc))
	w := &slowResponseWriter{failingResponseWriter: failingResponseWriter{n: 1 << 30}, delay: time.Millisecond}
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler wedged on a slow client")
	}
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
}

// TestTruncatedRequestBody: a body that ends mid-element fails only
// AFTER the first result byte has been committed — earliest answering
// ships that byte within one input token of its certainty — so the
// streaming contract applies: 200 with partial output on the wire and
// the tokenizer's diagnosis in the Gcx-Error trailer. (A body that is
// garbage from byte one still gets a clean 400: nothing flushes before
// the first successful input token.)
func TestTruncatedRequestBody(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?id=Q1", bytes.NewReader(doc[:len(doc)/3])))
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream failure after commit: want 200, got %d (%s)", res.StatusCode, rec.Body.String())
	}
	if !rec.Flushed {
		t.Fatal("first result byte was not flushed to the client")
	}
	if got := res.Trailer.Get("Gcx-Error"); !strings.Contains(got, "unexpected end of input") {
		t.Fatalf("diagnosis missing from Gcx-Error trailer: %q", got)
	}
	if s.Metrics().RequestsErrored == 0 {
		t.Fatal("truncation not counted as an errored request")
	}
}

// TestGarbageRequestBody: input that fails on its very FIRST token must
// still produce a clean client error — the earliest-answering flush is
// armed only after one successful input step, precisely to keep this
// path's status line intact.
func TestGarbageRequestBody(t *testing.T) {
	s := newFailureServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?id=Q1", strings.NewReader("<")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: want 400, got %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Flushed {
		t.Fatal("nothing may be flushed before the first successful input token")
	}
}

// TestTruncatedWorkloadBody: same through the shared-pass endpoint. On
// the buffered JSON path nothing is committed before evaluation, and a
// stream failure interrupts EVERY member — so the request fails at the
// HTTP level (like /query), with the tokenizer's diagnosis in the body.
func TestTruncatedWorkloadBody(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(doc[:len(doc)/3]))
	req.Header.Set("Accept", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("whole-stream failure on the buffered path: want 400, got %d (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "unexpected end of input") {
		t.Fatalf("diagnosis missing from response: %s", rec.Body.String())
	}
	if s.Metrics().RequestsErrored == 0 {
		t.Fatal("truncation not counted as an errored request")
	}
}

// TestOversizedWorkloadBodyJSON: the size cap classifies as 413 through
// the workload JSON path too.
func TestOversizedWorkloadBodyJSON(t *testing.T) {
	s := newFailureServer(t, Config{MaxBodyBytes: 4 << 10})
	doc := xmarkDoc(t)
	req := httptest.NewRequest(http.MethodPost, "/workload", bytes.NewReader(doc))
	req.Header.Set("Accept", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("want 413, got %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestWorkloadMultipartClientGoneMidStream: the part-0 stream failing must
// abort the multipart response without panicking.
func TestWorkloadMultipartClientGoneMidStream(t *testing.T) {
	s := newFailureServer(t, Config{})
	doc := xmarkDoc(t)
	req := httptest.NewRequest(http.MethodPost, "/workload?id=Q6&id=Q1", bytes.NewReader(doc))
	w := &failingResponseWriter{n: 256}
	s.ServeHTTP(w, req) // must not panic
	if s.Metrics().RequestsWorkload != 1 {
		t.Fatal("request not counted")
	}
}

// TestKeepAliveSurvivesUnreadBodyTail: the engine finishes at the root's
// end tag, so a body tail that arrives later (here: a trailing newline in
// its own TCP segment, sent once the response head has been read) is
// still unread when the handler returns. net/http in full-duplex mode
// then met that EOF in its own post-handler Close, restarted the
// connection's background read, and panicked on the NEXT request of the
// connection ("invalid concurrent Body.Read call"), dropping it. Three
// requests on one raw keep-alive connection must all be answered.
func TestKeepAliveSurvivesUnreadBodyTail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := xmarkDoc(t)
	want := directRun(t, queries.Q1.Text, doc)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		head := fmt.Sprintf("POST /query?id=Q1 HTTP/1.1\r\nHost: gcxd\r\nContent-Length: %d\r\n\r\n", len(doc)+1)
		if _, err := conn.Write(append([]byte(head), doc...)); err != nil {
			t.Fatalf("request %d: write: %v", i, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: connection dropped: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := conn.Write([]byte("\n")); err != nil {
			t.Fatalf("request %d: write tail: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("request %d: status %d, err %v, body matches solo run: %t", i, resp.StatusCode, err, string(body) == want)
		}
	}
}
