package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"gcx"
	"gcx/internal/obs"
)

// request is the lifecycle of one serving request: /query, /workload and
// /bulk each run inside one, opened by serve. It owns what they share —
// the endpoint's counter and latency, admission, the full-duplex
// connection, the limited, deadline-bound, counted body (Read), the
// counting result writers, the accounting of every run, and the commit
// point: the first byte written or flushed through it sends the status
// line, and until then a failure still answers a status of its own.
// Handlers keep how their selectors resolve and how they frame the
// response.
type request struct {
	http.ResponseWriter
	s      *Server
	ctx    context.Context // the request's, bounded by Config.Timeout
	cancel context.CancelFunc
	in     io.Reader  // the limited body
	body   serialBody // r.Body, which serve drains at the end
	env    envelope   // the multipart framing, once a part opens

	// The request's own storage for what every request needs: the first
	// result writer (writer), the response header values (setHeader) and
	// the post-handler drain, so a warm request allocates none of them.
	out   countingWriter
	hv    [4]string
	nhv   int
	drain io.LimitedReader

	reading   bool // the body has been read: the connection is full duplex
	committed bool // a byte or flush went out: the status line is sent
	erred     bool // refused, or a run failed: counted once, at the end
}

// serve runs fn inside one request lifecycle on endpoint e: the in-flight
// gauge and e's counter and latency histogram (whole-request wall time, as
// the caller sees it) around it, admission and the body before it, and
// the envelope's close, the tail's drain and the errored counter after.
// The request is not pooled: a stalled /bulk dispatcher can still be
// inside its Read after the handler returns.
func (s *Server) serve(e *endpoint, fn func(*request, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		e.requests.Add(1)
		start := obs.Now()
		defer func() {
			e.latency.Observe(obs.Now() - start)
			s.inflight.Add(-1)
		}()
		rq := &request{ResponseWriter: w, s: s}
		rq.body.ReadCloser = r.Body
		r.Body = &rq.body
		if err := s.admitLength(r); err != nil {
			rq.fail(http.StatusRequestEntityTooLarge, err)
		} else {
			rq.in, rq.ctx, rq.cancel = s.body(w, r)
			defer rq.cancel()
			fn(rq, r)
			if rq.env.opened() {
				rq.Write(rq.env.close())
			}
		}
		// The engine stops at the root's end tag, so a tail of the body (a
		// trailing newline in its own TCP segment is enough) can still be
		// unread here. In full-duplex mode net/http would find that EOF only
		// in its post-handler Body.Close — after it has aborted the
		// connection's background read — restart the read, and panic on the
		// connection's next request ("invalid concurrent Body.Read call").
		// Reading the tail inside the handler puts the EOF where net/http
		// expects it; the bound is net/http's own.
		rq.drain = io.LimitedReader{R: &rq.body, N: maxPostHandlerReadBytes}
		io.Copy(io.Discard, &rq.drain)
		if rq.erred {
			s.m.erroredRequests.Add(1)
		}
	}
}

// serialBody serializes reads of a request body: /bulk can return while a
// straggling corpus dispatcher is still inside a body read (corpus.Run
// never waits on a stalled source), and the post-handler drain must not
// read concurrently with it.
type serialBody struct {
	mu sync.Mutex
	io.ReadCloser
}

func (b *serialBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ReadCloser.Read(p)
}

// maxPostHandlerReadBytes is net/http's limit on the unread request body
// it consumes after a handler returns to keep the connection reusable.
const maxPostHandlerReadBytes = 256 << 10

// admitLength refuses a request whose DECLARED Content-Length already
// exceeds the body limit, before any evaluation starts. On the streaming
// paths the first result byte commits the status line within one input
// token, after which a mid-stream limit breach can only surface as a
// Gcx-Error trailer or part header — so the one case where a clean 413 is
// still certain, a client that announced the oversize up front, is decided
// here. Chunked uploads (unknown length) pass and hit the streaming limit.
func (s *Server) admitLength(r *http.Request) error {
	if s.cfg.MaxBodyBytes > 0 && r.ContentLength > s.cfg.MaxBodyBytes {
		return fmt.Errorf("request body of %d bytes exceeds the limit of %d bytes", r.ContentLength, s.cfg.MaxBodyBytes)
	}
	return nil
}

// body limits the request body for engine consumption and derives the
// request's context, which carries the deadline and also guards the
// streamed result writers: once the input hits EOF the engine performs no
// more reads, so without a write-side check a slow-reading client would
// keep the evaluation alive past the timeout.
func (s *Server) body(w http.ResponseWriter, r *http.Request) (io.Reader, context.Context, context.CancelFunc) {
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	var in io.Reader = r.Body
	if s.cfg.MaxBodyBytes > 0 {
		in = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	return in, ctx, cancel
}

// Read is the body as the engine reads it, counted into bytes_in; the
// engine's context-aware API (RunContext, Trace, BulkOptions.Context)
// checks the deadline. The first read switches the connection to full
// duplex: the first result byte flushes while the body is still being
// read, and without it the HTTP/1 server would drain-and-discard the
// unread body at that flush, truncating the document under the engine. A
// request refused before any read keeps net/http's default, which closes
// the connection gracefully on a large body. (Best effort: recorders and
// HTTP/2 either do not support or do not need it.)
func (rq *request) Read(p []byte) (int, error) {
	if !rq.reading {
		rq.reading = true
		http.NewResponseController(rq.ResponseWriter).EnableFullDuplex()
	}
	n, err := rq.in.Read(p)
	rq.s.m.bytesIn.Add(int64(n))
	return n, err
}

// Write is the response's one way out: it marks the status line sent.
func (rq *request) Write(p []byte) (int, error) {
	rq.committed = true
	return rq.ResponseWriter.Write(p)
}

// Flush pushes what is written across the transport, status line
// included. A writer that cannot flush (some recorders) commits nothing;
// the first-result flush then degrades to the engine's bufio drain.
func (rq *request) Flush() {
	if f, ok := rq.ResponseWriter.(http.Flusher); ok {
		rq.committed = true
		f.Flush()
	}
}

// writer counts one result's bytes into the service's bytes_out. A
// streamed result — written to the response, not to a buffer — also fails
// once the request's deadline passes (after the input's EOF nothing else
// bounds the emission to a slow client) and flushes at the first certain
// result: through dst if dst can flush (a part that opens lazily), through
// the response otherwise. The first writer is the request's own.
func (rq *request) writer(dst io.Writer, streamed bool) *countingWriter {
	cw := &rq.out
	if cw.w != nil {
		cw = new(countingWriter)
	}
	*cw = countingWriter{w: dst, n: &rq.s.m.bytesOut}
	if streamed {
		cw.ctx, cw.flush = rq.ctx, rq
		if f, ok := dst.(http.Flusher); ok {
			cw.flush = f
		}
	}
	return cw
}

// setHeader sets the response header key, which must be in canonical
// form, to the single value v, like Header().Set but with the value's
// slice carved from the request's own storage instead of allocated. The
// storage outlives the handler, as the trailers net/http writes after it
// need: the request is not pooled.
func (rq *request) setHeader(key, v string) {
	if rq.nhv == len(rq.hv) {
		rq.Header().Set(key, v)
		return
	}
	rq.hv[rq.nhv] = v
	rq.Header()[key] = rq.hv[rq.nhv : rq.nhv+1 : rq.nhv+1]
	rq.nhv++
}

// part opens the next part of the multipart response, with its
// Content-Type, the given name/value pairs, and Gcx-Error when err is set;
// the part's bytes are then written to rq. The first opens the envelope:
// the response's Content-Type, with the boundary.
func (rq *request) part(contentType string, err error, kv ...string) error {
	if !rq.env.opened() {
		rq.env.open()
		rq.setHeader("Content-Type", rq.env.contentType)
	}
	_, werr := rq.Write(rq.env.header(contentType, err, kv))
	return werr
}

// ran folds one run into the service totals: its stats, and each member's
// time to first result under its TTFR label — members[i] under labels[i];
// a solo run (no members) is its own member, under labels[0].
func (rq *request) ran(st gcx.Stats, labels []string, members []gcx.QueryStats) {
	rq.s.m.record(st)
	for i, label := range labels {
		first := st.TimeToFirstResultNanos
		if members != nil {
			first = members[i].TimeToFirstResultNanos
		}
		rq.s.m.observeTTFR(label, first)
	}
}

// failed counts a run that ended in err against the request and reports
// whether err ended it: a failure of every member (all) while nothing is
// committed answers failCode's status. Otherwise the handler reports err
// in a trailer or part header.
func (rq *request) failed(err error, all bool) bool {
	if err == nil {
		return false
	}
	rq.erred = true
	if all && !rq.committed {
		rq.fail(failCode(err))
		return true
	}
	return false
}

// fail answers with a plain-text error while nothing is committed,
// withdrawing the trailers a streaming handler announced (http.Error
// replaces the Content-Type).
func (rq *request) fail(code int, err error) {
	rq.erred = true
	rq.Header().Del("Trailer")
	http.Error(rq, "gcxd: "+err.Error(), code)
}

// failCode classifies a run error that occurred before the first output
// byte: body too large (413), evaluation timeout (408), client gone or
// bad input (400; a gone client reads no status). Classification is typed
// (errors.Is against the gcx error vocabulary), never message matching.
func failCode(err error) (int, error) {
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr), errors.Is(err, gcx.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, err
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, fmt.Errorf("evaluation timeout: %w", err)
	}
	return http.StatusBadRequest, err
}

// jsonString is v's JSON encoding, for a trailer. The stats types it
// encodes hold integers only, so encoding cannot fail.
func jsonString(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// statsJSON is jsonString(st) — the Gcx-Stats trailer or part header —
// with no allocation but the string's: encoding/json's bytes, the fields
// in declaration order under their tags, the time to first result
// omitted when it is zero.
func statsJSON(st gcx.Stats) string {
	var arr [320]byte
	b := strconv.AppendInt(append(arr[:0], `{"peak_buffer_nodes":`...), st.PeakBufferNodes, 10)
	b = strconv.AppendInt(append(b, `,"peak_buffer_bytes":`...), st.PeakBufferBytes, 10)
	b = strconv.AppendInt(append(b, `,"buffered_total":`...), st.BufferedTotal, 10)
	b = strconv.AppendInt(append(b, `,"purged_total":`...), st.PurgedTotal, 10)
	b = strconv.AppendInt(append(b, `,"sign_offs":`...), st.SignOffs, 10)
	b = strconv.AppendInt(append(b, `,"tokens_read":`...), st.TokensRead, 10)
	b = strconv.AppendInt(append(b, `,"output_bytes":`...), st.OutputBytes, 10)
	if st.TimeToFirstResultNanos != 0 {
		b = strconv.AppendInt(append(b, `,"time_to_first_result_nanos":`...), st.TimeToFirstResultNanos, 10)
	}
	b = strconv.AppendInt(append(b, `,"eval_wall_nanos":`...), st.EvalWallNanos, 10)
	return string(append(b, '}'))
}

// writeJSONBody encodes v to w; encode errors mean the client is gone
// and are deliberately dropped.
func writeJSONBody(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v)
}

// countingWriter forwards writes and counts bytes into bytes_out. When
// ctx is set, an expired deadline fails the write; when flush is set, the
// engine's first-result flush goes through it.
type countingWriter struct {
	w     io.Writer
	n     *atomic.Int64
	ctx   context.Context
	flush http.Flusher
}

// FlushResult implements xmlstream.ResultFlusher: called (through the
// engine's writer) once the first result byte is certain, and per /bulk
// part by the handler. Committing the status line here is deliberate: it
// is the moment the response stops being retractable.
func (c *countingWriter) FlushResult() {
	if c.flush != nil {
		c.flush.Flush()
	}
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return 0, fmt.Errorf("request aborted: %w", err)
		}
	}
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
