package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"gcx"
	"gcx/internal/server"
)

// gcxd-copy: POST /query?id=copy against an in-process server.New handler
// on a real loopback listener, over keep-alive connections.
//
// The client is a raw HTTP/1.1 connection, not net/http's: one goroutine
// writes the request while the op's goroutine reads the response, so the
// time to the first response byte is observed while the upload is still
// in flight (net/http's client would hold the response until the request
// body has been sent).

type copyWorkload struct {
	p    *pair
	srv  *server.Server
	http *http.Server
	done chan struct{} // closed when http.Serve returned
	conn []*copyConn
	warm gcx.Stats

	// per-op client spans of the traced window, in ns
	upload, download, request []int64
	mu                        sync.Mutex
	before                    server.Snapshot // at the end of set-up
}

// uploadChunk is how much of the body one client Write carries.
const uploadChunk = 64 << 10

type copyConn struct {
	c      net.Conn
	br     *bufio.Reader
	header []byte
	body   []byte
	start  chan struct{} // op -> writer: send one request
	sent   chan sendDone // writer -> op
	buf    []byte
	snk    sink
}

type sendDone struct {
	first, last int64 // nanos() before the first and after the last Write
	err         error
}

func (w *copyWorkload) setup(seed uint64, sc scale) error {
	doc, err := genDoc(sc.copyDoc, seed)
	if err != nil {
		return err
	}
	// The body ends at the root's end tag. The engine returns once that tag
	// is read; when the generator's trailing newline arrives in a segment of
	// its own (over loopback: one request in thousands on a warm connection,
	// one in ten on a new one) it is still unread then, and go1.24's
	// net/http, in the full-duplex mode the handler enables, panics serving
	// the connection's next request ("invalid concurrent Body.Read call")
	// and drops the connection. gcxd should drain the body before it
	// returns; that is a server fix for a later PR, and until then a
	// workload on which no op may fail does not send the byte.
	doc = bytes.TrimRight(doc, "\n")
	ref, err := reference(copyQuery, doc)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	w.p = &pair{name: "copy", query: copyQuery, docs: [][]byte{doc}, refs: [][]byte{ref}}

	reg := server.NewRegistry()
	if err := reg.Add("copy", copyQuery); err != nil {
		return err
	}
	if w.srv, err = server.New(server.Config{Registry: reg}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: w.srv}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.http.Serve(ln) // returns http.ErrServerClosed from close()
	}()

	header := fmt.Appendf(nil, "POST /query?id=copy HTTP/1.1\r\nHost: gcxd\r\nContent-Type: application/xml\r\nContent-Length: %d\r\n\r\n", len(doc))
	w.conn = nil
	for i := 0; i < copyClients; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		cc := &copyConn{c: c, br: bufio.NewReaderSize(c, 64<<10), header: header, body: doc,
			start: make(chan struct{}), sent: make(chan sendDone), buf: make([]byte, 64<<10)}
		go cc.writer()
		w.conn = append(w.conn, cc)
		st := w.op(opCtx{client: i})
		if st.err != nil {
			return fmt.Errorf("warm-up: %w", st.err)
		}
		w.warm = st.st
	}
	w.before = w.srv.Metrics()
	return nil
}

// writer sends one request per start signal: the header, then the body
// in uploadChunk pieces.
func (cc *copyConn) writer() {
	for range cc.start {
		d := sendDone{first: nanos()}
		_, d.err = cc.c.Write(cc.header)
		for body := cc.body; len(body) > 0 && d.err == nil; {
			n := min(len(body), uploadChunk)
			_, d.err = cc.c.Write(body[:n])
			body = body[n:]
		}
		d.last = nanos()
		cc.sent <- d
	}
}

func (w *copyWorkload) op(ctx opCtx) opStats {
	cc := w.conn[ctx.client]
	acc := opStats{in: int64(len(cc.body))}
	cc.snk.reset(w.p.refs[0], opCtx{})
	cc.start <- struct{}{}
	resp, err := http.ReadResponse(cc.br, nil)
	var first, end int64
	if err == nil {
		for {
			n, rerr := resp.Body.Read(cc.buf)
			if n > 0 {
				if first == 0 {
					first = nanos()
				}
				cc.snk.Write(cc.buf[:n])
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				err = rerr
				break
			}
		}
		end = nanos()
		resp.Body.Close()
	}
	sent := <-cc.sent
	switch {
	case err != nil:
		acc.err = err
	case sent.err != nil:
		acc.err = sent.err
	case resp.StatusCode != http.StatusOK:
		acc.err = fmt.Errorf("status %s", resp.Status)
	case resp.Trailer.Get("Gcx-Error") != "":
		acc.err = fmt.Errorf("Gcx-Error: %s", resp.Trailer.Get("Gcx-Error"))
	case !cc.snk.ok():
		acc.err = errMismatch
	default:
		acc.err = json.Unmarshal([]byte(resp.Trailer.Get("Gcx-Stats")), &acc.st)
	}
	if acc.err != nil {
		return acc
	}
	acc.out = int64(cc.snk.off)
	acc.writes = cc.snk.writes
	acc.ttfr = first - sent.first
	if ctx.tr != nil {
		ctx.span("client.upload", sent.first, sent.last)
		ctx.span("client.first_byte", sent.first, first)
		ctx.span("client.download", first, end)
		w.mu.Lock()
		w.upload = append(w.upload, sent.last-sent.first)
		w.download = append(w.download, end-first)
		w.request = append(w.request, end-sent.first)
		w.mu.Unlock()
	}
	return acc
}

func (w *copyWorkload) pairs() []*pair { return []*pair{w.p} }

func (w *copyWorkload) golden() []goldenRow {
	return []goldenRow{{Pair: w.p.name, Digest: digest(w.p.refs[0]), OutputBytes: int64(len(w.p.refs[0])),
		TokensRead: w.warm.TokensRead, PeakBufferBytes: w.warm.PeakBufferBytes}}
}

func (w *copyWorkload) layers(c collector, lad *ladder, _ *window, _ time.Duration) error {
	// The server's own counters, over every request since set-up ended.
	after := w.srv.Metrics()
	ops := float64(after.RequestsQuery - w.before.RequestsQuery)
	p50 := percentile(w.request, 0.5) * msPerNs
	c["server.request_ms_p50"] = p50
	c["server.request_ms_p95"] = percentile(w.request, 0.95) * msPerNs
	c["server.overhead_ms"] = p50 - lad.r5Ms()
	c["server.upload_ms_p50"] = percentile(w.upload, 0.5) * msPerNs
	c["server.download_ms_p50"] = percentile(w.download, 0.5) * msPerNs
	c["server.bytes_in_per_op"] = float64(after.BytesIn-w.before.BytesIn) / ops
	c["server.bytes_out_per_op"] = float64(after.Aggregate.OutputBytes-w.before.Aggregate.OutputBytes) / ops
	c["server.errors"] = float64(after.RequestsErrored - w.before.RequestsErrored)
	hits := float64(after.Cache.Hits - w.before.Cache.Hits)
	misses := float64(after.Cache.Misses - w.before.Cache.Misses)
	c["cache.hit_ratio"] = hits / (hits + misses)
	return nil
}

// close ends the writer goroutines, the connections and the server, and
// waits until Serve has returned.
func (w *copyWorkload) close() {
	for _, cc := range w.conn {
		close(cc.start)
		cc.c.Close()
	}
	if w.http != nil {
		w.http.Close()
		<-w.done
	}
}
