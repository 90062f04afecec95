package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gcx/internal/obs"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the engine are a later change. They stay
// in memory during the run and are written out when the traced pass ends.

// Every span and first-byte stamp is read from the engine's own monotonic
// clock, obs.Now (strictly positive, so 0 can mean "never").
func nanos() int64 { return obs.Now() }

// span is one timed interval. Spans of one op share its id; Parent names
// the enclosing span ("" for the op itself).
type span struct {
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Client  int    `json:"client"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace (a 40 MB op makes ~650 source.read
// spans); spans beyond it are counted, not kept.
const maxSpans = 100_000

type tracer struct {
	nextOp atomic.Int64

	mu      sync.Mutex // bulk-corpus reads its source and emits results on different goroutines
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// opCtx identifies the op a workload is executing: which client runs it
// and, in the traced pass, where its spans go. tr is nil when untraced.
type opCtx struct {
	client int
	tr     *tracer
	id     int64
}

func (c opCtx) span(name string, start, end int64) {
	if c.tr != nil {
		c.tr.add(span{Op: c.id, Name: name, Parent: "op", Client: c.client, StartNs: start, EndNs: end})
	}
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Dropped  int64  `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(root, workload string, seed uint64) error {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// source feeds a document to the program under test. Untraced it is a
// plain bytes.Reader; traced, every Read the engine issues is a
// source.read span.
type source struct {
	r   bytes.Reader
	ctx opCtx
}

func (s *source) reset(doc []byte, ctx opCtx) {
	s.r.Reset(doc)
	s.ctx = ctx
}

func (s *source) Read(p []byte) (int, error) {
	if s.ctx.tr == nil {
		return s.r.Read(p)
	}
	t0 := nanos()
	n, err := s.r.Read(p)
	s.ctx.span("source.read", t0, nanos())
	return n, err
}

// sink receives the program's output and checks it, byte for byte as it
// arrives, against the reference computed during set-up. It also counts
// writes and stamps the first one (time to first result, as a caller of
// the library sees it).
type sink struct {
	ref    []byte
	off    int
	bad    bool
	writes int64
	first  int64 // nanos() of the first Write, 0 if none yet
	ctx    opCtx
}

func (s *sink) reset(ref []byte, ctx opCtx) {
	*s = sink{ref: ref, ctx: ctx}
}

func (s *sink) Write(p []byte) (int, error) {
	var t0 int64
	if s.writes == 0 || s.ctx.tr != nil {
		t0 = nanos()
		if s.writes == 0 {
			s.first = t0
		}
	}
	s.writes++
	end := s.off + len(p)
	if end > len(s.ref) || !bytes.Equal(p, s.ref[s.off:end]) {
		s.bad = true
	}
	s.off = end
	if s.ctx.tr != nil {
		s.ctx.span("sink.write", t0, nanos())
	}
	return len(p), nil
}

// ok reports whether exactly the reference arrived.
func (s *sink) ok() bool { return !s.bad && s.off == len(s.ref) }
