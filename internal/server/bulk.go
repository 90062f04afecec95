package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"runtime"
	"strconv"

	"gcx"
)

// handleBulk serves POST /bulk: one query (inline q= or registered
// id=) evaluated over EVERY document of the request body — a tar
// archive (Content-Type application/x-tar or ?format=tar) or a
// concatenated multi-document XML stream — across a bounded worker
// pool (?j=N, capped by the server's BulkWorkers).
//
// The response is multipart/mixed, one part per document in corpus
// order with that document's result bytes and its stats in a Gcx-Stats
// part header; a failed document's part carries Gcx-Error and whatever
// partial output a solo run would have produced, while its siblings
// stay byte-identical to solo runs (207 Multi-Status in spirit: the
// status line says the stream worked, each part reports its own fate).
// The final part (Gcx-Part: stats) is the aggregate: gcx.BulkStats
// plus the failed documents, repeated in the Gcx-Bulk-Stats HTTP
// trailer for clients that only want the envelope.
//
// A request whose FIRST document already violates a resource limit
// (oversized member) fails whole with 413 before anything is
// committed; after the first part is out, errors are per-document.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	s.m.bulkRequests.Add(1)
	if !s.admitLength(w, r) {
		return
	}
	params := r.URL.Query()
	eng, label, err := s.engine(params)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	workers, err := s.bulkWorkers(params)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Parts stream out while the corpus is still being read from the
	// request body; the HTTP/1 server must not drain-and-close the body
	// at the first response flush. (Best effort: recorders and HTTP/2
	// either do not support or do not need it.)
	http.NewResponseController(w).EnableFullDuplex()
	in, ctx, cancel := s.body(w, r)
	defer cancel()

	var c *gcx.Corpus
	if isTarRequest(r, params) {
		c = gcx.CorpusTar(in)
	} else {
		c = gcx.CorpusConcat(in)
	}

	var (
		mw        *multipart.Writer
		committed bool
		failures  []string
	)
	// ensureEnvelope opens the multipart response exactly once — shared
	// by the first document part and the empty-corpus aggregate path.
	ensureEnvelope := func() {
		if mw != nil {
			return
		}
		mw = multipart.NewWriter(w)
		w.Header().Set("Trailer", "Gcx-Bulk-Stats")
		w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	}
	abort := errors.New("bulk abort") // sentinel: status already decided
	bs, runErr := eng.Bulk(c, gcx.BulkOptions{
		Workers:     workers,
		MaxDocBytes: s.cfg.MaxDocBytes,
		Context:     ctx,
	}, func(d gcx.BulkDoc) error {
		s.m.bulkDocs.Add(1)
		if d.Err != nil {
			s.m.bulkDocErrors.Add(1)
			// The aggregate part's error list is capped: every failure is
			// still visible on its own part's Gcx-Error header, and an
			// adversarial corpus of millions of bad documents must not
			// grow request memory past the windowed bound.
			if len(failures) < maxBulkErrorList {
				failures = append(failures, gcx.BulkError(d))
			} else if len(failures) == maxBulkErrorList {
				failures = append(failures, "... further failures elided; see per-part Gcx-Error headers and the failed count")
			}
			var tooBig *gcx.DocTooLargeError
			if !committed && errors.As(d.Err, &tooBig) {
				// Nothing on the wire yet: a proper status line is still
				// possible, and a client that sent one oversized document
				// deserves a real 413, not a 200 with a buried error.
				s.fail(w, http.StatusRequestEntityTooLarge, d.Err)
				return abort
			}
		}
		s.m.record(d.Stats)
		// Per-document TTFR: a bulk run is many small solo runs, and each
		// document's first-result latency lands in the query's histogram.
		s.m.observeTTFR(label, d.Stats.TimeToFirstResultNanos)
		ensureEnvelope()
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", "application/xml; charset=utf-8")
		h.Set("Gcx-Doc-Index", strconv.Itoa(d.Index))
		h.Set("Gcx-Doc-Name", d.Name)
		if b, err := json.Marshal(d.Stats); err == nil {
			h.Set("Gcx-Stats", string(b))
		}
		if d.Err != nil {
			h.Set("Gcx-Error", d.Err.Error())
		}
		// CreatePart writes the boundary, which commits the 200 status
		// line at the HTTP layer even when the write then fails — so the
		// commit flag must flip BEFORE the attempt, or the failure path
		// would try to write a second status line.
		committed = true
		p, err := mw.CreatePart(h)
		if err != nil {
			return err // client gone; unwind the pool
		}
		cw := &countingWriter{w: p, n: &s.m.bytesOut, ctx: ctx, flush: flusherOf(w)}
		if _, err := cw.Write(d.Output); err != nil {
			return err
		}
		// Each part is a complete per-document result: flush it across the
		// transport now, so a client consuming a long corpus sees document
		// K's answer when it is ready, not when document K+N fills a buffer.
		cw.FlushResult()
		return nil
	})
	s.m.bulkBusyNanos.Add(bs.BusyNanos)
	s.m.bulkWorkerNanos.Add(bs.WallNanos * int64(bs.Workers))

	if runErr != nil {
		if errors.Is(runErr, abort) {
			return // status already written
		}
		s.m.erroredRequests.Add(1)
		if !committed {
			// The stream broke before any document was served (body too
			// large, timeout, malformed first read): whole-request status.
			s.failCode(w, runErr)
			return
		}
		failures = append(failures, runErr.Error())
	}
	// Empty corpus: the envelope still opens, just for the aggregate.
	ensureEnvelope()

	sh := textproto.MIMEHeader{}
	sh.Set("Content-Type", "application/json")
	sh.Set("Gcx-Part", "stats")
	if sp, err := mw.CreatePart(sh); err == nil {
		writeJSONBody(sp, bulkResponse{Stats: bs, Errors: failures})
	}
	mw.Close()
	if b, err := json.Marshal(bs); err == nil {
		w.Header().Set("Gcx-Bulk-Stats", string(b))
	}
}

// maxBulkErrorList bounds the aggregate part's error list.
const maxBulkErrorList = 64

// isTarRequest reports whether the /bulk body is a tar archive: the
// parsed media type (not a substring — "multipart/form-data;
// boundary=tar0" is not tar) or an explicit ?format=tar.
func isTarRequest(r *http.Request, params url.Values) bool {
	if params.Get("format") == "tar" {
		return true
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return false
	}
	return mt == "application/x-tar" || mt == "application/tar"
}

// bulkResponse is the aggregate (final) part of a /bulk response.
type bulkResponse struct {
	Stats  gcx.BulkStats `json:"stats"`
	Errors []string      `json:"errors,omitempty"`
}

// bulkWorkers resolves the effective worker count: the j= parameter
// clamped to [1, BulkWorkers] (BulkWorkers ≤ 0 means GOMAXPROCS). A j=
// that does not parse as a positive integer is a client error — silently
// running at the default would hide the typo.
func (s *Server) bulkWorkers(params url.Values) (int, error) {
	limit := s.cfg.BulkWorkers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	j := limit
	if v := params.Get("j"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad j= value %q: want a positive integer", v)
		}
		j = n
	}
	return min(j, limit), nil
}
