package server

import (
	"errors"
	"fmt"
	"mime"
	"net/http"
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
// The envelope opens at the first part, so a request whose FIRST
// document already violates a resource limit (oversized member), or whose
// stream breaks before any document is served, fails whole with a status
// of its own; after the first part is out, errors are per-document.
func (s *Server) handleBulk(rq *request, r *http.Request) {
	p := params(r.URL.RawQuery)
	eng, label, err := s.engine(p)
	if err != nil {
		rq.fail(http.StatusBadRequest, err)
		return
	}
	workers, err := s.bulkWorkers(p)
	if err != nil {
		rq.fail(http.StatusBadRequest, err)
		return
	}
	var c *gcx.Corpus
	if isTarRequest(r, p) {
		c = gcx.CorpusTar(rq)
	} else {
		c = gcx.CorpusConcat(rq)
	}
	rq.setHeader("Trailer", "Gcx-Bulk-Stats")
	cw := rq.writer(rq, true)
	var failures []string
	bs, runErr := eng.Bulk(c, gcx.BulkOptions{
		Workers:     workers,
		MaxDocBytes: s.cfg.MaxDocBytes,
		Context:     rq.ctx,
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
			if !rq.committed && errors.Is(d.Err, gcx.ErrTooLarge) {
				// Nothing on the wire yet: ending the run with the document's
				// error answers 413, not a 200 with a buried error.
				return d.Err
			}
			rq.failed(d.Err, false)
		}
		// Per-document TTFR: a bulk run is many small solo runs, and each
		// document's first-result latency lands in the query's histogram.
		rq.ran(d.Stats, []string{label}, nil)
		if err := rq.part("application/xml; charset=utf-8", d.Err,
			"Gcx-Doc-Index", strconv.Itoa(d.Index), "Gcx-Doc-Name", d.Name, "Gcx-Stats", statsJSON(d.Stats)); err != nil {
			return err // client gone; unwind the pool
		}
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
	if rq.failed(runErr, true) {
		return
	}
	if runErr != nil {
		failures = append(failures, runErr.Error())
	}
	// An empty corpus opens the envelope here, just for the aggregate.
	if rq.part("application/json", nil, "Gcx-Part", "stats") == nil {
		writeJSONBody(rq, bulkResponse{Stats: bs, Errors: failures})
	}
	rq.setHeader("Gcx-Bulk-Stats", jsonString(bs))
}

// maxBulkErrorList bounds the aggregate part's error list.
const maxBulkErrorList = 64

// isTarRequest reports whether the /bulk body is a tar archive: the
// parsed media type (not a substring — "multipart/form-data;
// boundary=tar0" is not tar) or an explicit ?format=tar.
func isTarRequest(r *http.Request, p params) bool {
	if p.get("format") == "tar" {
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
func (s *Server) bulkWorkers(p params) (int, error) {
	limit := s.cfg.BulkWorkers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	j := limit
	if v := p.get("j"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad j= value %q: want a positive integer", v)
		}
		j = n
	}
	return min(j, limit), nil
}
