package gcx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"gcx/internal/corpus"
)

// Corpus describes a collection of XML documents for bulk evaluation:
// files on disk, a tar archive, or a concatenated multi-document
// stream. A Corpus is single-use — one Bulk call consumes it (stream
// and archive sources can only be read once).
type Corpus struct {
	build func(maxDocBytes int64) (corpus.Source, error)
	used  bool
}

// CorpusFiles returns a corpus over the given file paths, in order.
// Patterns containing glob metacharacters are expanded ONCE, here, in
// lexical order (a pattern matching nothing falls back to the literal
// path, shell nullglob-off style); a path that turns out to be
// unreadable fails only its own document slot.
func CorpusFiles(patterns ...string) (*Corpus, error) {
	src, err := corpus.Files(patterns...)
	if err != nil {
		return nil, err
	}
	return &Corpus{build: func(int64) (corpus.Source, error) {
		return src, nil
	}}, nil
}

// CorpusTar returns a corpus over the regular-file members of the tar
// archive read from r, in archive order.
func CorpusTar(r io.Reader) *Corpus {
	return &Corpus{build: func(maxDoc int64) (corpus.Source, error) {
		return corpus.Tar(r, maxDoc), nil
	}}
}

// CorpusConcat returns a corpus over a concatenated multi-document XML
// stream: documents are split by a streaming scanner that understands
// just enough XML surface structure (tags, comments, PIs, CDATA,
// DOCTYPE, quoted attributes) to find where each top-level root element
// closes. Prologs between documents belong to the following document;
// whitespace and byte-order marks between documents are dropped.
func CorpusConcat(r io.Reader) *Corpus {
	return &Corpus{build: func(maxDoc int64) (corpus.Source, error) {
		return corpus.Concat(r, maxDoc), nil
	}}
}

// CorpusPaths returns a corpus over a mixed path list, in order: a
// path ending in ".tar" contributes its archive members, anything else
// is a file path or glob pattern (expanded once, here). This is what
// `cmd/gcx -input a.xml -input 'b/*.xml' -input c.tar` builds.
func CorpusPaths(paths ...string) (*Corpus, error) {
	// Resolve every glob now so the corpus evaluated is the corpus that
	// was named at construction — then classify each RESOLVED path, so
	// a glob like 'archives/*.tar' contributes every matched archive.
	// Archives are opened lazily at Bulk time (they need the
	// per-document cap).
	type segment struct {
		tar   string   // archive path, or
		files []string // resolved literal paths
	}
	var segs []segment
	for _, p := range paths {
		resolved, err := corpus.ExpandPatterns(p)
		if err != nil {
			return nil, err
		}
		for _, r := range resolved {
			if strings.HasSuffix(r, ".tar") {
				segs = append(segs, segment{tar: r})
				continue
			}
			if n := len(segs); n > 0 && segs[n-1].tar == "" {
				segs[n-1].files = append(segs[n-1].files, r)
			} else {
				segs = append(segs, segment{files: []string{r}})
			}
		}
	}
	return &Corpus{build: func(maxDoc int64) (corpus.Source, error) {
		var srcs []corpus.Source
		for _, seg := range segs {
			if seg.tar == "" {
				srcs = append(srcs, corpus.FileList(seg.files...))
				continue
			}
			s, err := corpus.TarFile(seg.tar, maxDoc)
			if err != nil {
				for _, prev := range srcs {
					prev.Close()
				}
				return nil, err
			}
			srcs = append(srcs, s)
		}
		return corpus.Chain(srcs...), nil
	}}, nil
}

// DocTooLargeError reports a corpus document that exceeded
// BulkOptions.MaxDocBytes (or a server's per-document cap). Match it in
// BulkDoc.Err with errors.As to distinguish resource-limit failures
// from malformed documents.
type DocTooLargeError = corpus.DocTooLargeError

// BulkOptions tunes a bulk run.
type BulkOptions struct {
	// Workers is the number of concurrent per-document evaluations
	// (≤0: GOMAXPROCS). Each worker draws a pooled run state from the
	// compiled artifact, so per-worker memory is one GCX buffer peak.
	Workers int
	// MaxDocBytes fails any single document larger than this without
	// evaluating it (0 = no limit). The failure is per-document.
	MaxDocBytes int64
	// Context cancels the run: dispatch stops and in-flight document
	// evaluations are unwound promptly (their reads fail), then Bulk
	// returns the context's error.
	Context context.Context
}

// BulkDoc is one document's outcome, delivered in corpus order.
type BulkDoc struct {
	// Index is the document's position in corpus order, from 0.
	Index int `json:"index"`
	// Name identifies the document: file path, tar member, or "doc[N]".
	Name string `json:"name"`
	// Output holds the serialized result (Engine.Bulk). The bytes are
	// pooled and valid only during the emit call — copy to retain. On a
	// failed document it holds whatever was produced before the
	// failure, exactly as a solo run would have written.
	Output []byte `json:"-"`
	// Outputs holds one result per subscription, in IDs() order
	// (Registry.Bulk); same lifetime rules as Output.
	Outputs [][]byte `json:"-"`
	// Stats are this document's run statistics (for a registry: the
	// shared-pass aggregate).
	Stats Stats `json:"stats"`
	// Queries is the per-subscription breakdown, aligned with Outputs
	// (Registry.Bulk only; subscriptions of one text repeat its entry).
	// Valid only during the emit call, like Outputs.
	Queries []QueryStats `json:"queries,omitempty"`
	// Err is this document's failure, nil on success.
	Err error `json:"-"`
}

// BulkStats summarizes a bulk run. The JSON field names are stable for
// scraping (cmd/gcx -stats-json, gcxd /bulk aggregate part).
type BulkStats struct {
	// Docs counts emitted documents; Failed counts those with errors.
	Docs   int64 `json:"docs"`
	Failed int64 `json:"failed"`
	// Workers and Window are the effective pool parameters; Window, the
	// in-flight documents that bound reorder memory, is 2×Workers.
	Workers int `json:"workers"`
	Window  int `json:"window"`
	// PeakInFlight is the high watermark of concurrently evaluating
	// documents (how much of the pool the corpus kept busy).
	PeakInFlight int `json:"peak_in_flight"`
	// BusyNanos sums per-document evaluation time across workers;
	// WallNanos is the run's wall-clock time.
	BusyNanos int64 `json:"busy_nanos"`
	WallNanos int64 `json:"wall_nanos"`
	// Aggregate folds the per-document stats: total fields (tokens,
	// buffered, purged, signOffs, output bytes) are summed, while the
	// Peak fields report the largest SINGLE-document peak — the run's
	// memory bound is Workers × that peak, not the sum. Of the timing
	// fields, EvalWallNanos sums per-document evaluation time (BusyNanos
	// measured at the engine, below the pool's dispatch overhead) and
	// TimeToFirstResultNanos reports the WORST single-document
	// time-to-first-result.
	Aggregate Stats `json:"aggregate"`
}

// Utilization reports the fraction of worker capacity the run kept
// busy: 1.0 means every worker evaluated for the full wall time.
func (b BulkStats) Utilization() float64 {
	if b.WallNanos <= 0 || b.Workers <= 0 {
		return 0
	}
	return float64(b.BusyNanos) / (float64(b.WallNanos) * float64(b.Workers))
}

func (b *BulkStats) fold(t corpus.Totals) {
	b.Docs = t.Docs
	b.Failed = t.Failed
	b.Workers = t.Workers
	b.Window = t.Window
	b.PeakInFlight = t.PeakInFlight
	b.BusyNanos = t.BusyNanos
	b.WallNanos = t.WallNanos
}

// addDoc folds one document's stats into the aggregate.
func (b *BulkStats) addDoc(st Stats) {
	b.Aggregate.BufferedTotal += st.BufferedTotal
	b.Aggregate.PurgedTotal += st.PurgedTotal
	b.Aggregate.SignOffs += st.SignOffs
	b.Aggregate.TokensRead += st.TokensRead
	b.Aggregate.OutputBytes += st.OutputBytes
	b.Aggregate.PeakBufferNodes = max(b.Aggregate.PeakBufferNodes, st.PeakBufferNodes)
	b.Aggregate.PeakBufferBytes = max(b.Aggregate.PeakBufferBytes, st.PeakBufferBytes)
	b.Aggregate.EvalWallNanos += st.EvalWallNanos
	b.Aggregate.TimeToFirstResultNanos = max(b.Aggregate.TimeToFirstResultNanos, st.TimeToFirstResultNanos)
}

// errCorpusUsed reports reuse of a consumed corpus.
var errCorpusUsed = errors.New("gcx: corpus already consumed (a Corpus is single-use)")

func (c *Corpus) source(maxDocBytes int64) (corpus.Source, error) {
	if c == nil {
		return nil, errors.New("gcx: nil corpus")
	}
	if c.used {
		return nil, errCorpusUsed
	}
	src, err := c.build(maxDocBytes)
	if err != nil {
		// Nothing was consumed (e.g. an archive failed to open): leave
		// the corpus usable so a retry re-attempts the build instead of
		// misreporting "already consumed".
		return nil, err
	}
	c.used = true
	return src, nil
}

// Bulk evaluates the query over every document of the corpus across a
// bounded worker pool, delivering each document's result to emit in
// corpus order (emit may be nil to discard outputs and keep only the
// stats). Per-document failures — unreadable file, oversized member,
// malformed XML, evaluation error — are isolated in that document's
// BulkDoc.Err; sibling documents are byte-identical to solo runs. The
// returned error is non-nil only for whole-corpus failures: a broken
// source stream, an emit error, or context cancellation.
func (e *Engine) Bulk(c *Corpus, opts BulkOptions, emit func(BulkDoc) error) (BulkStats, error) {
	return bulk(c, opts, 1, nil, func(in io.Reader, outs []io.Writer, _ RegistryStats) (RegistryStats, error) {
		st, err := e.Run(in, outs[0])
		return RegistryStats{Aggregate: st}, err
	}, emit)
}

// Bulk evaluates every active subscription over every document of the
// corpus: each document gets one shared pass (tokenize/project/buffer
// once for all texts), documents run in parallel across the worker pool,
// and results arrive in corpus order, one per subscription in IDs()
// order. The subscriptions are those of the snapshot taken when Bulk
// starts; results go to emit, not to the subscriptions' counters. See
// Engine.Bulk for the isolation and error contract.
func (r *Registry) Bulk(c *Corpus, opts BulkOptions, emit func(BulkDoc) error) (BulkStats, error) {
	snap, err := r.snapshot()
	if err != nil {
		return BulkStats{}, err
	}
	return bulk(c, opts, snap.pass.Len(), snap.member, func(in io.Reader, outs []io.Writer, prev RegistryStats) (RegistryStats, error) {
		// in is a bulk slot's own guard: the run needs none of its own.
		st, qs, err := snap.pass.RunInto(context.Background(), in, outs, prev.Queries)
		return RegistryStats{Aggregate: convertStats(st), Queries: qs}, err
	}, emit)
}

// bulk is the body both Bulk methods share: eval runs one document into
// its slot's writers buffers (one per pass member), whose bytes go on the
// BulkDoc (by value, so the per-document BulkDoc stays off the heap), and
// a registry's per-text stats into the slice the slot's previous document
// left (prev.Queries).
// member maps each subscription of a Registry to its pass member, and nil
// for an Engine, whose one result is BulkDoc.Output. The Outputs and
// Queries headers are built once and reused by every document — emission
// is serial and their contents are valid only during emit anyway — so a
// subscription's result costs a slice entry, not an allocation.
func bulk(c *Corpus, opts BulkOptions, writers int, member []int,
	eval corpus.EvalFunc[RegistryStats],
	emit func(BulkDoc) error) (BulkStats, error) {
	src, err := c.source(opts.MaxDocBytes)
	if err != nil {
		return BulkStats{}, err
	}
	defer src.Close()

	var bs BulkStats
	outs, queries := make([][]byte, len(member)), make([]QueryStats, len(member))
	totals, err := corpus.Run(src, corpus.Options{
		Workers:     opts.Workers,
		Outputs:     writers,
		MaxDocBytes: opts.MaxDocBytes,
		Context:     opts.Context,
	}, eval, func(r *corpus.Result[RegistryStats]) error {
		doc := BulkDoc{Index: r.Index, Name: r.Name, Stats: r.Value.Aggregate, Err: r.Err}
		switch {
		case r.Outs == nil: // failed before evaluation: no output at all
		case member == nil:
			doc.Output = r.Outs[0].Bytes()
		default:
			for i, m := range member {
				outs[i] = r.Outs[m].Bytes()
			}
			doc.Outputs = outs
		}
		if qs := r.Value.Queries; qs != nil { // nil when eval never ran
			for i, m := range member {
				queries[i] = qs[m]
			}
			doc.Queries = queries
		}
		bs.addDoc(doc.Stats)
		if emit == nil {
			return nil
		}
		return emit(doc)
	})
	bs.fold(totals)
	return bs, err
}

// BulkError summarizes a failed document for error lists (gcxd /bulk
// aggregate part, cmd/gcx stderr).
func BulkError(d BulkDoc) string {
	return fmt.Sprintf("%s (doc %d): %v", d.Name, d.Index, d.Err)
}
