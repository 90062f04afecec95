// Package corpus evaluates compiled queries over collections of XML
// documents: it abstracts where the documents come from (files on disk,
// a tar archive, a concatenated multi-document stream) and runs them
// through a bounded worker pool whose results are emitted strictly in
// corpus order (see Run).
//
// A multi-document corpus is embarrassingly parallel for the paper's
// technique: each document's evaluation is independent and bounded by
// its own GCX buffer peak, so total memory stays roughly
// workers × per-document peak plus the bounded reorder window.
package corpus

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Doc is one document of a corpus. A file-backed document is obtained
// through Open, so it streams straight from disk inside the worker
// (per-worker memory = the engine's buffer peak); a stream-backed source
// (tar, concatenated bodies) hands over in Data the bytes that were
// necessarily materialized when the sequential underlying stream was
// advanced past them.
type Doc struct {
	// Name identifies the document for results and errors: the file
	// path, the tar member name, or "doc[N]" for split streams.
	Name string
	// Open returns the content. It is called at most once, by the worker
	// evaluating the document. Nil means Data is the content.
	Open func() (io.ReadCloser, error)
	// Data is a materialized document's content, in the storage its source
	// was handed (see Source.Next) and valid until that is offered again.
	Data []byte
	// Size is the content length in bytes when known, else -1.
	Size int64
}

// Source yields the documents of a corpus in corpus order. Sources are
// NOT safe for concurrent use; Run calls Next from a single goroutine.
type Source interface {
	// Next returns the next document. It returns io.EOF at the end of
	// the corpus. A *DocError marks a document that could not be
	// materialized: the caller records the failure in that document's
	// slot and keeps consuming. Any other error is terminal.
	//
	// buf is storage the caller owns (nil: none). A source that reads
	// each document out of a sequential stream appends the content to
	// buf[:0] and returns it as Doc.Data: Run offers a document slot's,
	// so a warm corpus run materializes without allocating. A source
	// whose documents open on their own ignores it.
	Next(buf []byte) (Doc, error)
	// Close releases resources owned by the source (e.g. an archive
	// file opened from a path).
	Close() error
}

// DocError reports a single document that could not be materialized;
// the corpus continues with the following documents.
type DocError struct {
	Name string
	Err  error
}

func (e *DocError) Error() string { return fmt.Sprintf("corpus: %s: %v", e.Name, e.Err) }
func (e *DocError) Unwrap() error { return e.Err }

// pooledDoc is a bytes.Reader over a document slot's storage, which the
// slot keeps across documents and, in a pooled runner, across runs.
type pooledDoc struct {
	bytes.Reader
	data []byte
}

// maxRetainedDocBytes bounds pooled document storage: one huge document
// must not pin a same-sized buffer in the pool for the rest of the
// process lifetime. Capacity below the bound is retained so steady-state
// corpus runs reuse their buffers.
const maxRetainedDocBytes = 4 << 20

// Reset truncates the document storage (releasing oversized backing) and
// rewinds the embedded reader for the next pooled use.
func (p *pooledDoc) Reset() {
	if cap(p.data) > maxRetainedDocBytes {
		p.data = nil
	}
	p.data = p.data[:0]
	p.Reader.Reset(nil)
}

// maxTarPrealloc caps how much a tar member's header-declared size may
// pre-allocate before any content is read.
const maxTarPrealloc = 1 << 20

// ---------------------------------------------------------------------
// Files

type filesSource struct {
	paths []string
	next  int
}

// Files returns a source over the given file paths, in order. Patterns
// containing glob metacharacters are expanded (matches in lexical
// order); a pattern with no matches falls back to the literal path —
// shell semantics with nullglob off, so a file literally named
// "doc[1].xml" stays reachable — and a path that turns out to be
// unreadable fails only its own document slot.
func Files(patterns ...string) (Source, error) {
	paths, err := ExpandPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	return FileList(paths...), nil
}

// FileList returns a source over literal file paths: no glob
// expansion, order preserved.
func FileList(paths ...string) Source {
	return &filesSource{paths: paths}
}

// ExpandPatterns resolves glob patterns to file paths (see Files for
// the fallback rule), keeping non-pattern paths literal.
func ExpandPatterns(patterns ...string) ([]string, error) {
	var paths []string
	for _, p := range patterns {
		if !strings.ContainsAny(p, "*?[") {
			paths = append(paths, p)
			continue
		}
		matches, err := filepath.Glob(p)
		if err != nil {
			return nil, fmt.Errorf("corpus: bad pattern %q: %w", p, err)
		}
		if len(matches) == 0 {
			// Nothing matched: treat the pattern as a literal name (its
			// slot fails at open time if the file does not exist either).
			paths = append(paths, p)
			continue
		}
		paths = append(paths, matches...)
	}
	return paths, nil
}

func (f *filesSource) Next([]byte) (Doc, error) {
	if f.next >= len(f.paths) {
		return Doc{}, io.EOF
	}
	path := f.paths[f.next]
	f.next++
	size := int64(-1)
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	return Doc{
		Name: path,
		Size: size,
		Open: func() (io.ReadCloser, error) { return os.Open(path) },
	}, nil
}

func (f *filesSource) Close() error { return nil }

// ---------------------------------------------------------------------
// Tar

type tarSource struct {
	tr    *tar.Reader
	owned io.Closer // underlying file when opened from a path
	max   int64
}

// Tar returns a source over the regular-file members of a tar archive,
// in archive order. maxDocBytes > 0 caps single members: an oversized
// member is skipped (its slot fails with *DocTooLargeError wrapped in a
// *DocError) without reading it into memory.
func Tar(r io.Reader, maxDocBytes int64) Source {
	return &tarSource{tr: tar.NewReader(r), max: maxDocBytes}
}

// TarFile opens path and returns a Tar source that closes it on Close.
func TarFile(path string, maxDocBytes int64) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &tarSource{tr: tar.NewReader(f), owned: f, max: maxDocBytes}, nil
}

func (t *tarSource) Next(buf []byte) (Doc, error) {
	for {
		hdr, err := t.tr.Next()
		if err == io.EOF {
			return Doc{}, io.EOF
		}
		if err != nil {
			return Doc{}, fmt.Errorf("corpus: reading tar: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		if t.max > 0 && hdr.Size > t.max {
			// Skip without materializing; tar.Reader discards the body
			// on the next header read.
			return Doc{}, &DocError{Name: hdr.Name, Err: &DocTooLargeError{Name: hdr.Name, Limit: t.max}}
		}
		// hdr.Size is untrusted input: pre-allocate only a bounded hint
		// and grow while reading, so a crafted header claiming exabytes
		// fails with a clean read error instead of an allocation crash.
		data := buf[:0]
		if hint := min(hdr.Size, maxTarPrealloc); int64(cap(data)) < hint {
			data = make([]byte, 0, hint)
		}
		for {
			if len(data) == cap(data) {
				data = append(data, 0)[:len(data)]
			}
			n, err := t.tr.Read(data[len(data):cap(data)])
			data = data[:len(data)+n]
			if err == io.EOF {
				break
			}
			if err != nil {
				return Doc{}, fmt.Errorf("corpus: reading tar member %s: %w", hdr.Name, err)
			}
		}
		return Doc{Name: hdr.Name, Data: data, Size: int64(len(data))}, nil
	}
}

func (t *tarSource) Close() error {
	if t.owned != nil {
		return t.owned.Close()
	}
	return nil
}

// ---------------------------------------------------------------------
// Concatenated stream

type concatSource struct {
	sp    *Splitter
	idx   int    // the first index of the next block of names
	names string // "doc[N]doc[N+1]…", the rest of the current block
}

// nameBlock is how many split-document names concatSource renders into
// one string: a name is a substring of its block, so a document costs no
// allocation of its own, and a retained name keeps its block alive.
const nameBlock = 128

// Concat returns a source that splits a concatenated multi-document XML
// stream into its top-level documents (see Splitter for the boundary
// rules). maxDocBytes > 0 caps single documents; an oversized document
// fails its own slot while the stream continues behind it.
func Concat(r io.Reader, maxDocBytes int64) Source {
	sp := NewSplitter(r)
	sp.SetMaxDocBytes(maxDocBytes)
	return &concatSource{sp: sp}
}

func (c *concatSource) Next(buf []byte) (Doc, error) {
	data, err := c.sp.Next(buf)
	if err != nil && !errors.Is(err, ErrTooLarge) {
		return Doc{}, err
	}
	name := c.name()
	if err != nil {
		return Doc{}, &DocError{Name: name, Err: &DocTooLargeError{Name: name, Limit: c.sp.max}}
	}
	return Doc{Name: name, Data: data, Size: int64(len(data))}, nil
}

// name is the next document's "doc[N]", cut from the current block of
// names; the first name of a block renders all of it.
func (c *concatSource) name() string {
	if c.names == "" {
		var b [nameBlock * 16]byte // room for every index below 10^11
		buf := b[:0]
		for i := range nameBlock {
			buf = append(strconv.AppendInt(append(buf, "doc["...), int64(c.idx+i), 10), ']')
		}
		c.names, c.idx = string(buf), c.idx+nameBlock
	}
	n := strings.IndexByte(c.names, ']') + 1
	name := c.names[:n]
	c.names = c.names[n:]
	return name
}

func (c *concatSource) Close() error { return nil }

// ---------------------------------------------------------------------
// Chain

type chainSource struct {
	srcs []Source
	cur  int
}

// Chain concatenates sources: all documents of the first, then the
// second, and so on. Closing the chain closes every member.
func Chain(srcs ...Source) Source {
	return &chainSource{srcs: srcs}
}

func (c *chainSource) Next(buf []byte) (Doc, error) {
	for c.cur < len(c.srcs) {
		doc, err := c.srcs[c.cur].Next(buf)
		if err == io.EOF {
			c.cur++
			continue
		}
		return doc, err
	}
	return Doc{}, io.EOF
}

func (c *chainSource) Close() error {
	var err error
	for _, s := range c.srcs {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
