package corpus

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"gcx/internal/xmlstream"
)

// ErrTooLarge is the sentinel every size-limit failure matches under
// errors.Is. It lives here (not in package gcx) because the concrete
// limit errors are produced at this layer; the public API re-exports it
// as gcx.ErrTooLarge.
var ErrTooLarge = errors.New("input exceeds a configured size limit")

// Splitter scans a concatenated stream of top-level XML documents and
// yields the bytes of each document in turn. It is the streaming front
// of the Concat source: one sequential pass over the input, no lookahead
// beyond the read window, and per-call memory bounded by the size of the
// single document being accumulated.
//
// The splitter does NOT validate documents — it only finds boundaries.
// It tracks exactly the XML surface structure needed to know when the
// root element of the current document closes: tags (with quoted
// attribute values, which may contain '>'), comments, processing
// instructions and XML declarations, CDATA sections (']]>' edges), and
// DOCTYPE/markup declarations (nested '<'/'>'). Anything malformed is
// passed through verbatim and left for the tokenizer of the evaluating
// engine to diagnose, so a bulk run reports the same per-document error
// a solo run would.
//
// Between documents, whitespace and UTF-8 byte-order marks are
// discarded; prologs (XML declarations, comments, PIs, DOCTYPE) are
// attributed to the FOLLOWING document. Trailing whitespace, comments,
// PIs and declarations after the last root element are discarded —
// which also means a stream whose final (or only) "document" is a
// prolog with no root yields no document for it: at EOF a bare prolog
// is indistinguishable from trailing misc, an inherent ambiguity of
// framing by content (archives and file lists frame externally and do
// not share it). A stream that ends mid-document — the root's start
// tag arrived — yields the truncated tail as a final document (its
// tokenization error then lands in that document's slot).
//
// The splitter reads through an xmlstream.Window and hops its structural
// index, as the tokenizer does, and shares its opaque-region scanners:
// hop walks character data to the next '<' and a tag to its closing '>',
// looks at nothing in between, and keeps the bytes it passed with one
// copy per window; at a '<' it reads the at most eight bytes that tell
// what opens there, and Window.Skip scans a comment, PI, CDATA section or
// declaration to its end, keeping its bytes as it goes.
type Splitter struct {
	// The read window, drawn from windows at the first read and returned
	// when the stream ends; err keeps the stream's end after that.
	*xmlstream.Window
	r   io.Reader
	err error
	max int64 // per-document byte cap (0 = unlimited)

	doc docScan // the document being framed

	// steppedInRoot counts the bytes after a "<!" inside a root element
	// that are compared one at a time to tell a comment or CDATA section
	// from a declaration — the only bytes the splitter takes one at a
	// time there (tests).
	steppedInRoot int64
}

// windows recycles windows across splitters: a bulk call frames its
// stream through one, and it outweighs everything else the call allocates.
var windows = sync.Pool{New: func() any { return new(xmlstream.Window) }}

// NewSplitter returns a splitter reading the concatenated stream from r.
func NewSplitter(r io.Reader) *Splitter {
	return &Splitter{r: r}
}

// SetMaxDocBytes caps single-document size. A document growing past the
// cap is scanned to its boundary (bytes discarded, memory stays bounded)
// and reported as a *DocTooLargeError, so an oversized member fails
// alone while its siblings evaluate normally.
func (s *Splitter) SetMaxDocBytes(n int64) { s.max = n }

// DocTooLargeError reports a document that exceeded a per-document byte
// cap. It is a per-document failure: the source it came from continues
// with the following documents.
type DocTooLargeError struct {
	Name  string
	Limit int64
}

func (e *DocTooLargeError) Error() string {
	return fmt.Sprintf("corpus: document %s exceeds the per-document limit of %d bytes", e.Name, e.Limit)
}

// Is makes every per-document size failure match the ErrTooLarge
// sentinel, so callers classify with errors.Is instead of string
// matching.
func (e *DocTooLargeError) Is(target error) bool { return target == ErrTooLarge }

// docScan is the framing state of one document.
type docScan struct {
	dst        []byte
	total      int64 // bytes of the document so far, kept or not
	discarding bool  // over the size cap: keep scanning, stop appending

	started  bool // first document byte kept
	rootSeen bool // a real element tag was completed
	sawJunk  bool // non-whitespace character data before any root
	depth    int  // open element depth
	markup   bool // the scan is inside markup, not character data

	// The tag the scan is in, resumed across a slide.
	tag       bool
	closeTag  bool // it is </...>
	quote     byte // its open attribute value's quote
	prevSlash bool // its last byte in an earlier window was '/'
}

// Next scans the next document and returns its bytes appended to
// dst[:0] (pass a recycled slice to avoid allocation). At the end of
// the stream it returns (nil, io.EOF). A *DocTooLargeError is
// per-document: the stream stays usable and the following call returns
// the next document. Any other error is terminal (the underlying reader
// failed; boundaries past the failure cannot be trusted).
func (s *Splitter) Next(dst []byte) ([]byte, error) {
	s.doc = docScan{dst: dst[:0]}
	for {
		if !s.fill() {
			return s.end()
		}
		if (s.doc.started || s.startsDoc()) && s.hop() {
			break
		}
	}
	if s.doc.discarding {
		return nil, &DocTooLargeError{Name: "<stream>", Limit: s.max}
	}
	return s.doc.dst, nil
}

// fill makes an unread byte available, drawing the window from the pool
// at the first read.
func (s *Splitter) fill() bool {
	if s.Window == nil {
		if s.err != nil {
			return false
		}
		s.Window = windows.Get().(*xmlstream.Window)
		s.Window.Reset(s.r)
	}
	return s.Pos < s.N || s.Slide()
}

// end is Next's result once the input is exhausted. The window goes back
// to the pool unless a further call can still need it.
func (s *Splitter) end() ([]byte, error) {
	if s.Window != nil {
		s.err = s.Err
	}
	d := &s.doc
	switch {
	case s.err != io.EOF:
		s.release()
		return nil, s.err
	case d.discarding:
		return nil, &DocTooLargeError{Name: "<stream>", Limit: s.max}
	case !d.started || (!d.rootSeen && !d.sawJunk && !d.markup):
		// Nothing, or only trailing misc (comments/PIs/decls and
		// whitespace): clean end of the corpus.
		s.release()
		return nil, io.EOF
	}
	// Truncated final document: hand it to the engine verbatim.
	return d.dst, nil
}

// release returns the window to the pool; the sticky s.err keeps every
// later call away from it.
func (s *Splitter) release() {
	if s.Window != nil {
		s.Window.Reset(nil)
		windows.Put(s.Window)
		s.Window = nil
	}
}

// Keep appends run to the document unless the size cap tripped, in which
// case the document is scanned but dropped. It is also how Window.Skip
// hands the splitter the bytes of an opaque region.
func (s *Splitter) Keep(run []byte) {
	d := &s.doc
	if d.discarding {
		return
	}
	d.total += int64(len(run))
	if s.max > 0 && d.total > s.max {
		d.discarding = true
		d.dst = d.dst[:0]
		return
	}
	d.dst = append(d.dst, run...)
}

// keepTo keeps the window's bytes from Pos up to i.
func (s *Splitter) keepTo(i int) {
	s.Keep(s.Buf[s.Pos:i])
	s.Pos = i
}

// startsDoc drops what separates documents — whitespace and UTF-8 BOMs,
// so a boundary like "</a>\n\xEF\xBB\xBF<?xml..." starts the next document
// at its prolog — and reports whether the document's first byte is at
// Pos.
func (s *Splitter) startsDoc() bool {
	for s.Pos < s.N {
		switch c := s.Buf[s.Pos]; {
		case xmlstream.IsSpace(c):
			s.Pos++
		case c == 0xEF && s.Ensure(3) && s.Buf[s.Pos+1] == 0xBB && s.Buf[s.Pos+2] == 0xBF:
			s.Pos += 3
		default:
			s.doc.started = true
			return true
		}
	}
	return false
}

// hop scans the document from Pos by structural-index candidates alone:
// in character data only '<' matters, in a tag only a quote or '>', in a
// value only its closing quote, and every other candidate costs one
// dispatch. It stops at the window's end or at the root's closing '>'
// (reported), and keeps what it passed in one copy; at a '<', markup
// reads what opens there.
func (s *Splitter) hop() (closed bool) {
	d := &s.doc
	run := s.Pos // character data not yet checked for junk
	for p := s.Pos; ; {
		i := s.Idx.Next(p)
		if i < 0 {
			if d.tag && d.quote == 0 {
				d.prevSlash = s.Buf[s.N-1] == '/'
			}
			if !d.tag && !d.rootSeen && !xmlstream.IsAllSpace(s.Buf[run:s.N]) {
				d.sawJunk = true
			}
			s.keepTo(s.N)
			return false
		}
		p = i + 1
		switch c := s.Buf[i]; {
		case d.quote != 0:
			if c == d.quote {
				d.quote = 0
			}
		case d.tag:
			switch c {
			case '"', '\'':
				d.quote = c
			case '>':
				// '/' only matters as the byte right before '>'.
				if i > 0 {
					d.prevSlash = s.Buf[i-1] == '/'
				}
				switch {
				case d.closeTag:
					d.depth--
				case d.prevSlash:
					// self-closing: depth unchanged
				default:
					d.depth++
				}
				d.tag, d.markup, d.rootSeen, run = false, false, true, p
				if d.depth <= 0 {
					s.keepTo(p)
					return true // root element closed: the document ends here
				}
			}
		case c == '<':
			if !d.rootSeen && !xmlstream.IsAllSpace(s.Buf[run:i]) {
				d.sawJunk = true
			}
			var ok bool
			if p, ok = s.markup(i); !ok {
				s.keepTo(s.N)
				return false
			}
			run = p
		}
	}
}

// markup reads what the '<' at i opens and returns where the hop
// resumes: past the byte after the '<' for a tag or for junk (a '<' the
// tokenizer would reject, passed as character data), past the construct
// for one read whole — a comment, PI, CDATA section or declaration, or
// an empty "<!>" or cut-off "<!->" passed as character data. ok is false
// where the input ends inside it.
func (s *Splitter) markup(i int) (next int, ok bool) {
	d := &s.doc
	d.markup = true
	b, i := s.ahead(i, 1)
	switch {
	case b < 0:
		return 0, false
	case b == '/' || xmlstream.IsNameStart(byte(b)):
		d.tag, d.closeTag = true, b == '/'
		return i + 2, true
	case b == '?':
		return s.skip(i+2, xmlstream.PI)
	case b != '!':
		d.markup = false
		d.sawJunk = d.sawJunk || !d.rootSeen
		return i + 2, true
	}
	lit, kind := "<!--", byte(xmlstream.Comment)
	switch b, i = s.ahead(i, 2); b {
	case -1:
		return 0, false
	case '>':
		d.markup = false
		return i + 3, true
	case '[':
		lit, kind = "<![CDATA[", xmlstream.CDATA
	case '-':
	default:
		return s.skip(i+3, xmlstream.Decl)
	}
	for k := 3; k < len(lit); k++ {
		switch b, i = s.ahead(i, k); {
		case b < 0:
			return 0, false
		case b == int(lit[k]):
		case b == '>':
			d.markup = false
			return i + k + 1, true
		default:
			return s.skip(i+k+1, xmlstream.Decl)
		}
	}
	return s.skip(i+len(lit), kind)
}

// ahead returns the byte k places after the '<' at i, or -1 where the
// input ends first, and where the '<' is: the window grows, keeping the
// '<', when the byte lies past its end.
func (s *Splitter) ahead(i, k int) (int, int) {
	if i+k >= s.N {
		s.keepTo(i)
		s.Ensure(k + 1)
		if i = s.Pos; i+k >= s.N {
			return -1, i
		}
	}
	if k >= 2 && s.doc.rootSeen {
		s.steppedInRoot++
	}
	return int(s.Buf[i+k]), i
}

// skip keeps the opener before from and scans the opaque region of the
// given kind behind it, keeping its bytes.
func (s *Splitter) skip(from int, kind byte) (int, bool) {
	s.keepTo(from)
	if !s.Skip(kind, s) {
		return 0, false
	}
	s.doc.markup = false
	return s.Pos, true
}
