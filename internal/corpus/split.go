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
// beyond the read buffer, and per-call memory bounded by the size of the
// single document being accumulated.
//
// The splitter does NOT validate documents — it only finds boundaries.
// It tracks exactly the XML surface structure needed to know when the
// root element of the current document closes: tags (with quoted
// attribute values, which may contain '>'), comments, processing
// instructions and XML declarations, CDATA sections (']]>' edges), and
// DOCTYPE/markup declarations (nested '<'/'>', mirroring the
// tokenizer's declaration skipping). Anything malformed is passed
// through verbatim and left for the tokenizer of the evaluating engine
// to diagnose, so a bulk run reports the same per-document error a solo
// run would.
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
// Two scanners share the work. Element structure — character data inside
// the root, and every tag — is hopped: hop walks the window's structural
// index (xmlstream.StructIndex) from '<' to the tag's closing '>' and on
// to the next '<', looks at nothing in between, and keeps the bytes it
// passed with one copy per window. Everything else — what precedes the
// root, comments, PIs, CDATA, DOCTYPE, and the byte after a '<' that ends
// a window — is stepped a byte at a time through the state machine in
// step: the terminators of those regions ('-', '?', ']') are not
// structural bytes, so the index cannot hop them.
type Splitter struct {
	r   io.Reader
	pos int
	n   int
	err error // sticky read error (io.EOF included)
	max int64 // per-document byte cap (0 = unlimited)

	// The read window and the structural index over buf[:n], rebuilt
	// whenever the window refills or is compacted. Both are drawn from
	// splitWindows at the first read and returned when the stream ends.
	*splitWindow

	doc docScan // the document being framed

	// steppedInRoot counts the bytes step took after a root element
	// opened: what a document without comments, PIs or CDATA leaves for
	// the state machine (tests).
	steppedInRoot int64
}

// splitWindow is a splitter's read window with its structural index.
type splitWindow struct {
	buf []byte
	idx xmlstream.StructIndex
}

// Reset drops the classified range, so a pooled window starts its next
// stream with an empty index.
//
//gcxlint:keep buf the window's bytes are overwritten by the first read, before anything looks at them
func (w *splitWindow) Reset() { w.idx.Reset() }

// splitWindows recycles windows across splitters: a bulk call frames its
// stream through one, and it outweighs everything else the call allocates.
var splitWindows = sync.Pool{New: func() any { return &splitWindow{buf: make([]byte, 64<<10)} }}

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

// splitter scan states.
const (
	spText        = iota // character data (inside or outside the root)
	spLT                 // just consumed '<'
	spBang               // "<!"
	spBangSeq            // matching the tail of "<!--" or "<![CDATA["
	spComment            // inside a comment, matching "-->"
	spPI                 // inside a PI / XML declaration, matching "?>"
	spCDATA              // inside CDATA, matching "]]>"
	spDecl               // inside a DOCTYPE/markup declaration, depth-counted
	spDeclQuote          // inside a quoted literal of a declaration
	spDeclComment        // inside a comment within an internal subset
	spDeclPI             // inside a PI within an internal subset
	spTag                // inside a start or end tag
	spTagQuote           // inside a quoted attribute value
)

var (
	seqComment = "-"      // after "<!-": one more '-' completes "<!--"
	seqCDATA   = "CDATA[" // after "<![": the rest of "<![CDATA["
)

// docScan is the framing state of one document.
type docScan struct {
	dst        []byte
	total      int64 // bytes of the document so far, kept or not
	discarding bool  // over the size cap: keep scanning, stop appending

	state         int
	started       bool   // first document byte kept
	rootSeen      bool   // a real element tag was completed
	sawJunk       bool   // non-whitespace character data before any root
	depth         int    // open element depth
	closeTag      bool   // current tag is </...>
	prevSlash     bool   // the tag's last byte in an earlier window was '/'
	quote         byte   // active attribute or literal quote
	seq           string // spBangSeq target
	seqPos        int
	commentDashes int  // consecutive '-' seen in a comment
	piQuestion    bool // last PI byte was '?'
	cdataBrackets int  // consecutive ']' seen in spCDATA
	declDepth     int
	declPfx       int // progress through "<!--" inside a declaration
}

// Next scans the next document and returns its bytes appended to
// dst[:0] (pass a recycled slice to avoid allocation). At the end of
// the stream it returns (nil, io.EOF). A *DocTooLargeError is
// per-document: the stream stays usable and the following call returns
// the next document. Any other error is terminal (the underlying reader
// failed; boundaries past the failure cannot be trusted).
func (s *Splitter) Next(dst []byte) ([]byte, error) {
	s.doc = docScan{dst: dst[:0]}
	d := &s.doc
	for closed := false; !closed; {
		if s.pos >= s.n {
			if d.state == spTag && s.n > 0 {
				// A self-closing tag's '/' may be the window's last byte
				// and its '>' the next one's first.
				d.prevSlash = s.buf[s.n-1] == '/'
			}
			if !s.fill() {
				return s.end()
			}
		}
		if d.state == spTag || d.state == spTagQuote || d.state == spText && d.rootSeen {
			closed = s.hop()
			continue
		}
		if !d.started && !s.startsDoc() {
			continue
		}
		if d.rootSeen {
			s.steppedInRoot++
		}
		s.pos++
		s.keep(s.buf[s.pos-1 : s.pos])
		s.step(s.buf[s.pos-1])
	}
	if d.discarding {
		return nil, &DocTooLargeError{Name: "<stream>", Limit: s.max}
	}
	return d.dst, nil
}

// end is Next's result once the input is exhausted. The window goes back
// to the pool unless a further call can still need it.
func (s *Splitter) end() ([]byte, error) {
	d := &s.doc
	switch {
	case s.err != io.EOF:
		s.release()
		return nil, s.err
	case d.discarding:
		return nil, &DocTooLargeError{Name: "<stream>", Limit: s.max}
	case !d.started || (!d.rootSeen && !d.sawJunk && d.state == spText):
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
	if s.splitWindow != nil {
		s.splitWindow.Reset()
		splitWindows.Put(s.splitWindow)
		s.splitWindow = nil
	}
	s.pos, s.n = 0, 0
}

// keep appends run to the document unless the size cap tripped, in which
// case the document is scanned but dropped.
func (s *Splitter) keep(run []byte) {
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

// startsDoc reports whether the byte at s.pos is the document's first.
// What separates documents is dropped instead: whitespace and UTF-8 BOMs,
// so a boundary like "</a>\n\xEF\xBB\xBF<?xml..." starts the next document
// at its prolog.
func (s *Splitter) startsDoc() bool {
	c := s.buf[s.pos]
	if isSpaceByte(c) {
		s.pos++
		return false
	}
	if c == 0xEF && s.skipBOM() {
		return false
	}
	s.doc.started = true
	return true
}

// hop advances through the window while the scan is in element structure
// — character data of the open root, a tag, a quoted attribute value —
// by structural-index candidates alone: in character data only '<'
// matters, in a tag only a quote or '>', in a value only its closing
// quote, and every other candidate costs one dispatch. It stops at the
// window's end, at the root's closing '>' (reported), or where markup
// opens that the state machine must read ("<!", "<?"), and keeps
// everything it passed in one copy.
func (s *Splitter) hop() (closed bool) {
	d := &s.doc
	buf := s.buf[:s.n]
	p := s.pos
scan:
	for {
		i := s.idx.Next(p)
		if i < 0 {
			p = len(buf)
			break
		}
		p = i + 1
		c := buf[i]
		switch d.state {
		case spText:
			if c != '<' {
				continue
			}
			if p == len(buf) {
				d.state = spLT // the byte that tells what opens is in the next window
				break scan
			}
			p++
			if d.afterLT(buf[i+1]); d.state != spText && d.state != spTag {
				break scan
			}
		case spTagQuote:
			if c == d.quote {
				d.state = spTag
			}
		case spTag:
			switch c {
			case '"', '\'':
				d.state, d.quote = spTagQuote, c
			case '>':
				// '/' only matters as the byte right before '>'.
				if i > 0 {
					d.prevSlash = buf[i-1] == '/'
				}
				switch {
				case d.closeTag:
					d.depth--
				case d.prevSlash:
					// self-closing: depth unchanged
				default:
					d.depth++
				}
				d.state, d.rootSeen = spText, true
				if d.depth <= 0 {
					closed = true // root element closed: the document ends here
					break scan
				}
			}
		}
	}
	s.keep(buf[s.pos:p])
	s.pos = p
	return closed
}

// afterLT moves the scan past the byte that follows a '<'.
func (d *docScan) afterLT(c byte) {
	switch {
	case c == '!':
		d.state = spBang
	case c == '?':
		d.state, d.piQuestion = spPI, false
	case c == '/':
		d.state, d.closeTag = spTag, true
	case isNameStartByte(c):
		d.state, d.closeTag = spTag, false
	default:
		// "<" followed by junk: not markup the tokenizer would
		// accept; treat as text and let the engine report it.
		d.state = spText
		if !d.rootSeen {
			d.sawJunk = true
		}
	}
}

// step is the state machine for everything hop does not scan, one byte
// (already kept) at a time.
func (s *Splitter) step(c byte) {
	d := &s.doc
	switch d.state {
	case spText:
		// Pre-root character data: per-byte so junk (which the engine
		// must see and reject) is never silently dropped as trailing
		// whitespace.
		if c == '<' {
			d.state = spLT
		} else if !d.rootSeen && !isSpaceByte(c) {
			d.sawJunk = true
		}
	case spLT:
		d.afterLT(c)
	case spBang:
		switch c {
		case '-':
			d.state, d.seq, d.seqPos = spBangSeq, seqComment, 0
		case '[':
			d.state, d.seq, d.seqPos = spBangSeq, seqCDATA, 0
		case '>':
			d.state = spText // empty declaration "<!>"
		default:
			d.state, d.declDepth, d.declPfx = spDecl, 1, 0
		}
	case spBangSeq:
		switch {
		case c == d.seq[d.seqPos]:
			d.seqPos++
			if d.seqPos == len(d.seq) {
				if d.seq == seqComment {
					d.state, d.commentDashes = spComment, 0
				} else {
					d.state, d.cdataBrackets = spCDATA, 0
				}
			}
		case c == '>':
			d.state = spText // malformed ("<!->"); engine will complain
		default:
			// Not a comment or CDATA after all: scan as declaration.
			d.state, d.declDepth, d.declPfx = spDecl, 1, 0
		}
	case spComment, spDeclComment:
		switch {
		case c == '-':
			d.commentDashes++
		case c == '>' && d.commentDashes >= 2:
			d.state = after(d.state)
		default:
			d.commentDashes = 0
		}
	case spPI, spDeclPI:
		if c == '>' && d.piQuestion {
			d.state = after(d.state)
		} else {
			d.piQuestion = c == '?'
		}
	case spCDATA:
		switch {
		case c == ']':
			d.cdataBrackets++
		case c == '>' && d.cdataBrackets >= 2:
			d.state = spText
		default:
			d.cdataBrackets = 0
		}
	case spDecl:
		// Quoted literals, comments, and PIs inside a DOCTYPE
		// internal subset may legally contain '<', '>', and quote
		// characters; all three are opaque to the nesting count
		// (mirrors the tokenizer's declaration skipping). declPfx
		// tracks progress through "<!--" (1='<', 2='<!', 3='<!-').
		switch {
		case d.declPfx == 1 && c == '?':
			d.declPfx = 0
			d.declDepth-- // undo the '<' that started the PI
			d.state, d.piQuestion = spDeclPI, false
		case d.declPfx == 3 && c == '-':
			d.declPfx = 0
			d.declDepth-- // undo the '<' that started the comment
			d.state, d.commentDashes = spDeclComment, 0
		default:
			switch {
			case c == '<':
				d.declPfx = 1
			case d.declPfx == 1 && c == '!':
				d.declPfx = 2
			case d.declPfx == 2 && c == '-':
				d.declPfx = 3
			default:
				d.declPfx = 0
			}
			switch c {
			case '"', '\'':
				d.state, d.quote = spDeclQuote, c
			case '<':
				d.declDepth++
			case '>':
				d.declDepth--
				if d.declDepth == 0 {
					d.state = spText
				}
			}
		}
	case spDeclQuote:
		if c == d.quote {
			d.state = spDecl
		}
	}
}

// after is the state a comment or PI returns to when it closes: character
// data, or the declaration whose internal subset it sits in.
func after(state int) int {
	if state == spDeclComment || state == spDeclPI {
		return spDecl
	}
	return spText
}

// skipBOM consumes a UTF-8 BOM if the next three bytes are EF BB BF.
// Called with s.buf[s.pos] == 0xEF.
func (s *Splitter) skipBOM() bool {
	// Make three bytes visible (compact + refill at the buffer edge).
	for s.n-s.pos < 3 {
		if !s.fillMore() {
			return false
		}
	}
	if s.buf[s.pos+1] == 0xBB && s.buf[s.pos+2] == 0xBF {
		s.pos += 3
		return true
	}
	return false
}

// fill makes at least one unread byte available.
func (s *Splitter) fill() bool {
	if s.pos < s.n {
		return true
	}
	if s.err != nil {
		return false
	}
	if s.splitWindow == nil {
		s.splitWindow = splitWindows.Get().(*splitWindow)
	}
	s.pos, s.n = 0, 0
	for {
		n, err := s.r.Read(s.buf)
		if n > 0 {
			s.n = n
			if err != nil {
				s.err = err
			}
			s.idx.Build(s.buf[:s.n])
			return true
		}
		if err != nil {
			s.err = err
			return false
		}
	}
}

// fillMore grows the unread window without consuming, for multi-byte
// lookahead at the buffer edge. Like fill, it retries the legal
// (0, nil) read until bytes arrive or the stream ends.
func (s *Splitter) fillMore() bool {
	if s.err != nil {
		return false
	}
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.n])
		s.n -= s.pos
		s.pos = 0
	}
	if s.n == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for {
		n, err := s.r.Read(s.buf[s.n:])
		s.n += n
		if err != nil {
			s.err = err
		}
		if n > 0 {
			// The compaction above shifted the window, so absolute index
			// positions are stale either way: rebuild.
			s.idx.Build(s.buf[:s.n])
			return true
		}
		if err != nil {
			return false
		}
	}
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameStartByte(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}
