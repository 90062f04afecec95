package xmlstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// SyntaxError reports malformed XML input with a byte offset.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlstream: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// Options configures a Tokenizer. Three behaviours are fixed, not options:
// each attribute name="value" on an opening tag is reported as a leading
// child element <name>value</name> (the paper's attribute adaptation,
// Sections 2 and 7); whitespace-only character data is dropped (as the
// paper's example streams are written); and every "\r\n" and lone '\r'
// of character data, CDATA and attribute values reaches the token as
// '\n' (XML 1.0 §2.11), while a '\r' a character reference writes stays.
// Attribute values are not whitespace-normalized (§3.3.3), as
// encoding/xml does not do it either.
type Options struct {
	// BorrowText, when true, makes the Data of Text tokens a view into
	// the tokenizer's scratch buffers instead of a fresh allocation. The
	// view is valid only until the pending tokens queued by the producing
	// tag have been drained (for character data: until the next call to
	// Next). Consumers that retain text must copy it; the engine's
	// projector does so only for tokens it actually buffers, which makes
	// steady-state tokenization of discarded regions allocation-free.
	BorrowText bool
}

// DefaultOptions returns the zero configuration, in which every Text
// token owns its Data. The engine does not run with it as is: it sets
// BorrowText.
func DefaultOptions() Options {
	return Options{}
}

// Tokenizer reads an XML document from an io.Reader and produces a stream of
// Tokens. It supports the subset of XML needed for the engine: elements,
// attributes (converted to subelements), character data, CDATA sections,
// comments, processing instructions, and an optional XML declaration and
// DOCTYPE (skipped). Namespaces are not interpreted; qualified names are
// treated as plain tag names. Which bytes form a name is IsNameStart and
// IsNameByte, the grammar every parser of the module shares.
//
// Tag and attribute names are interned into a SymTab as Next reads them,
// so each start and end token carries its Sym, the tag's only identity
// past the tokenizer. The projector points the tokenizer at its buffer's
// table (SetSymTab); a bare tokenizer makes its own on first use.
//
// SkipContent (skip.go) reads on through an open element's content
// without building its tokens: it counts them by Next's rules, checks
// what Next checks, and interns no name. The projector reads a subtree no
// projection path reaches with it, and Next reads the rest.
//
// Well-formedness of tag nesting is checked; the tokenizer returns a
// *SyntaxError on mismatched or unclosed tags.
//
// The scanner has one mechanism: it hops the structural index of its
// Window (window.go, structidx.go). A text run hops to its '<' across
// slides and entities; a tag is parsed inside the window, which grows to
// hold it when it reaches the window end; comments, PIs, CDATA sections
// and declarations are skipped by Window.Skip, which the corpus splitter
// calls too. The package's tests hold it to a per-byte scanner of their
// own (reference_test.go): both must produce byte-identical token
// streams, errors and error offsets (see DESIGN.md, "Chunked scanning"
// and "Structural index").
type Tokenizer struct {
	Window
	opts   Options
	closed bool

	tok Token // the token scan writes in place, which Next lends
	// pending tokens produced by attribute expansion or self-closing
	// tags. pendHead is the read cursor: delivery advances the head
	// instead of shifting the slice, so draining is copy-free.
	pending  []Token
	pendHead int
	stack    []Sym // the name of each open element, for well-formedness checking
	rootSeen bool  // a root element has been produced (rejects forests)

	textBuf []byte // character data that left the window: runs across a slide or an entity, CDATA
	attrBuf []byte // the current tag's attribute values that hold an entity

	// syms interns tag and attribute names: documents use few distinct
	// names, so steady-state tokenizing allocates only for character data.
	syms *SymTab

	arena nameArena // the elements SkipContent opened that are still open (skip.go)
	owed  int64     // tokens of a tag SkipContent read that it has yet to count
}

// NewTokenizerOptions returns a tokenizer with explicit options. A nil
// reader is permitted if Reset is called before the first Next.
func NewTokenizerOptions(r io.Reader, opts Options) *Tokenizer {
	return &Tokenizer{
		Window: Window{Buf: make([]byte, windowSize), r: r},
		opts:   opts,
	}
}

// SetSymTab makes the tokenizer intern names into s; call it between
// documents. The projector shares its buffer's table this way, so a
// token's Sym is the one the buffer stores.
func (t *Tokenizer) SetSymTab(s *SymTab) { t.syms = s }

// Reset rewinds the tokenizer to read a fresh document from r, keeping
// its internal buffers and clearing or truncating them so no bytes of the
// previous document remain reachable. A reset tokenizer behaves exactly
// like a newly constructed one (with the same Options), which makes it a
// pooled, allocation-free serving artifact: after warm-up, tokenizing a
// document allocates only for retained text. The symbol table keeps its
// names (tag vocabularies repeat), so a Sym stays valid with its table.
//
//gcxlint:keep opts the mode is part of the tokenizer's identity; Reset swaps documents, not configuration
//gcxlint:keep syms the table is shared with the buffer and keeps its names across documents
func (t *Tokenizer) Reset(r io.Reader) {
	t.Window.Reset(r)
	t.closed = false
	t.tok = Token{}
	clear(t.pending[:cap(t.pending)])
	t.pending = t.pending[:0]
	t.pendHead = 0
	clear(t.stack[:cap(t.stack)])
	t.stack = t.stack[:0]
	t.rootSeen = false
	t.arena.depth = 0
	t.owed = 0
	t.textBuf = t.textBuf[:0]
	t.attrBuf = t.attrBuf[:0]
}

// Retained reports the bytes Reset keeps of what runs grew: the token
// queue, element stack and scratch, and the symbol table.
//
//gcxlint:noalloc
func (t *Tokenizer) Retained() int64 {
	n := int64(cap(t.pending))*int64(unsafe.Sizeof(Token{})) + int64(cap(t.stack))*int64(unsafe.Sizeof(Sym(0))) + int64(cap(t.textBuf)+cap(t.attrBuf))
	if t.syms != nil {
		n += t.syms.Retained()
	}
	return n
}

var errUnexpectedEOF = errors.New("unexpected end of input")

// syntaxErr reports msg at the window position at.
//
//gcxlint:allocok error construction terminates the scan
func (t *Tokenizer) syntaxErr(at int, msg string) error {
	return &SyntaxError{Offset: t.Off + int64(at), Msg: msg}
}

// intern returns the symbol of the name bytes b, allocating only for a
// name the table has not seen.
//
//gcxlint:noalloc
func (t *Tokenizer) intern(b []byte) Sym {
	if t.syms == nil {
		t.syms = NewSymTab() //gcxlint:allocok a bare tokenizer's own table, made once
	}
	return t.syms.lookup(borrowString(b), true)
}

// maxEntity is how far past an '&' the tokenizer looks for the ';' of
// an entity reference: a name of at most 11 bytes and the ';'. Reference
// reports a longer name as "too long" at the twelfth byte.
const maxEntity = 12

// entity appends to dst the expansion of the entity reference whose name
// starts at i, just past its '&', and returns the position past its ';'.
// A reference the window end cuts grows the window, keeping Buf[Pos:],
// by at most maxEntity bytes.
//
//gcxlint:noalloc
func (t *Tokenizer) entity(dst []byte, i int) ([]byte, int, error) {
	semi := indexSemi(t.Buf[i:min(i+maxEntity, t.N)])
	if semi < 0 && i+maxEntity > t.N && t.Err == nil {
		rel := i - t.Pos
		t.Ensure(rel + maxEntity)
		i = t.Pos + rel
		semi = indexSemi(t.Buf[i:min(i+maxEntity, t.N)])
	}
	switch {
	case semi < 0 && i+maxEntity > t.N:
		return dst, 0, errUnexpectedEOF
	case semi < 0:
		return dst, 0, t.syntaxErr(i+maxEntity, "entity reference too long")
	}
	name, next := t.Buf[i:i+semi], i+semi+1
	// The conversion in switch-tag position is elided by the compiler, so
	// named entities resolve without allocating; only the error paths
	// build a string from the window.
	switch string(name) {
	case "amp":
		return append(dst, '&'), next, nil
	case "lt":
		return append(dst, '<'), next, nil
	case "gt":
		return append(dst, '>'), next, nil
	case "apos":
		return append(dst, '\''), next, nil
	case "quot":
		return append(dst, '"'), next, nil
	}
	if len(name) > 0 && name[0] == '#' {
		numeric := name[1:]
		base := uint32(10)
		if len(numeric) > 0 && (numeric[0] == 'x' || numeric[0] == 'X') {
			numeric, base = numeric[1:], 16
		}
		n, ok := parseCharRef(numeric, base)
		if !ok || !isXMLChar(rune(n)) {
			return dst, 0, t.syntaxErr(next, "bad character reference &"+string(name)+";") //gcxlint:allocok error construction terminates the scan
		}
		return appendRune(dst, rune(n)), next, nil
	}
	return dst, 0, t.syntaxErr(next, "unknown entity &"+string(name)+";") //gcxlint:allocok error construction terminates the scan
}

//gcxlint:noalloc
func indexSemi(b []byte) int {
	for k, c := range b {
		if c == ';' {
			return k
		}
	}
	return -1
}

// parseCharRef parses the digits of a numeric character reference without
// a string conversion (entity resolution sits on the text path). Values
// above the XML character space saturate to an out-of-range code point,
// which the caller rejects through isXMLChar.
//
//gcxlint:noalloc
func parseCharRef(digits []byte, base uint32) (uint32, bool) {
	if len(digits) == 0 {
		return 0, false
	}
	var n uint32
	for _, c := range digits {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		if n = n*base + d; n > 0x10FFFF {
			n = 0x110000
		}
	}
	return n, true
}

// isXMLChar reports whether r is in the XML 1.0 Char production:
// #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF].
// Character references outside it (NUL, surrogates, #xFFFE/#xFFFF, values
// above #x10FFFF) are not XML characters and must be rejected.
//
//gcxlint:noalloc
func isXMLChar(r rune) bool {
	switch {
	case r == 0x9 || r == 0xA || r == 0xD:
		return true
	case r >= 0x20 && r <= 0xD7FF:
		return true
	case r >= 0xE000 && r <= 0xFFFD:
		return true
	case r >= 0x10000 && r <= 0x10FFFF:
		return true
	}
	return false
}

// borrowString returns b's bytes as a string without copying. Callers must
// not read the string after the backing scratch buffer is rewound — this is
// the BorrowText contract documented on Options.
//
//gcxlint:noalloc
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// view converts window or scratch bytes to the string of a token: a
// borrowed view under BorrowText, an owned copy otherwise.
//
//gcxlint:noalloc
func (t *Tokenizer) view(b []byte) string {
	if t.opts.BorrowText {
		return borrowString(b)
	}
	return string(b) //gcxlint:allocok owned-copy mode is for callers that retain text
}

//gcxlint:noalloc
func appendRune(dst []byte, r rune) []byte {
	var tmp [4]byte
	n := encodeRune(tmp[:], r)
	return append(dst, tmp[:n]...)
}

// encodeRune is a minimal UTF-8 encoder (avoids importing unicode/utf8 in
// the hot path file; behaviour matches utf8.EncodeRune for valid runes).
//
//gcxlint:noalloc
func encodeRune(p []byte, r rune) int {
	switch {
	case r < 0x80:
		p[0] = byte(r)
		return 1
	case r < 0x800:
		p[0] = 0xC0 | byte(r>>6)
		p[1] = 0x80 | byte(r)&0x3F
		return 2
	case r < 0x10000:
		p[0] = 0xE0 | byte(r>>12)
		p[1] = 0x80 | byte(r>>6)&0x3F
		p[2] = 0x80 | byte(r)&0x3F
		return 3
	default:
		p[0] = 0xF0 | byte(r>>18)
		p[1] = 0x80 | byte(r>>12)&0x3F
		p[2] = 0x80 | byte(r>>6)&0x3F
		p[3] = 0x80 | byte(r)&0x3F
		return 4
	}
}

// Next returns the next token in the stream. At end of input it returns a
// token with Kind == EOF and a nil error; subsequent calls keep returning
// EOF. A non-nil error, with a nil token, indicates malformed input or a
// read failure; read failures take precedence over the syntax confusion
// they cause. The token is the tokenizer's own slot, written in place, or
// a slot of the pending queue: like the Data BorrowText lends, it is valid
// until the next call to Next, so a caller that keeps it copies it (*tk).
func (t *Tokenizer) Next() (*Token, error) {
	// Queued tokens (attribute expansion, self-closing end tags) drain by
	// advancing the head cursor — no shifting and no truncation here:
	// producers rewind the drained queue before appending, which keeps
	// this function under the inlining budget so a pop is a few loads in
	// the caller's frame.
	if h := t.pendHead; h < len(t.pending) {
		t.pendHead = h + 1
		return &t.pending[h], nil
	}
	return t.scan()
}

// errOr applies the read-error precedence rule at scan's error returns:
// a read failure takes precedence over the syntax confusion it causes.
//
//gcxlint:noalloc
func (t *Tokenizer) errOr(err error) error {
	if t.Err != nil && t.Err != io.EOF {
		return t.Err
	}
	return err
}

// scan reads the next token into t.tok.
func (t *Tokenizer) scan() (*Token, error) {
	if t.arena.depth > 0 {
		t.openArena()
	}
	for !t.closed {
		if t.Pos == t.N && !t.Slide() {
			if t.Err != io.EOF {
				return nil, t.Err
			}
			if len(t.stack) > 0 {
				return nil, t.syntaxErr(t.Pos, "unexpected end of input: unclosed element <"+t.syms.names[t.stack[len(t.stack)-1]]+">")
			}
			t.closed = true
			break
		}
		var (
			ok  bool
			err error
		)
		if t.Buf[t.Pos] != '<' {
			ok, err = t.readText()
		} else if t.Pos++; t.Pos == t.N && !t.Slide() {
			err = errUnexpectedEOF
		} else {
			switch t.Buf[t.Pos] {
			case '/':
				t.Pos++
				err = t.endTag()
				ok = true
			case '?':
				t.Pos++
				err = t.skip(PI, "unterminated processing instruction")
			case '!':
				ok, err = t.bang(true)
			default:
				// A start tag the window end cuts is parsed again once
				// growTag has made the window hold it: at most two
				// parses, whatever the read sizes.
				if err, ok = t.openTag(false); !ok {
					t.growTag(0, true)
					err, _ = t.openTag(true)
				}
				ok = true
			}
		}
		if err != nil {
			t.pending = t.pending[:0] // attribute tokens of a tag openTag rejected
			return nil, t.errOr(err)
		}
		if ok {
			return &t.tok, nil
		}
	}
	t.tok = Token{Kind: EOF}
	return &t.tok, nil
}

// readText consumes character data up to the next '<' and reports whether a
// Text token was produced (whitespace-only runs are suppressed). One
// maximal run yields at most one Text token, exactly like Reference.
//
// The run is walked by hopping structural-index candidates; quote and
// '>' candidates are plain character data and cost one dispatch each.
// No candidate before the window end means the run continues past the
// slide: the window tail goes to textBuf (the slide overwrites the
// window) and the hop resumes in the new window. An '&' moves the run so
// far to textBuf too, and the entity's expansion follows it. At the '<'
// that ends the run, a run that never left the window, held no entity
// and holds no '\r' is emitted as the window subslice itself — under
// BorrowText, zero copies — and any other run as textBuf, whose line
// ends appendEOL normalizes as it copies the input's bytes.
//
//gcxlint:noalloc
func (t *Tokenizer) readText() (bool, error) {
	t.textBuf = t.textBuf[:0]
	inBuf := false // the run so far is in textBuf, not the window
	ws := true     // the bytes in textBuf are all whitespace
	cr := false    // the last input byte copied to textBuf was a '\r'
	for p := t.Pos; ; {
		i := t.Idx.Next(p)
		if i < 0 {
			tail := t.Buf[t.Pos:t.N]
			ws = ws && IsAllSpace(tail)
			t.textBuf, cr = appendEOL(t.textBuf, tail, cr)
			inBuf = true
			t.Pos = t.N
			if !t.Slide() {
				return t.emitText(t.textBuf, ws) // the input ends the run
			}
			p = t.Pos
			continue
		}
		switch t.Buf[i] {
		case '<':
			run := t.Buf[t.Pos:i]
			t.Pos = i
			ws = ws && IsAllSpace(run)
			if !inBuf && (ws || !t.cr || bytes.IndexByte(run, '\r') < 0) {
				return t.emitText(run, ws)
			}
			t.textBuf, _ = appendEOL(t.textBuf, run, cr)
			return t.emitText(t.textBuf, ws)
		case '&':
			t.textBuf, _ = appendEOL(t.textBuf, t.Buf[t.Pos:i], cr)
			inBuf, ws, cr = true, false, false
			t.Pos = i + 1
			var err error
			if t.textBuf, t.Pos, err = t.entity(t.textBuf, t.Pos); err != nil {
				return false, err
			}
			p = t.Pos
		default:
			p = i + 1 // '"', '\'', '>' are character data
		}
	}
}

// emitText applies the suppression rules to a finished run and writes it
// to t.tok as a Text token: a borrowed view under BorrowText (of the
// window or of textBuf — both live until the next Next call), an owned
// copy otherwise. An empty run counts as whitespace-only.
//
//gcxlint:noalloc
func (t *Tokenizer) emitText(data []byte, whitespaceOnly bool) (bool, error) {
	if whitespaceOnly {
		return false, nil
	}
	if len(t.stack) == 0 {
		return false, t.syntaxErr(t.Pos, "character data outside the root element")
	}
	t.tok = Token{Kind: Text, Data: t.view(data)}
	return true, nil
}

// appendEOL appends src, bytes of the input, to dst with XML's end-of-line
// handling (§2.11): "\r\n" and a lone '\r' become '\n'. cr says that the
// input byte before src, already appended, was a '\r', whose '\n' may
// start src; the result says whether src ends in a '\r'. An entity's
// expansion is not input: after one, cr is false.
//
//gcxlint:noalloc
func appendEOL(dst, src []byte, cr bool) ([]byte, bool) {
	if len(src) == 0 {
		return dst, cr
	}
	if cr && src[0] == '\n' {
		src = src[1:]
	}
	for {
		i := bytes.IndexByte(src, '\r')
		if i < 0 {
			return append(dst, src...), false
		}
		dst = append(append(dst, src[:i]...), '\n')
		if src = src[i+1:]; len(src) == 0 {
			return dst, true
		}
		if src[0] == '\n' {
			src = src[1:]
		}
	}
}

// openTag parses the start tag whose name starts at Pos inside the
// window into t.tok, with Reference's errors at Reference's offsets, queueing its
// attribute subelements and, if it closes itself, its end. Names, spaces
// and '=' are checked byte by byte; a value is hopped on the index to
// its closing quote, and borrows the window under BorrowText unless it
// holds an entity or a '\r', which move it to attrBuf. Attribute tokens
// are appended to the pending queue as they parse; the queue is empty on
// entry — a new tag is only parsed once it drains — and scan truncates
// it on an error.
//
// Where the tag reaches the window end and more input follows, openTag
// reports ok=false with nothing committed, unless grown: after growTag
// the window holds the tag through the byte that ends it, so the window
// end is the input's end, and an entity may still grow the window —
// only on its way to an error.
//
//gcxlint:noalloc
func (t *Tokenizer) openTag(grown bool) (_ error, ok bool) {
	buf, n, i := t.Buf, t.N, t.Pos
	more := !grown && t.Err == nil // the window end is not the input's
	if !IsNameStart(buf[i]) {
		return t.syntaxErr(i, fmt.Sprintf("expected name, found %q", buf[i])), true //gcxlint:allocok error construction terminates the scan
	}
	j := i + 1
	for j < n && IsNameByte(buf[j]) {
		j++
	}
	if j == n && more {
		return nil, false
	}
	sym := t.intern(buf[i:j])
	if len(t.stack) == 0 && t.rootSeen {
		return t.syntaxErr(j, "multiple root elements: <"+t.syms.names[sym]+">"), true
	}
	// The pending queue is fully drained before a new tag is parsed
	// (head == len); rewind it so the tag's tokens start at slot 0.
	t.pending = t.pending[:0]
	t.pendHead = 0
	t.attrBuf = t.attrBuf[:0]
	for i = j; ; {
		for i < n && IsSpace(buf[i]) {
			i++
		}
		if i == n && more {
			return nil, false
		} else if i == n {
			return errUnexpectedEOF, true
		}
		c := buf[i]
		if c == '>' || c == '/' {
			if c == '/' {
				switch i++; {
				case i == n && more:
					return nil, false
				case i == n:
					return t.syntaxErr(n, "malformed self-closing tag <"+t.syms.names[sym]), true
				case buf[i] != '>':
					return t.syntaxErr(i+1, "malformed self-closing tag <"+t.syms.names[sym]), true
				}
				t.pending = append(t.pending, Token{Kind: EndElement, Sym: sym})
			} else {
				t.stack = append(t.stack, sym)
			}
			t.Pos = i + 1
			t.rootSeen = true
			t.tok = Token{Kind: StartElement, Sym: sym}
			return nil, true
		}
		if !IsNameStart(c) {
			return t.syntaxErr(i, fmt.Sprintf("expected name, found %q", c)), true //gcxlint:allocok error construction terminates the scan
		}
		for j = i + 1; j < n && IsNameByte(buf[j]); j++ {
		}
		asym := t.intern(buf[i:j])
		for j < n && IsSpace(buf[j]) {
			j++
		}
		switch {
		case j == n && more:
			return nil, false
		case j == n:
			return t.syntaxErr(n, "attribute "+t.syms.names[asym]+" missing '='"), true
		case buf[j] != '=':
			return t.syntaxErr(j+1, "attribute "+t.syms.names[asym]+" missing '='"), true
		}
		for j++; j < n && IsSpace(buf[j]); j++ {
		}
		switch {
		case j == n && more:
			return nil, false
		case j == n:
			return t.syntaxErr(n, "attribute "+t.syms.names[asym]+" missing quoted value"), true
		case buf[j] != '"' && buf[j] != '\'':
			return t.syntaxErr(j+1, "attribute "+t.syms.names[asym]+" missing quoted value"), true
		}
		// The value: hop candidates to the matching quote. '<', '>' and
		// the other quote inside are content; '&' opens an entity.
		q, seg, inBuf := buf[j], j+1, -1
		for p := seg; ; {
			k := t.Idx.Next(p)
			if k < 0 && more {
				return nil, false
			} else if k < 0 {
				return errUnexpectedEOF, true
			}
			if buf[k] == q {
				i = k + 1
				var value string
				if inBuf < 0 && (!t.cr || bytes.IndexByte(buf[seg:k], '\r') < 0) {
					value = t.view(buf[seg:k])
				} else {
					if inBuf < 0 {
						inBuf = len(t.attrBuf)
					}
					t.attrBuf, _ = appendEOL(t.attrBuf, buf[seg:k], false)
					value = t.view(t.attrBuf[inBuf:])
				}
				if value == "" {
					t.pending = append(t.pending,
						Token{Kind: StartElement, Sym: asym},
						Token{Kind: EndElement, Sym: asym})
				} else {
					t.pending = append(t.pending,
						Token{Kind: StartElement, Sym: asym},
						Token{Kind: Text, Data: value},
						Token{Kind: EndElement, Sym: asym})
				}
				break
			}
			if buf[k] != '&' {
				p = k + 1
				continue
			}
			if k+1+maxEntity > n && more {
				return nil, false // the reference may continue past the window
			}
			if inBuf < 0 {
				inBuf = len(t.attrBuf)
			}
			t.attrBuf, _ = appendEOL(t.attrBuf, buf[seg:k], false)
			var err error
			if t.attrBuf, seg, err = t.entity(t.attrBuf, k+1); err != nil {
				return err, true
			}
			p = seg
		}
	}
}

// growTag grows the window, keeping Buf[Pos:], until it holds the tag
// whose name starts at Pos+name through the byte that ends it — the
// first structural byte outside its attribute values, which is its '>'
// when it is well formed — or the rest of the input. Values are followed
// only in a start tag, and only from a quote an '=' precedes, so a
// malformed tag stops at the quote where openTag reports it. The hop
// resumes where the last one stopped, so a tag read a byte at a time
// costs linear work. Next's parsers call it with Pos at the name;
// SkipContent, with Pos at the tag's '<', which it keeps for Next.
//
//gcxlint:noalloc
func (t *Tokenizer) growTag(name int, values bool) {
	p, quote := t.Pos+name, byte(0)
	for {
		i := t.Idx.Next(p)
		if i < 0 {
			rel := t.N - t.Pos
			if !t.Grow() {
				return
			}
			p = t.Pos + rel
			continue
		}
		p = i + 1
		switch c := t.Buf[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case values && (c == '"' || c == '\'') && t.afterEquals(i):
			quote = c
		default:
			return
		}
	}
}

// afterEquals reports whether the last byte of the tag before i that is
// not a space is an '='.
//
//gcxlint:noalloc
func (t *Tokenizer) afterEquals(i int) bool {
	for i--; i >= t.Pos && IsSpace(t.Buf[i]); i-- {
	}
	return i >= t.Pos && t.Buf[i] == '='
}

// endTag parses the end tag whose name starts at Pos into t.tok. The fast
// path hops to the tag's first structural byte and, if it is the '>',
// compares the bytes before it (trailing spaces trimmed, as `</name >` is
// legal) with the open element's name: equal, the interior is a valid
// name, and the stack top is its symbol. Anything else is parsed
// byte by byte, with Reference's errors, once the window holds the tag.
//
//gcxlint:noalloc
func (t *Tokenizer) endTag() error {
	i := t.Pos
	if gt := t.Idx.Next(i); gt >= 0 && t.Buf[gt] == '>' && len(t.stack) > 0 {
		j := gt
		for j > i && IsSpace(t.Buf[j-1]) {
			j--
		}
		top := t.stack[len(t.stack)-1]
		if t.syms.names[top] == string(t.Buf[i:j]) {
			t.stack = t.stack[:len(t.stack)-1]
			t.Pos = gt + 1
			t.tok = Token{Kind: EndElement, Sym: top}
			return nil
		}
	}
	t.growTag(0, false)
	buf, n, i := t.Buf, t.N, t.Pos
	if i == n {
		return errUnexpectedEOF
	}
	if !IsNameStart(buf[i]) {
		return t.syntaxErr(i, fmt.Sprintf("expected name, found %q", buf[i])) //gcxlint:allocok error construction terminates the scan
	}
	j := i + 1
	for j < n && IsNameByte(buf[j]) {
		j++
	}
	sym := t.intern(buf[i:j])
	name := t.syms.names[sym]
	for j < n && IsSpace(buf[j]) {
		j++
	}
	switch {
	case j == n:
		return t.syntaxErr(n, "malformed closing tag </"+name)
	case buf[j] != '>':
		return t.syntaxErr(j+1, "malformed closing tag </"+name)
	case len(t.stack) == 0:
		return t.syntaxErr(j+1, "closing tag </"+name+"> with no open element")
	case t.stack[len(t.stack)-1] != sym:
		return t.syntaxErr(j+1, "mismatched closing tag </"+name+">, expected </"+t.syms.names[t.stack[len(t.stack)-1]]+">")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.Pos = j + 1
	t.tok = Token{Kind: EndElement, Sym: sym}
	return nil
}

// bang reads the markup "<!" opens, Pos at the '!': a comment or a
// declaration, skipped, or a CDATA section, which is a Text token unless
// it is empty. Unless keep is set, the section is only counted
// (SkipContent): ok says whether it was a token, and t.tok is untouched.
//
//gcxlint:noalloc
func (t *Tokenizer) bang(keep bool) (bool, error) {
	t.Pos++
	if !t.Ensure(1) {
		return false, errUnexpectedEOF
	}
	switch t.Buf[t.Pos] {
	case '-':
		if err := t.opener("--", "malformed comment"); err != nil {
			return false, err
		}
		return false, t.skip(Comment, "unterminated comment")
	case '[':
		if err := t.opener("[CDATA[", "malformed CDATA section"); err != nil {
			return false, err
		}
		return t.cdata(keep)
	}
	return false, t.skip(Decl, "unterminated declaration")
}

// opener consumes lit, the rest of a markup opener, at Pos, or reports
// msg where Reference does: just past the first byte that differs, or
// at the end of the input.
//
//gcxlint:noalloc
func (t *Tokenizer) opener(lit, msg string) error {
	t.Ensure(len(lit))
	for k := range len(lit) {
		switch at := t.Pos + k; {
		case at == t.N:
			return t.syntaxErr(at, msg)
		case t.Buf[at] != lit[k]:
			return t.syntaxErr(at+1, msg)
		}
	}
	t.Pos += len(lit)
	return nil
}

// skip skips the opaque region of the given kind that starts at Pos, or
// reports msg at the end of the input.
//
//gcxlint:noalloc
func (t *Tokenizer) skip(kind byte, msg string) error {
	if !t.Skip(kind, nil) {
		return t.syntaxErr(t.Pos, msg)
	}
	return nil
}

// cdata reads the CDATA section whose content starts at Pos into textBuf
// and reports it as a Text token unless it is empty. Unless keep is set,
// it copies nothing and only reports whether the section is non-empty:
// it is exactly when more than its "]]>" lies past its opener, as line
// ends normalize to one byte, never to none.
//
//gcxlint:noalloc
func (t *Tokenizer) cdata(keep bool) (bool, error) {
	if len(t.stack) == 0 {
		return false, t.syntaxErr(t.Pos, "CDATA outside the root element")
	}
	var keeper Keeper
	if keep {
		t.textBuf = t.textBuf[:0]
		keeper = (*spill)(&t.textBuf)
	}
	from := t.Off + int64(t.Pos)
	if !t.Skip(CDATA, keeper) {
		return false, t.syntaxErr(t.Pos, "unterminated CDATA section")
	}
	if !keep {
		return t.Off+int64(t.Pos)-from > int64(len("]]>")), nil
	}
	t.textBuf = t.textBuf[:len(t.textBuf)-len("]]>")]
	if bytes.IndexByte(t.textBuf, '\r') >= 0 {
		// In place: the result is never longer than what it reads.
		t.textBuf, _ = appendEOL(t.textBuf[:0], t.textBuf, false)
	}
	if len(t.textBuf) == 0 {
		return false, nil
	}
	t.tok = Token{Kind: Text, Data: t.view(t.textBuf)}
	return true, nil
}

// spill is textBuf as the Keeper of a CDATA section's bytes.
type spill []byte

func (s *spill) Keep(b []byte) { *s = append(*s, b...) }
