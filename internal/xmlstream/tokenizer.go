package xmlstream

import (
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

// Options configures a Tokenizer. Two behaviours are fixed, not options:
// each attribute name="value" on an opening tag is reported as a leading
// child element <name>value</name> (the paper's attribute adaptation,
// Sections 2 and 7), and whitespace-only character data is dropped (as
// the paper's example streams are written).
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

// DefaultOptions returns the configuration the engine uses.
func DefaultOptions() Options {
	return Options{}
}

// Tokenizer reads an XML document from an io.Reader and produces a stream of
// Tokens. It supports the subset of XML needed for the engine: elements,
// attributes (converted to subelements), character data, CDATA sections,
// comments, processing instructions, and an optional XML declaration and
// DOCTYPE (skipped). Namespaces are not interpreted; qualified names are
// treated as plain tag names.
//
// Well-formedness of tag nesting is checked; the tokenizer returns a
// *SyntaxError on mismatched or unclosed tags.
//
// The scanner is chunked and index-driven: every window slide runs the
// branchless structural classification pass (see structidx.go), and text
// runs, start tags, and end tags are parsed by hopping the precomputed
// candidate positions — whole tags parse inside the window with no
// refill checks, and a text run keeps hopping across refills and
// entities. The per-byte state machine is the one other mechanism: it
// runs wherever a tag fast path bails (a tag straddling a refill, an
// entity in an attribute value, a malformed shape) and through opaque
// regions (comments, PIs, CDATA, DOCTYPE interiors), whose terminators
// are not structural bytes. The retained per-byte implementation
// (Reference) is the
// differential-testing and benchmarking baseline; both must produce
// byte-identical token streams (see DESIGN.md, "Chunked scanning" and
// "Structural index").
type Tokenizer struct {
	r    io.Reader
	opts Options

	buf    []byte
	pos    int   // next unread byte in buf
	n      int   // valid bytes in buf
	off    int64 // stream offset of buf[0]
	err    error // sticky read error (io.EOF or real error)
	closed bool

	// idx is the structural-byte index over buf[:n], rebuilt on every
	// window slide; queries return absolute buf offsets.
	idx StructIndex

	// pending tokens produced by attribute expansion or self-closing
	// tags. pendHead is the read cursor: delivery advances the head
	// instead of shifting the slice, so draining is copy-free.
	pending  []Token
	pendHead int
	stack    []string // open element names for well-formedness checking
	rootSeen bool     // a root element has been produced (rejects forests)

	nameBuf []byte // scratch for tag/attr names
	textBuf []byte // scratch for text content
	attrBuf []byte // scratch for attribute values of the current tag
	attrs   []attr // scratch for attributes of the current tag

	// names interns tag and attribute names: documents use few distinct
	// names, and the map lookup on string(nameBuf) does not allocate, so
	// steady-state tokenizing allocates only for character data.
	// nameCache is a small direct-mapped front for it: hot vocabularies
	// resolve with one string compare instead of a map probe.
	names     map[string]string
	nameCache [nameCacheSize]string
}

// attr is one parsed attribute of the current start tag.
type attr struct{ name, value string }

// NewTokenizer returns a tokenizer reading from r with default options.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewTokenizerOptions(r, DefaultOptions())
}

// NewTokenizerOptions returns a tokenizer with explicit options. A nil
// reader is permitted if Reset is called before the first Next.
func NewTokenizerOptions(r io.Reader, opts Options) *Tokenizer {
	return &Tokenizer{
		r:     r,
		opts:  opts,
		buf:   make([]byte, 0, 64<<10),
		names: make(map[string]string, 64),
	}
}

// maxRetainedNames bounds the interned-name table across Resets: XML
// vocabularies are normally tiny, but a pooled tokenizer fed documents
// with generated per-document tag names must not accumulate every name
// ever seen.
const maxRetainedNames = 4096

// maxRetainedScratch bounds the per-token scratch buffers across Resets:
// one pathological document with a multi-megabyte text run or attribute
// value must not pin that much memory inside every pooled tokenizer for
// the rest of the process lifetime.
const maxRetainedScratch = 64 << 10

// Reset rewinds the tokenizer to read a fresh document from r, retaining
// internal buffers up to a bound and truncating the scratch buffers so no
// bytes of the previous document remain reachable. A reset tokenizer
// behaves exactly like a newly constructed one (with the same Options),
// which makes it a pooled, allocation-free serving artifact: after
// warm-up, tokenizing a document allocates only for retained text.
//
//gcxlint:keep opts the mode is part of the tokenizer's identity; Reset swaps documents, not configuration
func (t *Tokenizer) Reset(r io.Reader) {
	if len(t.names) > maxRetainedNames {
		t.names = make(map[string]string, 64)
		t.nameCache = [nameCacheSize]string{} // entries point into the dropped table
	}
	t.r = r
	t.buf = t.buf[:0]
	t.pos = 0
	t.n = 0
	t.off = 0
	t.err = nil
	t.closed = false
	t.idx.Reset()
	t.pending = t.pending[:0]
	t.pendHead = 0
	t.stack = t.stack[:0]
	t.rootSeen = false
	t.nameBuf = resetScratch(t.nameBuf)
	t.textBuf = resetScratch(t.textBuf)
	t.attrBuf = resetScratch(t.attrBuf)
	// attr entries hold name and value strings of the previous document;
	// clear the backing array so they can be collected.
	clear(t.attrs[:cap(t.attrs)])
	t.attrs = t.attrs[:0]
}

// resetScratch truncates a scratch buffer for reuse, releasing it
// entirely if a previous document grew it past maxRetainedScratch.
func resetScratch(b []byte) []byte {
	if cap(b) > maxRetainedScratch {
		return nil
	}
	return b[:0]
}

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

var errUnexpectedEOF = errors.New("unexpected end of input")

//gcxlint:allocok error construction terminates the scan
func (t *Tokenizer) syntaxErr(msg string) error {
	return &SyntaxError{Offset: t.off + int64(t.pos), Msg: msg}
}

// fill ensures at least one unread byte is available, reading more input if
// necessary. It returns false at end of input or on error.
//
//gcxlint:noalloc
func (t *Tokenizer) fill() bool {
	if t.pos < t.n {
		return true
	}
	if t.err != nil {
		return false
	}
	// Slide the window.
	t.off += int64(t.n)
	t.pos = 0
	t.n = 0
	if cap(t.buf) == 0 {
		t.buf = make([]byte, 64<<10) //gcxlint:allocok one-time window growth for a tokenizer constructed bufferless
	}
	t.buf = t.buf[:cap(t.buf)]
	for {
		n, err := t.r.Read(t.buf)
		if n > 0 {
			t.n = n
			// Classify the fresh window: one branchless pass funds every
			// index-driven fast path until the next slide.
			t.idx.Build(t.buf[:n])
			if err != nil {
				t.err = err
			}
			return true
		}
		if err != nil {
			t.err = err
			return false
		}
	}
}

//gcxlint:noalloc
func (t *Tokenizer) peek() (byte, bool) {
	if !t.fill() {
		return 0, false
	}
	return t.buf[t.pos], true
}

//gcxlint:noalloc
func (t *Tokenizer) next() (byte, bool) {
	if !t.fill() {
		return 0, false
	}
	c := t.buf[t.pos]
	t.pos++
	return c, true
}

// skipComment consumes input through the first "-->" and returns true,
// or false on EOF. Comments need their own scan rather than
// skipUntil("-->"): the naive matcher loses progress on runs of dashes,
// so a comment ending in "--->" — whose terminator overlaps the extra
// dash — would wrongly read as unterminated.
func (t *Tokenizer) skipComment() bool {
	dashes := 0
	for {
		c, ok := t.next()
		if !ok {
			return false
		}
		switch {
		case c == '-':
			dashes++
		case c == '>' && dashes >= 2:
			return true
		default:
			dashes = 0
		}
	}
}

// skipUntil consumes input through the first occurrence of the literal
// sequence seq and returns true, or false on EOF. seq must not have a
// repeated prefix (see skipComment for why "-->" does not qualify).
func (t *Tokenizer) skipUntil(seq string) bool {
	matched := 0
	for {
		c, ok := t.next()
		if !ok {
			return false
		}
		if c == seq[matched] {
			matched++
			if matched == len(seq) {
				return true
			}
		} else if c == seq[0] {
			matched = 1
		} else {
			matched = 0
		}
	}
}

//gcxlint:noalloc
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

//gcxlint:noalloc
func isNameByte(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

//gcxlint:noalloc
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// nameCacheSize is the direct-mapped interning cache size. Real
// vocabularies are a handful of names; 64 slots make collisions rare
// while keeping the table one cache line of string headers per way.
const nameCacheSize = 64

// intern returns the canonical string for the name bytes b (len(b) > 0)
// without allocating for names already seen: a direct-mapped cache
// compare first, the interning map second. The string conversions in
// comparison and map-key position are elided by the compiler.
//
//gcxlint:noalloc
func (t *Tokenizer) intern(b []byte) string {
	h := (uint32(b[0])*131 + uint32(b[len(b)-1])*31 + uint32(len(b))) % nameCacheSize
	if c := t.nameCache[h]; len(c) == len(b) && c == string(b) {
		return c
	}
	if interned, ok := t.names[string(b)]; ok {
		t.nameCache[h] = interned
		return interned
	}
	owned := string(b) //gcxlint:allocok interning copies each distinct name exactly once
	t.names[owned] = owned
	t.nameCache[h] = owned
	return owned
}

// readName reads an XML name into nameBuf, a byte at a time across
// refills, and returns it as an interned string.
//
//gcxlint:noalloc
func (t *Tokenizer) readName() (string, error) {
	c, ok := t.peek()
	if !ok {
		return "", errUnexpectedEOF
	}
	if !isNameStart(c) {
		return "", t.syntaxErr(fmt.Sprintf("expected name, found %q", c)) //gcxlint:allocok error construction terminates the scan
	}
	t.nameBuf = t.nameBuf[:0]
	for ok && isNameByte(c) {
		t.nameBuf = append(t.nameBuf, c)
		t.pos++
		c, ok = t.peek()
	}
	return t.intern(t.nameBuf), nil
}

//gcxlint:noalloc
func (t *Tokenizer) skipSpace() {
	for c, ok := t.peek(); ok && isSpace(c); c, ok = t.peek() {
		t.pos++
	}
}

// resolveEntity appends the expansion of the entity starting after '&' to
// dst. It consumes through the terminating ';'.
//
//gcxlint:noalloc
func (t *Tokenizer) resolveEntity(dst []byte) ([]byte, error) {
	t.nameBuf = t.nameBuf[:0]
	for {
		c, ok := t.next()
		if !ok {
			return dst, errUnexpectedEOF
		}
		if c == ';' {
			break
		}
		if len(t.nameBuf) > 10 {
			return dst, t.syntaxErr("entity reference too long")
		}
		t.nameBuf = append(t.nameBuf, c)
	}
	// The conversion in switch-tag position is elided by the compiler, so
	// named entities resolve without allocating; only the error paths
	// build a string from the scratch.
	switch string(t.nameBuf) {
	case "amp":
		return append(dst, '&'), nil
	case "lt":
		return append(dst, '<'), nil
	case "gt":
		return append(dst, '>'), nil
	case "apos":
		return append(dst, '\''), nil
	case "quot":
		return append(dst, '"'), nil
	}
	if len(t.nameBuf) > 0 && t.nameBuf[0] == '#' {
		numeric := t.nameBuf[1:]
		base := uint32(10)
		if len(numeric) > 0 && (numeric[0] == 'x' || numeric[0] == 'X') {
			numeric, base = numeric[1:], 16
		}
		n, ok := parseCharRef(numeric, base)
		if !ok || !isXMLChar(rune(n)) {
			return dst, t.syntaxErr("bad character reference &" + string(t.nameBuf) + ";") //gcxlint:allocok error construction terminates the scan
		}
		return appendRune(dst, rune(n)), nil
	}
	return dst, t.syntaxErr("unknown entity &" + string(t.nameBuf) + ";") //gcxlint:allocok error construction terminates the scan
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

// textString converts the textBuf scratch to the Data of a Text token:
// a borrowed view under BorrowText, an owned copy otherwise.
func (t *Tokenizer) textString() string {
	if t.opts.BorrowText {
		return borrowString(t.textBuf)
	}
	return string(t.textBuf)
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
// EOF. A non-nil error indicates malformed input or a read failure; read
// failures take precedence over the syntax confusion they cause.
func (t *Tokenizer) Next() (Token, error) {
	// Queued tokens (attribute expansion, self-closing end tags) drain by
	// advancing the head cursor — no shifting and no truncation here:
	// producers rewind the drained queue before appending, which keeps
	// this function under the inlining budget so a pop is a few loads in
	// the caller's frame.
	if h := t.pendHead; h < len(t.pending) {
		t.pendHead = h + 1
		return t.pending[h], nil
	}
	return t.scan()
}

// errOr applies the read-error precedence rule at scan's error returns:
// a read failure takes precedence over the syntax confusion it causes.
//
//gcxlint:noalloc
func (t *Tokenizer) errOr(err error) error {
	if t.err != nil && t.err != io.EOF {
		return t.err
	}
	return err
}

func (t *Tokenizer) scan() (Token, error) {
	if t.closed {
		return Token{Kind: EOF}, nil
	}
	for {
		c, ok := t.peek()
		if !ok {
			if t.err != nil && t.err != io.EOF {
				return Token{}, t.err
			}
			if len(t.stack) > 0 {
				return Token{}, t.syntaxErr("unexpected end of input: unclosed element <" + t.stack[len(t.stack)-1] + ">")
			}
			t.closed = true
			return Token{Kind: EOF}, nil
		}
		if c == '<' {
			t.pos++
			// Direct dispatch for the two hot tag kinds, skipping
			// readMarkup's extra call layer; '?'/'!' and window-edge cases
			// take the general path below.
			if t.pos < t.n {
				switch c2 := t.buf[t.pos]; c2 {
				case '?', '!':
					// comments/PIs/declarations: cold path
				case '/':
					t.pos++
					tok, err := t.endTag()
					if err != nil {
						return Token{}, t.errOr(err)
					}
					return tok, nil
				default:
					// Whole-tag fast path straight from the dispatch; the
					// slow readStartTag only runs on a bail.
					if tok, ok := t.fastStartTag(); ok {
						return tok, nil
					}
					tok, _, err := t.readStartTag()
					if err != nil {
						return Token{}, t.errOr(err)
					}
					return tok, nil
				}
			}
			tok, produced, err := t.readMarkup()
			if err != nil {
				return Token{}, t.errOr(err)
			}
			if produced {
				return tok, nil
			}
			continue // comment/PI/declaration: keep scanning
		}
		tok, produced, err := t.readText()
		if err != nil {
			return Token{}, t.errOr(err)
		}
		if produced {
			return tok, nil
		}
	}
}

// readText consumes character data up to the next '<' and reports whether a
// Text token was produced (whitespace-only runs are suppressed). One
// maximal run yields at most one Text token, exactly like Reference.
//
// The run is walked by hopping structural-index candidates; quote and
// '>' candidates are plain character data and cost one dispatch each.
// No candidate before the window end means the run continues past the
// refill: the window tail goes to textBuf (the refill overwrites the
// window) and the hop resumes in the new window. An '&' moves the run so
// far to textBuf too, and the entity's expansion follows it. At the '<'
// that ends the run, a run that never left the window and held no
// entity is emitted as the window subslice itself — under BorrowText,
// zero copies — and any other run as textBuf.
//
//gcxlint:noalloc
func (t *Tokenizer) readText() (Token, bool, error) {
	t.textBuf = t.textBuf[:0]
	inBuf := false // the run so far is in textBuf, not the window
	ws := true     // the bytes in textBuf are all whitespace
	for p := t.pos; ; {
		i := t.idx.Next(p)
		if i < 0 {
			tail := t.buf[t.pos:t.n]
			ws = ws && isAllSpace(tail)
			t.textBuf = append(t.textBuf, tail...)
			inBuf = true
			t.pos = t.n
			if !t.fill() {
				return t.emitText(t.textBuf, ws) // the input ends the run
			}
			p = t.pos
			continue
		}
		switch t.buf[i] {
		case '<':
			run := t.buf[t.pos:i]
			t.pos = i
			if !inBuf {
				return t.emitText(run, isAllSpace(run))
			}
			t.textBuf = append(t.textBuf, run...)
			return t.emitText(t.textBuf, ws && isAllSpace(run))
		case '&':
			t.textBuf = append(t.textBuf, t.buf[t.pos:i]...)
			inBuf, ws = true, false
			t.pos = i + 1
			var err error
			if t.textBuf, err = t.resolveEntity(t.textBuf); err != nil {
				return Token{}, false, err
			}
			p = t.pos // resolveEntity may have refilled the window
		default:
			p = i + 1 // '"', '\'', '>' are character data
		}
	}
}

// emitText applies the suppression rules to a finished run and converts
// it into a Text token: a borrowed view under BorrowText (of the window
// or of textBuf — both live until the next Next call), an owned copy
// otherwise. An empty run counts as whitespace-only.
//
//gcxlint:noalloc
func (t *Tokenizer) emitText(data []byte, whitespaceOnly bool) (Token, bool, error) {
	if whitespaceOnly {
		return Token{}, false, nil
	}
	if len(t.stack) == 0 {
		return Token{}, false, t.syntaxErr("character data outside the root element")
	}
	if t.opts.BorrowText {
		return Token{Kind: Text, Data: borrowString(data)}, true, nil
	}
	return Token{Kind: Text, Data: string(data)}, true, nil //gcxlint:allocok owned-copy mode is for callers that retain text
}

// isAllSpace reports whether every byte of b is XML whitespace.
//
//gcxlint:noalloc
func isAllSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// readMarkup handles input immediately after '<'. It reports whether a token
// was produced (comments, PIs, and declarations produce none).
func (t *Tokenizer) readMarkup() (Token, bool, error) {
	c, ok := t.peek()
	if !ok {
		return Token{}, false, errUnexpectedEOF
	}
	switch c {
	case '?': // processing instruction or XML declaration
		t.pos++
		if !t.skipUntil("?>") {
			return Token{}, false, t.syntaxErr("unterminated processing instruction")
		}
		return Token{}, false, nil
	case '!':
		t.pos++
		return t.readBang()
	case '/':
		t.pos++
		tok, err := t.endTag()
		if err != nil {
			return Token{}, false, err
		}
		return tok, true, nil
	default:
		return t.readStartTag()
	}
}

// endTag parses a closing tag (after "</"): the in-window fast path
// first, the refilling state machine with its diagnostics on a bail.
func (t *Tokenizer) endTag() (Token, error) {
	if tok, ok := t.fastEndTag(); ok {
		return tok, nil
	}
	name, err := t.readName()
	if err != nil {
		return Token{}, err
	}
	t.skipSpace()
	if c, ok := t.next(); !ok || c != '>' {
		return Token{}, t.syntaxErr("malformed closing tag </" + name)
	}
	if len(t.stack) == 0 {
		return Token{}, t.syntaxErr("closing tag </" + name + "> with no open element")
	}
	top := t.stack[len(t.stack)-1]
	if top != name {
		return Token{}, t.syntaxErr("mismatched closing tag </" + name + ">, expected </" + top + ">")
	}
	t.stack = t.stack[:len(t.stack)-1]
	return Token{Kind: EndElement, Name: name}, nil
}

// readBang handles "<!" constructs: comments, CDATA, DOCTYPE.
func (t *Tokenizer) readBang() (Token, bool, error) {
	c, ok := t.peek()
	if !ok {
		return Token{}, false, errUnexpectedEOF
	}
	switch c {
	case '-': // comment
		t.pos++
		if c, ok := t.next(); !ok || c != '-' {
			return Token{}, false, t.syntaxErr("malformed comment")
		}
		if !t.skipComment() {
			return Token{}, false, t.syntaxErr("unterminated comment")
		}
		return Token{}, false, nil
	case '[': // CDATA
		for _, want := range "[CDATA[" {
			c, ok := t.next()
			if !ok || c != byte(want) {
				return Token{}, false, t.syntaxErr("malformed CDATA section")
			}
		}
		return t.readCDATA()
	default: // DOCTYPE or other declaration: skip to matching '>'
		// The internal subset may contain quoted literals (entity
		// values, defaults, system ids), comments, and PIs whose content
		// legally includes '<', '>', and quote characters — all three
		// are opaque to the nesting count. pfx tracks progress through a
		// "<!--" opener (1='<', 2='<!', 3='<!-').
		depth, pfx := 1, 0
		unterminated := func() (Token, bool, error) {
			return Token{}, false, t.syntaxErr("unterminated declaration")
		}
		for {
			c, ok := t.next()
			if !ok {
				return unterminated()
			}
			if pfx == 1 && c == '?' {
				// "<?": a processing instruction inside the subset.
				pfx = 0
				depth-- // undo the '<' that started it
				if !t.skipUntil("?>") {
					return unterminated()
				}
				continue
			}
			if pfx == 3 && c == '-' {
				// "<!--": a comment inside the subset.
				pfx = 0
				depth--
				if !t.skipComment() {
					return unterminated()
				}
				continue
			}
			switch {
			case c == '<':
				pfx = 1
			case pfx == 1 && c == '!':
				pfx = 2
			case pfx == 2 && c == '-':
				pfx = 3
			default:
				pfx = 0
			}
			switch c {
			case '"', '\'':
				// Quoted literal: opaque through the closing quote.
				for quote := c; ; {
					c, ok := t.next()
					if !ok {
						return unterminated()
					}
					if c == quote {
						break
					}
				}
			case '<':
				depth++
			case '>':
				depth--
				if depth == 0 {
					return Token{}, false, nil
				}
			}
		}
	}
}

func (t *Tokenizer) readCDATA() (Token, bool, error) {
	if len(t.stack) == 0 {
		return Token{}, false, t.syntaxErr("CDATA outside the root element")
	}
	t.textBuf = t.textBuf[:0]
	matched := 0
	for {
		c, ok := t.next()
		if !ok {
			return Token{}, false, t.syntaxErr("unterminated CDATA section")
		}
		switch {
		case c == ']':
			// In a run of brackets only the FINAL two can belong to the
			// "]]>" terminator; earlier ones are content. Flushing the
			// whole run would lose the terminator for content ending in
			// ']', rejecting valid CDATA like "<![CDATA[x]]]>".
			if matched == 2 {
				t.textBuf = append(t.textBuf, ']')
			} else {
				matched++
			}
		case c == '>' && matched == 2:
			if len(t.textBuf) == 0 {
				return Token{}, false, nil
			}
			return Token{Kind: Text, Data: t.textString()}, true, nil
		default:
			for ; matched > 0; matched-- {
				t.textBuf = append(t.textBuf, ']')
			}
			t.textBuf = append(t.textBuf, c)
		}
	}
}

// fastEndTag parses a closing tag entirely inside the current window:
// one index hop to the tag's first structural byte (its '>' when well
// formed), one string compare of the interior against the top of stack,
// and a pop. No per-byte name validation is needed on this path: the
// stack top is a known-valid name, so interior == top implies the
// interior is valid too (optional trailing spaces are trimmed first,
// since `</name >` is legal). Anything else — the tag straddling the
// window edge, a quote or '<'/'&' before the '>', a mismatched or
// space-embedded name, an empty stack — leaves the tokenizer state
// untouched and reports ok=false, so the state machine runs unchanged
// and produces its exact errors and offsets. The matching top of stack
// doubles as the interned name: no map probe at all.
//
//gcxlint:noalloc
func (t *Tokenizer) fastEndTag() (Token, bool) {
	i := t.pos
	gt := t.idx.Next(i)
	if gt < 0 || t.buf[gt] != '>' {
		return Token{}, false // window edge or malformed: slow path decides
	}
	if len(t.stack) == 0 {
		return Token{}, false
	}
	j := gt
	for j > i && isSpace(t.buf[j-1]) {
		j--
	}
	top := t.stack[len(t.stack)-1]
	if top != string(t.buf[i:j]) {
		return Token{}, false // mismatch: slow path builds the error
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.pos = gt + 1
	return Token{Kind: EndElement, Name: top}, true
}

// fastStartTag parses a start tag entirely inside the current window,
// driven by the structural index in a single pass: raw bounded loops
// cover the non-structural stretches (names, spaces, '='), and every
// structural byte of the tag — each attribute value's quotes, the
// closing '>' — is reached by hopping the precomputed candidates, so
// each candidate is visited exactly once and there are no refill checks
// and no per-byte state machine. '<'/'>' inside quoted values are
// skipped as content by the value hop (this is why quotes are
// classified at all). Attribute tokens are appended to the pending
// queue as they parse; the queue is empty on entry — a new tag is only
// parsed once it drains — so a bail just truncates it back to empty.
//
// Any anomaly — the tag straddling the refill, an entity anywhere in
// the tag, a bare '<'/'&', a malformed shape — bails with the scan
// position untouched, so the original state machine reruns from the
// same byte and produces byte-identical tokens, errors, and offsets.
//
//gcxlint:noalloc
func (t *Tokenizer) fastStartTag() (Token, bool) {
	var (
		buf         = t.buf
		n           = t.n
		name        string
		selfClosing bool
		i, j        int
	)
	i = t.pos
	if !isNameStart(buf[i]) {
		goto bail
	}
	j = i + 1
	for j < n && isNameByte(buf[j]) {
		j++
	}
	if j >= n {
		goto bail // the name may continue past the window
	}
	if len(t.stack) == 0 && t.rootSeen {
		goto bail // multiple roots: slow path reports it
	}
	name = t.intern(buf[i:j])
	// The pending queue is fully drained before a new tag is parsed
	// (head == len); rewind it so the tag's tokens start at slot 0, and
	// so a bail can discard partial appends by truncating again. A bail
	// is harmless: the slow path rewinds its own scratch before use.
	t.pending = t.pending[:0]
	t.pendHead = 0
	i = j
	for {
		// Hop to the next structural byte: the opening quote of the next
		// attribute value, or the '>' that closes the tag.
		cand := t.idx.Next(i)
		if cand < 0 {
			goto bail // tag end not in this window
		}
		switch c := buf[cand]; c {
		case '>':
			// [i, cand) must be spaces, optionally ending in the '/' of a
			// self-closing tag.
			end := cand
			if end > i && buf[end-1] == '/' {
				selfClosing = true
				end--
			}
			for ; i < end; i++ {
				if !isSpace(buf[i]) {
					goto bail
				}
			}
			// Commit: the parse is final and matches the slow path's tail.
			t.pos = cand + 1
			t.rootSeen = true
			if selfClosing {
				t.pending = append(t.pending, Token{Kind: EndElement, Name: name})
			} else {
				t.stack = append(t.stack, name)
			}
			return Token{Kind: StartElement, Name: name}, true
		case '"', '\'':
			// [i, cand) must be: spaces, attribute name, spaces, '=',
			// spaces — ending exactly at the quote.
			for i < cand && isSpace(buf[i]) {
				i++
			}
			if i == cand || !isNameStart(buf[i]) {
				goto bail
			}
			j = i + 1
			for j < cand && isNameByte(buf[j]) {
				j++
			}
			aname := t.intern(buf[i:j])
			i = j
			for i < cand && isSpace(buf[i]) {
				i++
			}
			if i == cand || buf[i] != '=' {
				goto bail
			}
			i++
			for i < cand && isSpace(buf[i]) {
				i++
			}
			if i != cand {
				goto bail // non-space bytes between '=' and the quote
			}
			// The value: hop candidates to the matching quote. '<', '>',
			// and the other quote inside are content; '&' means an entity
			// the slow path must resolve.
			vstart := cand + 1
			vend := -1
			for p := vstart; vend < 0; {
				k := t.idx.Next(p)
				if k < 0 {
					goto bail // value continues past the window
				}
				switch buf[k] {
				case c:
					vend = k
				case '&':
					goto bail
				}
				p = k + 1
			}
			// Under BorrowText the value borrows the window directly — no
			// scratch copy. This is within the contract: the window only
			// slides inside fill, fill only runs from scan, and scan does
			// not resume until the tag's pending tokens have fully
			// drained, which is exactly the borrowed view's guaranteed
			// lifetime.
			var value string
			if t.opts.BorrowText {
				value = borrowString(buf[vstart:vend])
			} else {
				value = string(buf[vstart:vend]) //gcxlint:allocok owned-copy mode is for callers that retain text
			}
			if value == "" {
				t.pending = append(t.pending,
					Token{Kind: StartElement, Name: aname},
					Token{Kind: EndElement, Name: aname})
			} else {
				t.pending = append(t.pending,
					Token{Kind: StartElement, Name: aname},
					Token{Kind: Text, Data: value},
					Token{Kind: EndElement, Name: aname})
			}
			i = vend + 1
		default:
			goto bail // bare '<' or '&' inside a tag: slow path diagnoses
		}
	}

bail:
	t.pending = t.pending[:0]
	return Token{}, false
}

// readStartTag parses an opening tag (after '<') with the per-byte
// state machine, including attributes. The index-driven fast path
// (fastStartTag) is attempted by scan's dispatch before this runs; a
// bail reruns this machine from the same position.
func (t *Tokenizer) readStartTag() (Token, bool, error) {
	name, err := t.readName()
	if err != nil {
		return Token{}, false, err
	}
	if len(t.stack) == 0 && t.rootSeen {
		return Token{}, false, t.syntaxErr("multiple root elements: <" + name + ">")
	}
	// Attribute scratch is safe to rewind here: the pending queue (which
	// may reference attrBuf under BorrowText) is always drained before the
	// next tag is parsed.
	t.attrs = t.attrs[:0]
	t.attrBuf = t.attrBuf[:0]
	selfClosing := false
	for {
		t.skipSpace()
		c, ok := t.peek()
		if !ok {
			return Token{}, false, errUnexpectedEOF
		}
		if c == '>' {
			t.pos++
			break
		}
		if c == '/' {
			t.pos++
			if c, ok := t.next(); !ok || c != '>' {
				return Token{}, false, t.syntaxErr("malformed self-closing tag <" + name)
			}
			selfClosing = true
			break
		}
		aname, err := t.readName()
		if err != nil {
			return Token{}, false, err
		}
		t.skipSpace()
		if c, ok := t.next(); !ok || c != '=' {
			return Token{}, false, t.syntaxErr("attribute " + aname + " missing '='")
		}
		t.skipSpace()
		quote, ok := t.next()
		if !ok || (quote != '"' && quote != '\'') {
			return Token{}, false, t.syntaxErr("attribute " + aname + " missing quoted value")
		}
		// The value lands in attrBuf (not a window borrow) because parsing
		// the rest of the tag can refill the window while the value must
		// survive until the pending attribute tokens drain.
		valStart := len(t.attrBuf)
		for {
			c, ok := t.next()
			if !ok {
				return Token{}, false, errUnexpectedEOF
			}
			if c == quote {
				break
			}
			if c == '&' {
				if t.attrBuf, err = t.resolveEntity(t.attrBuf); err != nil {
					return Token{}, false, err
				}
				continue
			}
			t.attrBuf = append(t.attrBuf, c)
		}
		var value string
		if t.opts.BorrowText {
			value = borrowString(t.attrBuf[valStart:])
		} else {
			value = string(t.attrBuf[valStart:])
		}
		t.attrs = append(t.attrs, attr{aname, value})
	}

	t.rootSeen = true
	start := Token{Kind: StartElement, Name: name}
	if !selfClosing {
		t.stack = append(t.stack, name)
	}
	// Queue attribute subelements (and the closing tag for self-closing
	// elements) behind the start token, rewinding the drained queue
	// first (Next never truncates; producers do).
	t.pending = t.pending[:0]
	t.pendHead = 0
	for _, a := range t.attrs {
		t.pending = append(t.pending, Token{Kind: StartElement, Name: a.name})
		if a.value != "" {
			t.pending = append(t.pending, Token{Kind: Text, Data: a.value})
		}
		t.pending = append(t.pending, Token{Kind: EndElement, Name: a.name})
	}
	if selfClosing {
		t.pending = append(t.pending, Token{Kind: EndElement, Name: name})
	}
	return start, true, nil
}
