package xmlstream

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Reference is the package's test-side byte-at-a-time tokenizer: a frozen
// copy of the scanner as it stood before the chunked fast paths landed in
// Tokenizer (see DESIGN.md, "Chunked scanning"), changed since only where
// token semantics changed (end-of-line handling) and where the token
// model did (a tag is its Sym in the table it is handed). No production code
// links it. It exists for two jobs and must not be optimized:
//
//   - the differential conformance suite runs every fuzz-corpus input and
//     XMark document through both scanners and asserts byte-identical
//     token streams (differential_test.go, FuzzTokenizer), so a bug in
//     the run-scanning fast paths cannot hide behind its own coverage;
//   - BenchmarkTokenizerThroughput reports the chunked tokenizer's MB/s
//     against this naive baseline and fails when the ratio drops under
//     its floor (throughput_test.go), which CI runs.
//
// Behaviour (token production, error messages, error offsets, Options
// semantics, Reset contract) is intentionally identical to Tokenizer.
type Reference struct {
	r    io.Reader
	opts Options

	buf    []byte
	pos    int   // next unread byte in buf
	n      int   // valid bytes in buf
	off    int64 // stream offset of buf[0]
	err    error // sticky read error (io.EOF or real error)
	closed bool

	// pending tokens produced by attribute expansion or self-closing tags.
	pending  []Token
	stack    []string // open element names for well-formedness checking
	rootSeen bool     // a root element has been produced (rejects forests)

	nameBuf []byte // scratch for tag/attr names
	textBuf []byte // scratch for text content
	attrBuf []byte // scratch for attribute values of the current tag
	attrs   []attr // scratch for attributes of the current tag

	syms *SymTab
}

// attr is one parsed attribute of Reference's current start tag.
type attr struct {
	sym   Sym
	value string
}

// NewReference returns a reference tokenizer reading from r that interns
// names into syms, as a Tokenizer does into its table: scanners sharing
// one table give equal tags equal Syms. A nil reader is permitted if
// Reset is called before the first Next.
func NewReference(r io.Reader, opts Options, syms *SymTab) *Reference {
	return &Reference{
		r:    r,
		opts: opts,
		buf:  make([]byte, 0, 64<<10),
		syms: syms,
	}
}

// Reset rewinds the reference tokenizer to read a fresh document from r,
// mirroring Tokenizer.Reset.
//
//gcxlint:keep opts the mode is part of the tokenizer's identity; Reset swaps documents, not configuration
//gcxlint:keep syms interned names survive documents, as the tokenizer's symbol table does
func (t *Reference) Reset(r io.Reader) {
	t.r = r
	t.buf = t.buf[:0]
	t.pos = 0
	t.n = 0
	t.off = 0
	t.err = nil
	t.closed = false
	t.pending = t.pending[:0]
	t.stack = t.stack[:0]
	t.rootSeen = false
	t.nameBuf = t.nameBuf[:0]
	t.textBuf = t.textBuf[:0]
	t.attrBuf = t.attrBuf[:0]
	clear(t.attrs[:cap(t.attrs)])
	t.attrs = t.attrs[:0]
}

func (t *Reference) syntaxErr(msg string) error {
	return &SyntaxError{Offset: t.off + int64(t.pos), Msg: msg}
}

// fill ensures at least one unread byte is available, reading more input if
// necessary. It returns false at end of input or on error.
func (t *Reference) fill() bool {
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
		t.buf = make([]byte, 64<<10)
	}
	t.buf = t.buf[:cap(t.buf)]
	for {
		n, err := t.r.Read(t.buf)
		if n > 0 {
			t.n = n
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

func (t *Reference) peek() (byte, bool) {
	if !t.fill() {
		return 0, false
	}
	return t.buf[t.pos], true
}

func (t *Reference) next() (byte, bool) {
	if !t.fill() {
		return 0, false
	}
	c := t.buf[t.pos]
	t.pos++
	return c, true
}

// skipComment consumes input through the first "-->" and returns true,
// or false on EOF (see Tokenizer.skipComment for the dash-run rationale).
func (t *Reference) skipComment() bool {
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
// repeated prefix.
func (t *Reference) skipUntil(seq string) bool {
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

// readName reads an XML name into nameBuf and returns its symbol.
func (t *Reference) readName() (Sym, error) {
	c, ok := t.peek()
	if !ok {
		return NoSym, errUnexpectedEOF
	}
	if !IsNameStart(c) {
		return NoSym, t.syntaxErr(fmt.Sprintf("expected name, found %q", c))
	}
	t.nameBuf = t.nameBuf[:0]
	for {
		c, ok := t.peek()
		if !ok || !IsNameByte(c) {
			break
		}
		t.nameBuf = append(t.nameBuf, c)
		t.pos++
	}
	return t.syms.lookup(borrowString(t.nameBuf), true), nil
}

func (t *Reference) skipSpace() {
	for {
		c, ok := t.peek()
		if !ok || !IsSpace(c) {
			return
		}
		t.pos++
	}
}

// resolveEntity appends the expansion of the entity starting after '&' to
// dst. It consumes through the terminating ';'.
func (t *Reference) resolveEntity(dst []byte) ([]byte, error) {
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
	ent := string(t.nameBuf)
	switch ent {
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
	if strings.HasPrefix(ent, "#") {
		numeric := ent[1:]
		base := 10
		if strings.HasPrefix(numeric, "x") || strings.HasPrefix(numeric, "X") {
			numeric, base = numeric[1:], 16
		}
		n, err := strconv.ParseUint(numeric, base, 32)
		if err != nil || !isXMLChar(rune(n)) {
			return dst, t.syntaxErr("bad character reference &" + ent + ";")
		}
		return appendRune(dst, rune(n)), nil
	}
	return dst, t.syntaxErr("unknown entity &" + ent + ";")
}

// textString converts the textBuf scratch to the Data of a Text token:
// a borrowed view under BorrowText, an owned copy otherwise.
func (t *Reference) textString() string {
	if t.opts.BorrowText {
		return borrowString(t.textBuf)
	}
	return string(t.textBuf)
}

// Next returns the next token in the stream, mirroring Tokenizer.Next.
func (t *Reference) Next() (Token, error) {
	tok, err := t.nextToken()
	if err != nil && t.err != nil && t.err != io.EOF {
		return Token{}, t.err
	}
	return tok, err
}

func (t *Reference) nextToken() (Token, error) {
	if len(t.pending) > 0 {
		tok := t.pending[0]
		copy(t.pending, t.pending[1:])
		t.pending = t.pending[:len(t.pending)-1]
		return tok, nil
	}
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
			tok, produced, err := t.readMarkup()
			if err != nil {
				return Token{}, err
			}
			if produced {
				return tok, nil
			}
			continue // comment/PI/declaration: keep scanning
		}
		tok, produced, err := t.readText()
		if err != nil {
			return Token{}, err
		}
		if produced {
			return tok, nil
		}
	}
}

// readText consumes character data up to the next '<' and reports whether a
// Text token was produced (whitespace-only runs may be suppressed).
func (t *Reference) readText() (Token, bool, error) {
	t.textBuf = t.textBuf[:0]
	whitespaceOnly := true
	cr := false // the input byte before c was a '\r'
	for {
		c, ok := t.peek()
		if !ok || c == '<' {
			break
		}
		t.pos++
		if c == '&' {
			var err error
			t.textBuf, err = t.resolveEntity(t.textBuf)
			if err != nil {
				return Token{}, false, err
			}
			whitespaceOnly, cr = false, false
			continue
		}
		if whitespaceOnly && !IsSpace(c) {
			whitespaceOnly = false
		}
		if c == '\n' && cr {
			cr = false
			continue
		}
		if cr = c == '\r'; cr {
			c = '\n'
		}
		t.textBuf = append(t.textBuf, c)
	}
	if len(t.textBuf) == 0 {
		return Token{}, false, nil
	}
	if whitespaceOnly {
		return Token{}, false, nil
	}
	if len(t.stack) == 0 {
		return Token{}, false, t.syntaxErr("character data outside the root element")
	}
	return Token{Kind: Text, Data: t.textString()}, true, nil
}

// readMarkup handles input immediately after '<'. It reports whether a token
// was produced (comments, PIs, and declarations produce none).
func (t *Reference) readMarkup() (Token, bool, error) {
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
		sym, err := t.readName()
		if err != nil {
			return Token{}, false, err
		}
		name := t.syms.Name(sym)
		t.skipSpace()
		if c, ok := t.next(); !ok || c != '>' {
			return Token{}, false, t.syntaxErr("malformed closing tag </" + name)
		}
		if len(t.stack) == 0 {
			return Token{}, false, t.syntaxErr("closing tag </" + name + "> with no open element")
		}
		top := t.stack[len(t.stack)-1]
		if top != name {
			return Token{}, false, t.syntaxErr("mismatched closing tag </" + name + ">, expected </" + top + ">")
		}
		t.stack = t.stack[:len(t.stack)-1]
		return Token{Kind: EndElement, Sym: sym}, true, nil
	default:
		return t.readStartTag()
	}
}

// readBang handles "<!" constructs: comments, CDATA, DOCTYPE.
func (t *Reference) readBang() (Token, bool, error) {
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
		// The internal subset may contain quoted literals, comments, and
		// PIs whose content legally includes '<', '>', and quotes — all
		// three are opaque to the nesting count. pfx tracks progress
		// through a "<!--" opener (1='<', 2='<!', 3='<!-').
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
				quote := c
				for {
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

func (t *Reference) readCDATA() (Token, bool, error) {
	if len(t.stack) == 0 {
		return Token{}, false, t.syntaxErr("CDATA outside the root element")
	}
	t.textBuf = t.textBuf[:0]
	matched := 0
	cr := false // the input byte before c was a '\r'
	for {
		c, ok := t.next()
		if !ok {
			return Token{}, false, t.syntaxErr("unterminated CDATA section")
		}
		switch {
		case c == ']':
			// In a run of brackets only the FINAL two can belong to the
			// "]]>" terminator; earlier ones are content.
			if matched == 2 {
				t.textBuf = append(t.textBuf, ']')
			} else {
				matched++
			}
			cr = false
			continue
		case c == '>' && matched == 2:
			if len(t.textBuf) == 0 {
				return Token{}, false, nil
			}
			return Token{Kind: Text, Data: t.textString()}, true, nil
		default:
			for ; matched > 0; matched-- {
				t.textBuf = append(t.textBuf, ']')
			}
			if c == '\n' && cr {
				cr = false
				continue
			}
			if cr = c == '\r'; cr {
				c = '\n'
			}
			t.textBuf = append(t.textBuf, c)
		}
	}
}

// readStartTag parses an opening tag (after '<'), including attributes.
func (t *Reference) readStartTag() (Token, bool, error) {
	sym, err := t.readName()
	if err != nil {
		return Token{}, false, err
	}
	name := t.syms.Name(sym)
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
		asym, err := t.readName()
		if err != nil {
			return Token{}, false, err
		}
		aname := t.syms.Name(asym)
		t.skipSpace()
		if c, ok := t.next(); !ok || c != '=' {
			return Token{}, false, t.syntaxErr("attribute " + aname + " missing '='")
		}
		t.skipSpace()
		quote, ok := t.next()
		if !ok || (quote != '"' && quote != '\'') {
			return Token{}, false, t.syntaxErr("attribute " + aname + " missing quoted value")
		}
		valStart := len(t.attrBuf)
		cr := false // the input byte before c was a '\r'
		for {
			c, ok := t.next()
			if !ok {
				return Token{}, false, errUnexpectedEOF
			}
			if c == quote {
				break
			}
			if c == '&' {
				t.attrBuf, err = t.resolveEntity(t.attrBuf)
				if err != nil {
					return Token{}, false, err
				}
				cr = false
				continue
			}
			if c == '\n' && cr {
				cr = false
				continue
			}
			if cr = c == '\r'; cr {
				c = '\n'
			}
			t.attrBuf = append(t.attrBuf, c)
		}
		var value string
		if t.opts.BorrowText {
			value = borrowString(t.attrBuf[valStart:])
		} else {
			value = string(t.attrBuf[valStart:])
		}
		t.attrs = append(t.attrs, attr{asym, value})
	}

	t.rootSeen = true
	start := Token{Kind: StartElement, Sym: sym}
	if !selfClosing {
		t.stack = append(t.stack, name)
	}
	// Queue attribute subelements (and the closing tag for self-closing
	// elements) behind the start token.
	for _, a := range t.attrs {
		t.pending = append(t.pending, Token{Kind: StartElement, Sym: a.sym})
		if a.value != "" {
			t.pending = append(t.pending, Token{Kind: Text, Data: a.value})
		}
		t.pending = append(t.pending, Token{Kind: EndElement, Sym: a.sym})
	}
	if selfClosing {
		t.pending = append(t.pending, Token{Kind: EndElement, Sym: sym})
	}
	return start, true, nil
}
