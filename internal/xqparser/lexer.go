// Package xqparser contains a hand-written lexer and recursive-descent
// parser for the XQuery surface syntax accepted by the engine. The surface
// language is a superset of the fragment XQ (Figure 6 of the paper):
// `where` clauses, multi-step paths, `@name` attribute steps, and literal
// text are accepted and reduced to the fragment by package normalize.
package xqparser

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"gcx/internal/xmlstream"
)

// tokKind enumerates lexical token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokVar    // $name
	tokString // "..." or '...'
	tokLBrace // {
	tokRBrace // }
	tokLParen // (
	tokRParen // )
	tokComma
	tokSlash       // /
	tokSlashSlash  // //
	tokStar        // *
	tokAt          // @
	tokLt          // <
	tokLe          // <=
	tokGt          // >
	tokGe          // >=
	tokEq          // =
	tokNe          // !=
	tokTagOpen     // <name   (start of constructor)
	tokTagClose    // </name>
	tokTagSelfEnd  // />  (inside constructor header)
	tokAxisChild   // child::
	tokAxisDesc    // descendant::
	tokAxisDos     // descendant-or-self:: or dos::
	tokLBracket    // [
	tokRBracket    // ]
	tokColonColon  // ::
	tokText        // raw text inside element content
	tokSemicolonNo // unused, keeps iota stable
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokString:
		return "string literal"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokSlash:
		return "'/'"
	case tokSlashSlash:
		return "'//'"
	case tokStar:
		return "'*'"
	case tokAt:
		return "'@'"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokEq:
		return "'='"
	case tokNe:
		return "'!='"
	case tokTagOpen:
		return "start tag"
	case tokTagClose:
		return "end tag"
	case tokTagSelfEnd:
		return "'/>'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// token is a lexical token with its source position.
type token struct {
	kind tokKind
	text string // identifier name, variable name, string value, or tag name
	line int
	col  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xquery parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer produces tokens from the query source. Tag recognition is
// context-sensitive ('<' may start a constructor or be a comparison
// operator), so the parser steers the lexer via nextExpr (expression
// context: '<'+name is a constructor) and nextOperand (comparison context:
// '<' is an operator).
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(i int) byte {
	if l.pos+i >= len(l.src) {
		return 0
	}
	return l.src[l.pos+i]
}

// skipSpaceAndComments skips whitespace and XQuery comments (: ... :),
// which nest.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if xmlstream.IsSpace(c) {
			l.advance(1)
			continue
		}
		if c == '(' && l.peekAt(1) == ':' {
			depth := 0
			for l.pos < len(l.src) {
				if l.peekByte() == '(' && l.peekAt(1) == ':' {
					depth++
					l.advance(2)
					continue
				}
				if l.peekByte() == ':' && l.peekAt(1) == ')' {
					depth--
					l.advance(2)
					if depth == 0 {
						break
					}
					continue
				}
				l.advance(1)
			}
			if depth != 0 {
				return l.errf("unterminated comment")
			}
			continue
		}
		return nil
	}
	return nil
}

// nameAt reports whether a name starts i bytes ahead: the tokenizer's
// grammar, except that a ':' does not start one and a copied rune
// (copiedAt) is no part of one.
func (l *lexer) nameAt(i int) bool {
	c := l.peekAt(i)
	return c != ':' && xmlstream.IsNameStart(c) && !l.copiedAt(i)
}

// copiedAt reports whether a typographic quote or a no-break space starts
// i bytes ahead. Text copied from formatted documents brings them in place
// of ASCII quotes and spaces; no query name holds one, so `$c = “noir”`
// is an unexpected character, not a name step (DESIGN.md, "One name grammar").
func (l *lexer) copiedAt(i int) bool {
	r, _ := utf8.DecodeRuneInString(l.src[min(l.pos+i, len(l.src)):])
	return strings.ContainsRune("\u00a0\u2018\u2019\u201c\u201d", r)
}

// readIdent reads the name at pos. A ':' continues it only before another
// name, so `dc:title` is one name and `child::a` the name `child` and `::`.
func (l *lexer) readIdent() string {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c == ':' && !l.nameAt(1) || c != ':' && (!xmlstream.IsNameByte(c) || l.copiedAt(0)) {
			break
		}
		l.advance(1)
	}
	return l.src[start:l.pos]
}

func (l *lexer) readString() (string, error) {
	quote := l.src[l.pos]
	l.advance(1)
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			// XQuery doubles quotes to escape them.
			if l.peekAt(1) == quote {
				b.WriteByte(quote)
				l.advance(2)
				continue
			}
			l.advance(1)
			return b.String(), nil
		}
		b.WriteByte(c)
		l.advance(1)
	}
	return "", l.errf("unterminated string literal")
}

// next lexes one token. In expression context (exprCtx true) a '<' followed
// by a name-start character begins a tag; otherwise '<' is the less-than
// operator.
func (l *lexer) next(exprCtx bool) (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	tk := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tk.kind = tokEOF
		return tk, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '$':
		l.advance(1)
		if !l.nameAt(0) {
			return tk, l.errf("expected variable name after '$'")
		}
		tk.kind = tokVar
		tk.text = l.readIdent()
		return tk, nil
	case c == '"' || c == '\'':
		s, err := l.readString()
		if err != nil {
			return tk, err
		}
		tk.kind = tokString
		tk.text = s
		return tk, nil
	case l.nameAt(0):
		tk.kind = tokIdent
		tk.text = l.readIdent()
		return tk, nil
	case c >= '0' && c <= '9':
		// Numeric literals are treated as strings; the evaluator compares
		// numerically when both operands parse as numbers.
		start := l.pos
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.advance(1)
		}
		tk.kind = tokString
		tk.text = l.src[start:l.pos]
		return tk, nil
	}
	switch c {
	case '{':
		l.advance(1)
		tk.kind = tokLBrace
	case '}':
		l.advance(1)
		tk.kind = tokRBrace
	case '(':
		l.advance(1)
		tk.kind = tokLParen
	case ')':
		l.advance(1)
		tk.kind = tokRParen
	case ',':
		l.advance(1)
		tk.kind = tokComma
	case '[':
		l.advance(1)
		tk.kind = tokLBracket
	case ']':
		l.advance(1)
		tk.kind = tokRBracket
	case '*':
		l.advance(1)
		tk.kind = tokStar
	case '@':
		l.advance(1)
		tk.kind = tokAt
	case '/':
		if l.peekAt(1) == '/' {
			l.advance(2)
			tk.kind = tokSlashSlash
		} else if l.peekAt(1) == '>' {
			l.advance(2)
			tk.kind = tokTagSelfEnd
		} else {
			l.advance(1)
			tk.kind = tokSlash
		}
	case ':':
		if l.peekAt(1) != ':' {
			return tk, l.errf("expected '::' axis separator")
		}
		l.advance(2)
		tk.kind = tokColonColon
	case '=':
		l.advance(1)
		tk.kind = tokEq
	case '!':
		if l.peekAt(1) != '=' {
			return tk, l.errf("expected '=' after '!'")
		}
		l.advance(2)
		tk.kind = tokNe
	case '>':
		if l.peekAt(1) == '=' {
			l.advance(2)
			tk.kind = tokGe
		} else {
			l.advance(1)
			tk.kind = tokGt
		}
	case '<':
		if exprCtx && l.peekAt(1) == '/' {
			l.advance(2)
			if !l.nameAt(0) {
				return tk, l.errf("expected tag name after '</'")
			}
			name := l.readIdent()
			if err := l.skipSpaceAndComments(); err != nil {
				return tk, err
			}
			if l.peekByte() != '>' {
				return tk, l.errf("expected '>' to close end tag </%s", name)
			}
			l.advance(1)
			tk.kind = tokTagClose
			tk.text = name
			return tk, nil
		}
		if exprCtx && l.nameAt(1) {
			l.advance(1)
			tk.kind = tokTagOpen
			tk.text = l.readIdent()
			return tk, nil
		}
		if l.peekAt(1) == '=' {
			l.advance(2)
			tk.kind = tokLe
		} else {
			l.advance(1)
			tk.kind = tokLt
		}
	default:
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		return tk, l.errf("unexpected character %q", r)
	}
	return tk, nil
}

// rawText reads element content text up to the next '<' or '{'. The parser
// calls this directly when inside a constructor.
func (l *lexer) rawText() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '<' || c == '{' || c == '}' {
			break
		}
		l.advance(1)
	}
	return l.src[start:l.pos]
}
