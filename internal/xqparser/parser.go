package xqparser

import (
	"fmt"
	"strings"

	"gcx/internal/xqast"
)

// Parse parses a complete query: a single element constructor (production
// Q ::= <a>q</a> of Figure 6). The result is surface-level AST; callers run
// package normalize to reduce it to the fragment and validate it.
func Parse(src string) (*xqast.Query, error) {
	p := &parser{lx: newLexer(src)}
	expr, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	root, ok := expr.(xqast.Element)
	if !ok {
		return nil, &Error{Line: 1, Col: 1, Msg: "a query must be a single element constructor <a>{...}</a>"}
	}
	tk, err := p.take(true)
	if err != nil {
		return nil, err
	}
	if tk.kind != tokEOF {
		return nil, p.errAt(tk, "unexpected %s after end of query", tk.kind)
	}
	return &xqast.Query{Root: root}, nil
}

type parser struct {
	lx *lexer
}

type lexState struct {
	pos, line, col int
}

func (p *parser) save() lexState { return lexState{p.lx.pos, p.lx.line, p.lx.col} }
func (p *parser) restore(s lexState) {
	p.lx.pos, p.lx.line, p.lx.col = s.pos, s.line, s.col
}

// take consumes the next token in the given lexer context.
func (p *parser) take(exprCtx bool) (token, error) {
	return p.lx.next(exprCtx)
}

// peek returns the next token without consuming it.
func (p *parser) peek(exprCtx bool) (token, error) {
	s := p.save()
	tk, err := p.lx.next(exprCtx)
	p.restore(s)
	return tk, err
}

func (p *parser) errAt(tk token, format string, args ...interface{}) *Error {
	return &Error{Line: tk.line, Col: tk.col, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token and checks its kind.
func (p *parser) expect(kind tokKind, exprCtx bool, what string) (token, error) {
	tk, err := p.take(exprCtx)
	if err != nil {
		return tk, err
	}
	if tk.kind != kind {
		return tk, p.errAt(tk, "expected %s %s, found %s", kind, what, tk.kind)
	}
	return tk, nil
}

// expectKeyword consumes an identifier token with the given text.
func (p *parser) expectKeyword(kw string) error {
	tk, err := p.take(false)
	if err != nil {
		return err
	}
	if tk.kind != tokIdent || tk.text != kw {
		return p.errAt(tk, "expected keyword %q, found %s %q", kw, tk.kind, tk.text)
	}
	return nil
}

// parseExpr parses a comma-separated sequence of single expressions.
func (p *parser) parseExpr() (xqast.Expr, error) {
	var items []xqast.Expr
	for {
		e, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
		tk, err := p.peek(true)
		if err != nil {
			return nil, err
		}
		if tk.kind != tokComma {
			break
		}
		if _, err := p.take(true); err != nil {
			return nil, err
		}
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return xqast.Sequence{Items: items}, nil
}

// parseSingle parses one ExprSingle: for, if, or a primary expression.
func (p *parser) parseSingle() (xqast.Expr, error) {
	tk, err := p.peek(true)
	if err != nil {
		return nil, err
	}
	switch tk.kind {
	case tokIdent:
		switch tk.text {
		case "for":
			return p.parseFor()
		case "if":
			return p.parseIf()
		case "let":
			return nil, p.errAt(tk, "let-expressions are outside the XQ fragment (the paper notes they can be removed in practical queries); inline the bound expression")
		case "text":
			return p.parseTextConstructor()
		}
		return nil, p.errAt(tk, "unexpected identifier %q in expression position", tk.text)
	case tokTagOpen:
		return p.parseConstructor()
	case tokVar, tokSlash, tokSlashSlash:
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if len(path.Steps) == 0 {
			return xqast.VarRef{Var: path.Var}, nil
		}
		return xqast.PathExpr{Path: path}, nil
	case tokLParen:
		if _, err := p.take(true); err != nil {
			return nil, err
		}
		nxt, err := p.peek(true)
		if err != nil {
			return nil, err
		}
		if nxt.kind == tokRParen {
			_, err := p.take(true)
			return xqast.Empty{}, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, true, "to close parenthesized expression"); err != nil {
			return nil, err
		}
		return e, nil
	case tokString:
		if _, err := p.take(true); err != nil {
			return nil, err
		}
		return xqast.Text{Data: tk.text}, nil
	default:
		return nil, p.errAt(tk, "unexpected %s in expression position", tk.kind)
	}
}

// parseTextConstructor parses text { "literal" }.
func (p *parser) parseTextConstructor() (xqast.Expr, error) {
	if err := p.expectKeyword("text"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, false, "after text"); err != nil {
		return nil, err
	}
	tk, err := p.expect(tokString, false, "inside text constructor")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace, false, "to close text constructor"); err != nil {
		return nil, err
	}
	return xqast.Text{Data: tk.text}, nil
}

// parseFor parses "for $x in path (, $y in path)* (where cond)? return single".
// Multiple bindings desugar to nested for-loops; a where clause desugars to
// if-then-else (the adaptation of Section 3: "rewriting where-conditions to
// if-then-else expressions").
func (p *parser) parseFor() (xqast.Expr, error) {
	if err := p.expectKeyword("for"); err != nil {
		return nil, err
	}
	type binding struct {
		v    string
		path xqast.Path
	}
	var bindings []binding
	for {
		tk, err := p.expect(tokVar, false, "in for clause")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if len(path.Steps) == 0 {
			return nil, p.errAt(tk, "for-loop over a bare variable $%s is not allowed; iterate a path", path.Var)
		}
		bindings = append(bindings, binding{tk.text, path})
		nxt, err := p.peek(false)
		if err != nil {
			return nil, err
		}
		if nxt.kind != tokComma {
			break
		}
		if _, err := p.take(false); err != nil {
			return nil, err
		}
	}

	var where xqast.Cond
	nxt, err := p.peek(false)
	if err != nil {
		return nil, err
	}
	if nxt.kind == tokIdent && nxt.text == "where" {
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		where, err = p.parseCond()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("return"); err != nil {
		return nil, err
	}
	body, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	if where != nil {
		body = xqast.If{Cond: where, Then: body, Else: xqast.Empty{}}
	}
	for i := len(bindings) - 1; i >= 0; i-- {
		body = xqast.For{Var: bindings[i].v, In: bindings[i].path, Return: body}
	}
	return body, nil
}

// parseIf parses "if (cond) then single else single".
func (p *parser) parseIf() (xqast.Expr, error) {
	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen, false, "after if"); err != nil {
		return nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, false, "to close if condition"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	return xqast.If{Cond: cond, Then: then, Else: els}, nil
}

// parseConstructor parses <a>content</a> or <a/>. Content may interleave
// literal text, nested constructors, and { expr } blocks.
func (p *parser) parseConstructor() (xqast.Expr, error) {
	open, err := p.take(true)
	if err != nil {
		return nil, err
	}
	name := open.text
	// Constructor header: expect '>' or '/>'.
	hdr, err := p.take(false)
	if err != nil {
		return nil, err
	}
	switch hdr.kind {
	case tokTagSelfEnd:
		return xqast.Element{Name: name, Child: xqast.Empty{}}, nil
	case tokGt:
	default:
		return nil, p.errAt(hdr, "expected '>' or '/>' in constructor <%s (attributes are not part of the fragment; the paper converts attributes to subelements)", name)
	}

	var items []xqast.Expr
	for {
		raw := p.lx.rawText()
		if trimmed := strings.TrimSpace(raw); trimmed != "" {
			// Boundary whitespace is dropped (XQuery default); inner
			// significant text is kept verbatim.
			items = append(items, xqast.Text{Data: trimmed})
		}
		c := p.lx.peekByte()
		switch c {
		case 0:
			return nil, p.lx.errf("unterminated element constructor <%s>", name)
		case '{':
			if _, err := p.take(true); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrace, true, "to close embedded expression"); err != nil {
				return nil, err
			}
			items = append(items, e)
		case '<':
			tk, err := p.peek(true)
			if err != nil {
				return nil, err
			}
			if tk.kind == tokTagClose {
				if _, err := p.take(true); err != nil {
					return nil, err
				}
				if tk.text != name {
					return nil, p.errAt(tk, "mismatched closing tag </%s>, expected </%s>", tk.text, name)
				}
				return xqast.Element{Name: name, Child: xqast.FlattenSequence(items)}, nil
			}
			if tk.kind != tokTagOpen {
				return nil, p.errAt(tk, "unexpected %s inside element content", tk.kind)
			}
			e, err := p.parseConstructor()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
		default:
			return nil, p.lx.errf("unexpected character %q inside element content", c)
		}
	}
}

// parsePath parses a variable-rooted or absolute path:
//
//	$x, $x/step/..., /step/..., //step/...
//
// Absolute paths are rooted at $root. Steps accept the abbreviations
// name, *, @name, text(), node(), explicit axes child::ν, descendant::ν,
// descendant-or-self::ν (dos::ν), and a trailing [1] predicate.
func (p *parser) parsePath() (xqast.Path, error) {
	tk, err := p.take(false)
	if err != nil {
		return xqast.Path{}, err
	}
	var path xqast.Path
	switch tk.kind {
	case tokVar:
		path.Var = tk.text
	case tokSlash:
		path.Var = xqast.RootVar
		step, err := p.parseStep(xqast.Child)
		if err != nil {
			return path, err
		}
		path.Steps = append(path.Steps, step)
	case tokSlashSlash:
		path.Var = xqast.RootVar
		step, err := p.parseStep(xqast.Descendant)
		if err != nil {
			return path, err
		}
		path.Steps = append(path.Steps, step)
	default:
		return path, p.errAt(tk, "expected a path, found %s", tk.kind)
	}
	for {
		nxt, err := p.peek(false)
		if err != nil {
			return path, err
		}
		var axis xqast.Axis
		switch nxt.kind {
		case tokSlash:
			axis = xqast.Child
		case tokSlashSlash:
			axis = xqast.Descendant
		default:
			return path, nil
		}
		if _, err := p.take(false); err != nil {
			return path, err
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return path, err
		}
		path.Steps = append(path.Steps, step)
	}
}

// parseStep parses one step after a '/' or '//' with the given default axis.
func (p *parser) parseStep(axis xqast.Axis) (xqast.Step, error) {
	tk, err := p.take(false)
	if err != nil {
		return xqast.Step{}, err
	}
	step := xqast.Step{Axis: axis}
	switch tk.kind {
	case tokStar:
		step.Test = xqast.StarTest()
	case tokAt:
		// @name sugar: with the attributes-as-subelements adaptation,
		// attribute steps become child element steps.
		name, err := p.expect(tokIdent, false, "after '@'")
		if err != nil {
			return step, err
		}
		step.Test = xqast.NameTest(name.text)
	case tokIdent:
		// Possible explicit axis prefix.
		if nxt, err := p.peek(false); err == nil && nxt.kind == tokColonColon {
			var ax xqast.Axis
			switch tk.text {
			case "child":
				ax = xqast.Child
			case "descendant":
				ax = xqast.Descendant
			case "descendant-or-self", "dos":
				ax = xqast.DescendantOrSelf
			default:
				return step, p.errAt(tk, "unsupported axis %q (fragment allows child, descendant, descendant-or-self)", tk.text)
			}
			if axis == xqast.Descendant {
				return step, p.errAt(tk, "cannot combine '//' with an explicit axis")
			}
			step.Axis = ax
			if _, err := p.take(false); err != nil {
				return step, err
			}
			return p.parseStepTest(step)
		}
		return p.parseIdentTest(step, tk)
	default:
		return step, p.errAt(tk, "expected a node test, found %s", tk.kind)
	}
	return p.parsePredicate(step)
}

// parseStepTest parses the node test after an explicit axis.
func (p *parser) parseStepTest(step xqast.Step) (xqast.Step, error) {
	tk, err := p.take(false)
	if err != nil {
		return step, err
	}
	switch tk.kind {
	case tokStar:
		step.Test = xqast.StarTest()
		return p.parsePredicate(step)
	case tokIdent:
		return p.parseIdentTest(step, tk)
	default:
		return step, p.errAt(tk, "expected a node test after axis, found %s", tk.kind)
	}
}

// parseIdentTest interprets an identifier node test, handling text() and
// node().
func (p *parser) parseIdentTest(step xqast.Step, tk token) (xqast.Step, error) {
	if nxt, err := p.peek(false); err == nil && nxt.kind == tokLParen && (tk.text == "text" || tk.text == "node") {
		if _, err := p.take(false); err != nil {
			return step, err
		}
		if _, err := p.expect(tokRParen, false, "to close node test"); err != nil {
			return step, err
		}
		if tk.text == "text" {
			step.Test = xqast.TextTest()
		} else {
			step.Test = xqast.NodeKindTest()
		}
		return p.parsePredicate(step)
	}
	step.Test = xqast.NameTest(tk.text)
	return p.parsePredicate(step)
}

// parsePredicate parses an optional trailing [1].
func (p *parser) parsePredicate(step xqast.Step) (xqast.Step, error) {
	nxt, err := p.peek(false)
	if err != nil || nxt.kind != tokLBracket {
		return step, nil
	}
	if _, err := p.take(false); err != nil {
		return step, err
	}
	tk, err := p.take(false)
	if err != nil {
		return step, err
	}
	if tk.kind != tokString || tk.text != "1" {
		return step, p.errAt(tk, "the only predicate in the fragment is [1] (first witness)")
	}
	if _, err := p.expect(tokRBracket, false, "to close predicate"); err != nil {
		return step, err
	}
	step.First = true
	return step, nil
}

// parseCond parses a condition with standard precedence:
// or < and < not/primary.
func (p *parser) parseCond() (xqast.Cond, error) {
	left, err := p.parseAndCond()
	if err != nil {
		return nil, err
	}
	for {
		nxt, err := p.peek(false)
		if err != nil {
			return nil, err
		}
		if nxt.kind != tokIdent || nxt.text != "or" {
			return left, nil
		}
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		right, err := p.parseAndCond()
		if err != nil {
			return nil, err
		}
		left = xqast.Or{L: left, R: right}
	}
}

func (p *parser) parseAndCond() (xqast.Cond, error) {
	left, err := p.parsePrimCond()
	if err != nil {
		return nil, err
	}
	for {
		nxt, err := p.peek(false)
		if err != nil {
			return nil, err
		}
		if nxt.kind != tokIdent || nxt.text != "and" {
			return left, nil
		}
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		right, err := p.parsePrimCond()
		if err != nil {
			return nil, err
		}
		left = xqast.And{L: left, R: right}
	}
}

func (p *parser) parsePrimCond() (xqast.Cond, error) {
	tk, err := p.peek(false)
	if err != nil {
		return nil, err
	}
	switch {
	case tk.kind == tokIdent && (tk.text == "not" || tk.text == "fn.not"):
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		// Both "not(cond)" and "not cond" (the paper's grammar) are accepted.
		nxt, err := p.peek(false)
		if err != nil {
			return nil, err
		}
		if nxt.kind == tokLParen {
			if _, err := p.take(false); err != nil {
				return nil, err
			}
			c, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, false, "to close not(...)"); err != nil {
				return nil, err
			}
			return xqast.Not{C: c}, nil
		}
		c, err := p.parsePrimCond()
		if err != nil {
			return nil, err
		}
		return xqast.Not{C: c}, nil
	case tk.kind == tokIdent && tk.text == "true":
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, false, "after true"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, false, "after true("); err != nil {
			return nil, err
		}
		return xqast.TrueCond{}, nil
	case tk.kind == tokIdent && tk.text == "exists":
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, false, "after exists"); err != nil {
			return nil, err
		}
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, false, "to close exists(...)"); err != nil {
			return nil, err
		}
		return xqast.Exists{Path: path}, nil
	case tk.kind == tokLParen:
		if _, err := p.take(false); err != nil {
			return nil, err
		}
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, false, "to close parenthesized condition"); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return p.parseComparison()
	}
}

func (p *parser) parseComparison() (xqast.Cond, error) {
	lhs, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	tk, err := p.take(false)
	if err != nil {
		return nil, err
	}
	var op xqast.RelOp
	switch tk.kind {
	case tokEq:
		op = xqast.OpEq
	case tokNe:
		op = xqast.OpNe
	case tokLt:
		op = xqast.OpLt
	case tokLe:
		op = xqast.OpLe
	case tokGt:
		op = xqast.OpGt
	case tokGe:
		op = xqast.OpGe
	default:
		return nil, p.errAt(tk, "expected a comparison operator, found %s", tk.kind)
	}
	rhs, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if lhs.IsLiteral && rhs.IsLiteral {
		return nil, p.errAt(tk, "at least one side of a comparison must be a path (Figure 6)")
	}
	return xqast.Compare{LHS: lhs, Op: op, RHS: rhs}, nil
}

func (p *parser) parseOperand() (xqast.Operand, error) {
	tk, err := p.peek(false)
	if err != nil {
		return xqast.Operand{}, err
	}
	if tk.kind == tokString {
		if _, err := p.take(false); err != nil {
			return xqast.Operand{}, err
		}
		return xqast.Operand{IsLiteral: true, Lit: tk.text}, nil
	}
	path, err := p.parsePath()
	if err != nil {
		return xqast.Operand{}, err
	}
	return xqast.Operand{Path: path}, nil
}
