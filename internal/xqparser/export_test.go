package xqparser

import "gcx/internal/xqast"

// ParseExpr parses a standalone expression.
func ParseExpr(src string) (xqast.Expr, error) {
	p := &parser{lx: newLexer(src)}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	tk, err := p.take(true)
	if err != nil {
		return nil, err
	}
	if tk.kind != tokEOF {
		return nil, p.errAt(tk, "unexpected %s after end of expression", tk.kind)
	}
	return expr, nil
}
