package xqast

import (
	"fmt"
	"strings"
)

// Format renders a query in a canonical, parseable surface syntax. It is
// used by golden tests, the -explain diagnostics of cmd/gcx, and the
// rewriting test suites (Figures 7-9 of the paper).
func Format(q *Query) string {
	var b strings.Builder
	formatExpr(&b, q.Root, 0)
	b.WriteByte('\n')
	return b.String()
}

// FormatCond renders a condition.
func FormatCond(c Cond) string {
	var b strings.Builder
	formatCond(&b, c)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// compact reports whether e renders on a single short line.
func compact(e Expr) bool {
	switch e := e.(type) {
	case Empty, Text, VarRef, PathExpr, SignOff, CondTag, nil:
		return true
	case Element:
		return compact(e.Child)
	default:
		return false
	}
}

func formatExpr(b *strings.Builder, e Expr, depth int) {
	switch e := e.(type) {
	case nil:
		b.WriteString("()")
	case Empty:
		b.WriteString("()")
	case Text:
		fmt.Fprintf(b, "text { %s }", quoteLit(e.Data))
	case VarRef:
		b.WriteString("$" + e.Var)
	case PathExpr:
		b.WriteString(formatPath(e.Path))
	case SignOff:
		fmt.Fprintf(b, "signOff(%s, r%d)", formatPath(e.Path), e.Role)
	case Element:
		if compact(e.Child) {
			b.WriteString("<" + e.Name + ">{ ")
			formatExpr(b, e.Child, depth)
			b.WriteString(" }</" + e.Name + ">")
			return
		}
		b.WriteString("<" + e.Name + ">{\n")
		indent(b, depth+1)
		formatExpr(b, e.Child, depth+1)
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("}</" + e.Name + ">")
	case CondTag:
		tag := "<" + e.Name + ">"
		if !e.Open {
			tag = "</" + e.Name + ">"
		}
		b.WriteString("if (")
		formatCond(b, e.Cond)
		b.WriteString(") then " + tag + " else ()")
	case Sequence:
		b.WriteString("(\n")
		for i, item := range e.Items {
			indent(b, depth+1)
			formatExpr(b, item, depth+1)
			if i < len(e.Items)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		indent(b, depth)
		b.WriteByte(')')
	case For:
		fmt.Fprintf(b, "for $%s in %s return\n", e.Var, formatPath(e.In))
		indent(b, depth+1)
		formatExpr(b, e.Return, depth+1)
	case If:
		b.WriteString("if (")
		formatCond(b, e.Cond)
		b.WriteString(")\n")
		indent(b, depth)
		b.WriteString("then ")
		formatExpr(b, e.Then, depth+1)
		b.WriteByte('\n')
		indent(b, depth)
		b.WriteString("else ")
		formatExpr(b, e.Else, depth+1)
	default:
		fmt.Fprintf(b, "?%T", e)
	}
}

// formatPath renders paths using common XPath abbreviations, matching the
// paper's notation: child::a -> a, descendant::a -> one "/" plus "/a" (i.e.
// //a), dos::node() stays explicit.
func formatPath(p Path) string {
	var b strings.Builder
	b.WriteString("$" + p.Var)
	for _, s := range p.Steps {
		switch s.Axis {
		case Child:
			b.WriteString("/")
		case Descendant:
			b.WriteString("//")
		case DescendantOrSelf:
			b.WriteString("/dos::")
			b.WriteString(s.Test.String())
			if s.First {
				b.WriteString("[1]")
			}
			continue
		}
		b.WriteString(s.Test.String())
		if s.First {
			b.WriteString("[1]")
		}
	}
	return b.String()
}

func condParen(b *strings.Builder, c Cond) {
	switch c.(type) {
	case And, Or:
		b.WriteByte('(')
		formatCond(b, c)
		b.WriteByte(')')
	default:
		formatCond(b, c)
	}
}

func formatCond(b *strings.Builder, c Cond) {
	switch c := c.(type) {
	case TrueCond:
		b.WriteString("true()")
	case Exists:
		b.WriteString("exists(" + formatPath(c.Path) + ")")
	case Compare:
		b.WriteString(c.LHS.formatOperand())
		b.WriteString(" " + c.Op.String() + " ")
		b.WriteString(c.RHS.formatOperand())
	case And:
		condParen(b, c.L)
		b.WriteString(" and ")
		condParen(b, c.R)
	case Or:
		condParen(b, c.L)
		b.WriteString(" or ")
		condParen(b, c.R)
	case Not:
		b.WriteString("not(")
		formatCond(b, c.C)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "?%T", c)
	}
}

func (o Operand) formatOperand() string {
	if o.IsLiteral {
		return quoteLit(o.Lit)
	}
	return formatPath(o.Path)
}

// quoteLit renders a string literal in XQ surface syntax: a double quote
// inside the literal is escaped by doubling it (the XQuery convention the
// lexer implements); every other byte is emitted verbatim. Go-style
// backslash escapes would NOT round-trip through the parser.
func quoteLit(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
