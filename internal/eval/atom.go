package eval

import (
	"strconv"
	"strings"

	"gcx/internal/xqast"
)

// atom is a comparison operand value, classified once: a value is a
// number iff strconv.ParseFloat accepts its space-trimmed text without
// error (so "1e999", which overflows, is text; "Inf", "NaN" and hex
// floats are numbers), and a pair compares numerically iff both sides
// are numbers, as the untrimmed strings otherwise.
type atom struct {
	text  string
	num   float64
	isNum bool
}

// classify builds the atom for s without allocating: ParseFloat builds an
// error value (and clones its input into it) for every string that is not
// a float, which in a join over non-numeric keys is every operand of every
// pair. floatSyntax rejects exactly those strings first; what reaches
// ParseFloat can only fail by overflowing.
//
//gcxlint:noalloc
func classify(s string) atom {
	a := atom{text: s}
	if t := strings.TrimSpace(s); floatSyntax(t) {
		f, err := strconv.ParseFloat(t, 64)
		a.num, a.isNum = f, err == nil
	}
	return a
}

// floatSyntax reports whether strconv.ParseFloat would accept s or reject
// it only as out of range: the grammar of Go floating-point literals
// without the imaginary suffix — decimal or 0x-prefixed hexadecimal
// mantissa with at most one '.', at least one digit, an optional decimal
// exponent (mandatory after a hex mantissa), '_' only between digits or
// after the base prefix — plus the optionally signed "inf"/"infinity" and
// the unsigned "nan", in any case. Only soundness matters for
// correctness (a string ParseFloat accepts must pass); exactness is what
// keeps the reject path allocation-free, and FuzzCompareValues holds
// both against ParseFloat itself.
//
//gcxlint:noalloc
func floatSyntax(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	signed := s[0] == '+' || s[0] == '-'
	if signed {
		i = 1
	}
	if i == len(s) {
		return false
	}
	switch s[i] | 0x20 {
	case 'i':
		return foldEq(s[i:], "inf") || foldEq(s[i:], "infinity")
	case 'n':
		return !signed && foldEq(s, "nan")
	}
	hex := i+2 < len(s) && s[i] == '0' && s[i+1]|0x20 == 'x'
	expChar := byte('e')
	if hex {
		i += 2
		expChar = 'p'
	}
	// Mantissa. prev tracks what '_' may follow and precede: a digit (or
	// the base prefix) before, a digit after.
	digits, dot := false, false
	prev := byte('^')
	if hex {
		prev = '0'
	}
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', hex && c|0x20 >= 'a' && c|0x20 <= 'f':
			digits = true
			prev = '0'
		case c == '_':
			if prev != '0' {
				return false
			}
			prev = '_'
		case c == '.':
			if dot || prev == '_' {
				return false
			}
			dot = true
			prev = '.'
		default:
			goto exponent
		}
	}
exponent:
	if !digits || prev == '_' {
		return false
	}
	if i == len(s) {
		return !hex // a hex mantissa requires a 'p' exponent
	}
	if s[i]|0x20 != expChar {
		return false
	}
	i++
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if i == len(s) || s[i] < '0' || s[i] > '9' {
		return false
	}
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			prev = '0'
		case c == '_' && prev == '0':
			prev = '_'
		default:
			return false
		}
	}
	return prev == '0'
}

// foldEq reports whether s equals the lower-case ASCII word w, ignoring
// case.
//
//gcxlint:noalloc
func foldEq(s, w string) bool {
	if len(s) != len(w) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}

// compareValues applies a RelOp to two operand strings (see atom).
//
//gcxlint:noalloc
func compareValues(l string, op xqast.RelOp, r string) bool {
	return compareAtoms(classify(l), op, classify(r))
}

// compareAtoms applies a RelOp: numerically when both operands are
// numbers, as strings otherwise.
//
//gcxlint:noalloc
func compareAtoms(l atom, op xqast.RelOp, r atom) bool {
	if l.isNum && r.isNum {
		switch op {
		case xqast.OpEq:
			return l.num == r.num
		case xqast.OpNe:
			return l.num != r.num
		case xqast.OpLt:
			return l.num < r.num
		case xqast.OpLe:
			return l.num <= r.num
		case xqast.OpGt:
			return l.num > r.num
		case xqast.OpGe:
			return l.num >= r.num
		}
		return false
	}
	switch op {
	case xqast.OpEq:
		return l.text == r.text
	case xqast.OpNe:
		return l.text != r.text
	case xqast.OpLt:
		return l.text < r.text
	case xqast.OpLe:
		return l.text <= r.text
	case xqast.OpGt:
		return l.text > r.text
	case xqast.OpGe:
		return l.text >= r.text
	}
	return false
}
