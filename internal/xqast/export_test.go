package xqast

// EqualCond reports structural equality of two conditions. The fragment
// requires the two conditions of a CondTag pair to be syntactically equal.
func EqualCond(a, b Cond) bool {
	return FormatCond(a) == FormatCond(b)
}
