package eval

import (
	"errors"
	"hash/maphash"
	"strconv"
	"strings"
	"testing"

	"gcx/internal/xqast"
)

// oracleCompareValues is the comparison rule as the evaluator implemented
// it before operands were classified into atoms, kept verbatim: numeric
// iff BOTH operands parse, strings (untrimmed) otherwise. It allocates a
// *NumError per non-numeric operand — which is why it is the oracle and
// not the implementation.
func oracleCompareValues(l string, op xqast.RelOp, r string) bool {
	lf, lerr := strconv.ParseFloat(strings.TrimSpace(l), 64)
	rf, rerr := strconv.ParseFloat(strings.TrimSpace(r), 64)
	if lerr == nil && rerr == nil {
		switch op {
		case xqast.OpEq:
			return lf == rf
		case xqast.OpNe:
			return lf != rf
		case xqast.OpLt:
			return lf < rf
		case xqast.OpLe:
			return lf <= rf
		case xqast.OpGt:
			return lf > rf
		case xqast.OpGe:
			return lf >= rf
		}
		return false
	}
	switch op {
	case xqast.OpEq:
		return l == r
	case xqast.OpNe:
		return l != r
	case xqast.OpLt:
		return l < r
	case xqast.OpLe:
		return l <= r
	case xqast.OpGt:
		return l > r
	case xqast.OpGe:
		return l >= r
	}
	return false
}

var allRelOps = []xqast.RelOp{xqast.OpEq, xqast.OpNe, xqast.OpLt, xqast.OpLe, xqast.OpGt, xqast.OpGe}

// classifierTable holds the operand shapes where "is it a number" is easy
// to get wrong: every entry is compared with every entry under every
// operator.
var classifierTable = []string{
	"", " ", " 12 ", "12", "+.5", ".5", "5.", ".", "-", "+", "1e", "1e+", "1e5", "1E-5",
	"1e999", "-1e999", "0x10", "0x1p-2", "0X1P+2", "0x", "0x.p1", "0x_1p0", "0x1p", "0x1.8p1",
	"1_0", "1__0", "_1", "1_", "1_.5", "1._5", "1e1_0", "1e_1", "1.2.3",
	"Inf", "+inf", "-INF", "infinity", "-Infinity", "infin", "inf ", "nan", "NaN", "+nan", "-NaN", "nano",
	"١٢", "\u00a012\u00a0", "\u00a0", "\u200112", "\u008512", "1\u00a02", "12abc", "abc", "person0", "person12", "07/05/2000", "1 2", "--1", "1-",
}

func TestClassifierAgainstOracle(t *testing.T) {
	for _, l := range classifierTable {
		for _, r := range classifierTable {
			for _, op := range allRelOps {
				if got, want := compareValues(l, op, r), oracleCompareValues(l, op, r); got != want {
					t.Errorf("compare(%q %s %q) = %v, oracle says %v", l, op, r, got, want)
				}
			}
		}
	}
}

// checkFloatSyntax holds floatSyntax to ParseFloat itself: it must accept
// everything ParseFloat accepts or rejects only as out of range
// (soundness — a wrong reject would turn a number into text), and reject
// everything else (exactness — a wrong accept reaches ParseFloat's
// allocating error path).
func checkFloatSyntax(t *testing.T, s string) {
	t.Helper()
	_, err := strconv.ParseFloat(s, 64)
	want := err == nil || errors.Is(err, strconv.ErrRange)
	if got := floatSyntax(s); got != want {
		t.Errorf("floatSyntax(%q) = %v, ParseFloat says %v (err %v)", s, got, want, err)
	}
}

func TestFloatSyntaxMatchesParseFloat(t *testing.T) {
	for _, s := range classifierTable {
		checkFloatSyntax(t, s)
		checkFloatSyntax(t, strings.TrimSpace(s))
	}
}

// TestClassifyRejectsWithoutAllocating: the reject path is the join's
// common case (ids are not numbers) and must not build an error value.
func TestClassifyRejectsWithoutAllocating(t *testing.T) {
	var sink atom
	for _, s := range classifierTable {
		if _, err := strconv.ParseFloat(strings.TrimSpace(s), 64); errors.Is(err, strconv.ErrRange) {
			continue // overflow is only detectable by parsing; ParseFloat allocates its error
		}
		if allocs := testing.AllocsPerRun(10, func() { sink = classify(s) }); allocs != 0 {
			t.Errorf("classify(%q) allocates %.0f times", s, allocs)
		}
	}
	_ = sink
}

// joinKeyTable holds the operands a probe table's key gets wrong when it
// is a naive map[float64] (NaN, -0) or trimmed text (" 1 " is a number,
// " a" is not "a"), and the spellings of one number.
var joinKeyTable = []string{
	"1", "1.0", " 1 ", "+1", "-0", "0", "NaN", "nan", "0x1p-2", "0.25",
	"1e999", "Inf", "+infinity", "1_0", "", " a", "a",
}

var keySeed = maphash.MakeSeed()

// checkJoinKey holds the probe table's key to the comparison it stands
// in for: two values have equal keys iff compareValues says they are
// equal, and equal keys hash equal.
func checkJoinKey(t *testing.T, l, r string) {
	t.Helper()
	kl, okl := keyOf(classify(l))
	kr, okr := keyOf(classify(r))
	same := okl && okr && kl == kr
	if want := compareValues(l, xqast.OpEq, r); same != want {
		t.Errorf("keys of %q and %q equal = %v (%+v, %+v), but %q = %q is %v", l, r, same, kl, kr, l, r, want)
	}
	if same && kl.hash(keySeed) != kr.hash(keySeed) {
		t.Errorf("equal keys of %q and %q hash differently", l, r)
	}
}

func TestJoinKeyIsEquality(t *testing.T) {
	all := append(append([]string(nil), classifierTable...), joinKeyTable...)
	for _, l := range all {
		for _, r := range all {
			checkJoinKey(t, l, r)
		}
	}
}

// FuzzCompareValues is the differential fuzzer for the classifier: any two
// operand strings under any operator must compare exactly as the oracle
// says, floatSyntax must agree with ParseFloat on both, and their probe
// table keys must be equal exactly when the strings compare equal.
func FuzzCompareValues(f *testing.F) {
	for i, l := range classifierTable {
		f.Add(l, classifierTable[(i*7+3)%len(classifierTable)], uint8(i))
	}
	for i, l := range joinKeyTable {
		for _, r := range joinKeyTable {
			f.Add(l, r, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, l, r string, op uint8) {
		rel := allRelOps[int(op)%len(allRelOps)]
		if got, want := compareValues(l, rel, r), oracleCompareValues(l, rel, r); got != want {
			t.Errorf("compare(%q %s %q) = %v, oracle says %v", l, rel, r, got, want)
		}
		checkFloatSyntax(t, strings.TrimSpace(l))
		checkFloatSyntax(t, strings.TrimSpace(r))
		checkJoinKey(t, l, r)
	})
}
