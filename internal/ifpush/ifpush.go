// Package ifpush implements the if-pushdown rewriting of the paper
// (Section 3, Figure 7).
//
// SignOff statements are always inserted at the end of for-loop bodies
// (Section 4). If a for-loop sits inside an if-expression, its signOff
// statements would be guarded by the condition and might never execute,
// breaking the assignment/removal balance. Pushing if-expressions down into
// for-loops guarantees that no signOff statement ends up inside an
// if-expression.
//
// The four rules:
//
//	DECOMP: if X then α else β
//	        ⇒ (if X then α else (), if (not X) then β else ())
//	SEQ:    if X then (α1,...,αn) else ()
//	        ⇒ (if X then α1 else (), ..., if X then αn else ())
//	NC:     if X then <a>α</a> else ()
//	        ⇒ (if X then <a> else (), if X then α else (), if X then </a> else ())
//	FOR:    if X then for $x in $y/axis::nt return α else ()
//	        ⇒ for $x in $y/axis::nt return if X then α else ()
//
// DECOMP is applied first to every if-then-else, then SEQ, NC, FOR are
// applied to a fixpoint. Following the paper's practical note ("we might
// decide to process only those if-expressions with a for-loop as a
// subexpression"), Push only rewrites if-expressions whose subtree contains
// a for-loop; the test suite's PushAll rewrites every if-expression, to
// exercise the full rule set.
package ifpush

import "gcx/internal/xqast"

// Push rewrites q so that no for-loop remains inside an if-expression.
// Only if-expressions containing for-loops are decomposed; others are left
// intact (they cannot contain signOffs later).
func Push(q *xqast.Query) *xqast.Query {
	return &xqast.Query{Root: xqast.Element{
		Name:  q.Root.Name,
		Child: pushExpr(q.Root.Child, true),
	}}
}

// ContainsFor reports whether any for-loop occurs in e.
func ContainsFor(e xqast.Expr) bool {
	found := false
	xqast.Walk(e, func(e xqast.Expr) bool {
		if _, ok := e.(xqast.For); ok {
			found = true
		}
		return !found
	})
	return found
}

// pushExpr rewrites bottom-up: children first, then the node itself.
func pushExpr(e xqast.Expr, selective bool) xqast.Expr {
	switch v := e.(type) {
	case xqast.Sequence:
		items := make([]xqast.Expr, len(v.Items))
		for i, item := range v.Items {
			items[i] = pushExpr(item, selective)
		}
		return xqast.FlattenSequence(items)
	case xqast.Element:
		return xqast.Element{Name: v.Name, Child: pushExpr(v.Child, selective)}
	case xqast.For:
		return xqast.For{Var: v.Var, In: v.In, Return: pushExpr(v.Return, selective)}
	case xqast.If:
		then := pushExpr(v.Then, selective)
		els := pushExpr(v.Else, selective)
		iff := xqast.If{Cond: v.Cond, Then: then, Else: els}
		if selective && !ContainsFor(iff) {
			return iff
		}
		return pushIf(iff, selective)
	default:
		return e
	}
}

// pushIf applies DECOMP, then SEQ/NC/FOR, to one if-expression whose
// branches are already fully pushed.
func pushIf(iff xqast.If, selective bool) xqast.Expr {
	// DECOMP: split a non-empty else into a second if with negated
	// condition.
	if !isEmpty(iff.Else) {
		return xqast.FlattenSequence([]xqast.Expr{
			pushIf(xqast.If{Cond: iff.Cond, Then: iff.Then, Else: xqast.Empty{}}, selective),
			pushIf(xqast.If{Cond: xqast.Not{C: iff.Cond}, Then: iff.Else, Else: xqast.Empty{}}, selective),
		})
	}
	if selective && !ContainsFor(iff.Then) {
		return iff
	}
	switch then := iff.Then.(type) {
	case xqast.Empty:
		return xqast.Empty{}
	case xqast.Sequence: // SEQ
		items := make([]xqast.Expr, len(then.Items))
		for i, item := range then.Items {
			items[i] = pushIf(xqast.If{Cond: iff.Cond, Then: item, Else: xqast.Empty{}}, selective)
		}
		return xqast.FlattenSequence(items)
	case xqast.Element: // NC
		return xqast.FlattenSequence([]xqast.Expr{
			xqast.CondTag{Cond: iff.Cond, Name: then.Name, Open: true},
			pushIf(xqast.If{Cond: iff.Cond, Then: then.Child, Else: xqast.Empty{}}, selective),
			xqast.CondTag{Cond: iff.Cond, Name: then.Name, Open: false},
		})
	case xqast.For: // FOR
		return xqast.For{
			Var:    then.Var,
			In:     then.In,
			Return: pushIf(xqast.If{Cond: iff.Cond, Then: then.Return, Else: xqast.Empty{}}, selective),
		}
	case xqast.If:
		// Nested empty-else if: merge conditions conjunctively, which is
		// semantically the same and keeps pushing.
		merged := xqast.If{Cond: xqast.And{L: iff.Cond, R: then.Cond}, Then: then.Then, Else: xqast.Empty{}}
		return pushIf(merged, selective)
	default:
		return iff
	}
}

func isEmpty(e xqast.Expr) bool {
	switch e.(type) {
	case nil, xqast.Empty:
		return true
	default:
		return false
	}
}
