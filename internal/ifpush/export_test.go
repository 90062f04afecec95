package ifpush

import "gcx/internal/xqast"

// PushAll applies the rules to every if-expression regardless of content.
func PushAll(q *xqast.Query) *xqast.Query {
	return &xqast.Query{Root: xqast.Element{
		Name:  q.Root.Name,
		Child: pushExpr(q.Root.Child, false),
	}}
}
