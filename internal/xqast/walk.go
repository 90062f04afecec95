package xqast

// Walk calls fn for every expression in the tree rooted at e, in evaluation
// order (pre-order). If fn returns false, the walk does not descend into the
// children of e.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil {
		return
	}
	if !fn(e) {
		return
	}
	switch e := e.(type) {
	case Sequence:
		for _, item := range e.Items {
			Walk(item, fn)
		}
	case Element:
		Walk(e.Child, fn)
	case For:
		Walk(e.Return, fn)
	case If:
		Walk(e.Then, fn)
		Walk(e.Else, fn)
	}
}

// WalkConds calls fn for every condition appearing in the tree rooted at e,
// including nested subconditions (and/or/not operands).
func WalkConds(e Expr, fn func(Cond)) {
	Walk(e, func(e Expr) bool {
		switch e := e.(type) {
		case If:
			walkCond(e.Cond, fn)
		case CondTag:
			walkCond(e.Cond, fn)
		}
		return true
	})
}

func walkCond(c Cond, fn func(Cond)) {
	if c == nil {
		return
	}
	fn(c)
	switch c := c.(type) {
	case And:
		walkCond(c.L, fn)
		walkCond(c.R, fn)
	case Or:
		walkCond(c.L, fn)
		walkCond(c.R, fn)
	case Not:
		walkCond(c.C, fn)
	}
}

// Rewrite returns a copy of e with fn applied bottom-up: children are
// rewritten first, then fn transforms the resulting node. The copy of a
// For keeps Var, In and Return only: it drops the Slot and Join that
// Resolve fills in, so Rewrite is for queries not yet resolved.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case Sequence:
		items := make([]Expr, len(v.Items))
		for i, item := range v.Items {
			items[i] = Rewrite(item, fn)
		}
		e = Sequence{Items: items}
	case Element:
		e = Element{Name: v.Name, Child: Rewrite(v.Child, fn)}
	case For:
		e = For{Var: v.Var, In: v.In, Return: Rewrite(v.Return, fn)}
	case If:
		e = If{Cond: v.Cond, Then: Rewrite(v.Then, fn), Else: Rewrite(v.Else, fn)}
	}
	return fn(e)
}

// FlattenSequence normalizes an expression list: nested Sequences are
// inlined and Empty items dropped. It returns Empty{} for an empty result
// and the single item for a singleton.
func FlattenSequence(items []Expr) Expr {
	var flat []Expr
	var add func(Expr)
	add = func(e Expr) {
		switch e := e.(type) {
		case nil, Empty:
		case Sequence:
			for _, item := range e.Items {
				add(item)
			}
		default:
			flat = append(flat, e)
		}
	}
	for _, item := range items {
		add(item)
	}
	switch len(flat) {
	case 0:
		return Empty{}
	case 1:
		return flat[0]
	default:
		return Sequence{Items: flat}
	}
}

// Vars returns the set of variables bound by for-loops in the query,
// including RootVar, in first-binding order.
func Vars(q *Query) []string {
	out := []string{RootVar}
	seen := map[string]bool{RootVar: true}
	Walk(q.Root, func(e Expr) bool {
		if f, ok := e.(For); ok && !seen[f.Var] {
			seen[f.Var] = true
			out = append(out, f.Var)
		}
		return true
	})
	return out
}
