package xqast

// Resolve returns a copy of q in which every name the evaluator would
// otherwise look up by string at run time is an index: variables become
// environment slots (RootVar is slot 0, for-loops take the next free slot
// in binding order), tag-name tests index the query's vocabulary
// Query.Names, comparisons are numbered, and so are the for-loops that
// qualify for a probe table (For.Join). It is the last compilation
// step — "we use a symbol table to replace tagnames by integers"
// (Section 6) — and the only form the evaluator runs. The query must be
// normalized: every variable is bound once and before its use.
func Resolve(q *Query) *Query {
	r := &resolver{slots: map[string]int{RootVar: 0}, names: map[string]int{}}
	out := &Query{Root: r.expr(q.Root).(Element)}
	out.Names, out.Slots, out.Sites, out.Joins = r.vocab, len(r.slots), r.sites, r.joins
	return out
}

type resolver struct {
	slots map[string]int
	names map[string]int
	vocab []string
	sites int
	joins int
}

func (r *resolver) slot(v string) int {
	s, ok := r.slots[v]
	if !ok {
		panic("xqast: Resolve: variable $" + v + " used before it is bound (query not normalized)")
	}
	return s
}

func (r *resolver) path(p Path) Path {
	p.Slot = r.slot(p.Var)
	steps := make([]Step, len(p.Steps))
	for i, s := range p.Steps {
		if s.Test.Kind == TestName {
			id, ok := r.names[s.Test.Name]
			if !ok {
				id = len(r.vocab)
				r.names[s.Test.Name] = id
				r.vocab = append(r.vocab, s.Test.Name)
			}
			s.Test.ID = id
		}
		steps[i] = s
	}
	p.Steps = steps
	return p
}

func (r *resolver) expr(e Expr) Expr {
	switch e := e.(type) {
	case Sequence:
		items := make([]Expr, len(e.Items))
		for i, item := range e.Items {
			items[i] = r.expr(item)
		}
		return Sequence{Items: items}
	case Element:
		e.Child = r.expr(e.Child)
		return e
	case CondTag:
		e.Cond = r.cond(e.Cond)
		return e
	case VarRef:
		e.Slot = r.slot(e.Var)
		return e
	case PathExpr:
		e.Path = r.path(e.Path)
		return e
	case For:
		e.In = r.path(e.In)
		e.Slot = len(r.slots)
		r.slots[e.Var] = e.Slot
		e.Return = r.expr(e.Return)
		e.Join = r.join(e)
		return e
	case If:
		e.Cond = r.cond(e.Cond)
		e.Then = r.expr(e.Then)
		e.Else = r.expr(e.Else)
		return e
	case SignOff:
		e.Path = r.path(e.Path)
		return e
	default: // nil, Empty, Text
		return e
	}
}

func (r *resolver) cond(c Cond) Cond {
	switch c := c.(type) {
	case Not:
		return Not{C: r.cond(c.C)}
	case And:
		return And{L: r.cond(c.L), R: r.cond(c.R)}
	case Or:
		return Or{L: r.cond(c.L), R: r.cond(c.R)}
	case Exists:
		return Exists{Path: r.path(c.Path)}
	case Compare:
		c.LHS, c.RHS = r.operand(c.LHS), r.operand(c.RHS)
		c.Site = r.sites
		r.sites++
		return c
	default: // nil, TrueCond
		return c
	}
}

func (r *resolver) operand(o Operand) Operand {
	if !o.IsLiteral {
		o.Path = r.path(o.Path)
	}
	return o
}

// join returns f's Join if f has the probe table's shape (see Join), nil
// otherwise. Which operand is K follows the evaluator's compare: the left
// one streams unless it is a literal facing a path, in which case the two
// swap. A query that names the collected side first — "if ($p/id =
// $t/k)" — therefore keeps its nested loop: there the outer operand
// streams, and collecting it ahead of the loop could pull input at a
// different point than the nested loop does.
func (r *resolver) join(f For) *Join {
	body, ok := f.Return.(If)
	if !ok {
		return nil
	}
	if _, ok := body.Else.(Empty); !ok && body.Else != nil {
		return nil
	}
	c, ok := body.Cond.(Compare)
	if !ok || c.Op != OpEq {
		return nil
	}
	key, probe := c.LHS, c.RHS
	if key.IsLiteral {
		key, probe = probe, key
	}
	if key.IsLiteral || key.Path.Slot != f.Slot || (!probe.IsLiteral && probe.Path.Slot == f.Slot) {
		return nil
	}
	signsOff := false
	Walk(body.Then, func(e Expr) bool {
		_, ok := e.(SignOff)
		signsOff = signsOff || ok
		return !signsOff
	})
	if signsOff {
		return nil
	}
	j := &Join{Table: r.joins, Cond: c, Key: key.Path, Probe: probe, Then: body.Then}
	r.joins++
	return j
}
