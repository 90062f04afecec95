package eval

// Test-only windows into the evaluator for the external suite
// (join_test.go), which drives it behind the real projector chain.

// Work is the evaluator's deterministic cost record since its last Reset.
type Work struct {
	Compares    int64 // atom pairs compared
	Collections int64 // collected-operand sequences built
	NameLookups int64 // string-keyed symbol table accesses
}

func (e *Evaluator) Work() Work {
	return Work{e.work.compares, e.work.collections, e.work.nameLookups}
}

// Retained counts what an idle evaluator still holds of its last run:
// bound nodes, operand values anywhere within the sites' capacity, and
// the active comparison's operand strings.
func (e *Evaluator) Retained() int {
	n := 0
	for _, b := range e.env {
		if b != nil {
			n++
		}
	}
	for _, s := range e.sites[:cap(e.sites)] {
		if s.epoch != 0 {
			n++
		}
		for _, a := range s.vals[:cap(s.vals)] {
			if a != (atom{}) {
				n++
			}
		}
	}
	if e.cmpRHS.Lit != "" || e.cmpRHS.Path.Var != "" {
		n++
	}
	return n
}
