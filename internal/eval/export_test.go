package eval

import (
	"unsafe"

	"gcx/internal/buffer"
)

// Test-only windows into the evaluator for the external suite
// (join_test.go), which drives it behind the real projector chain.

// Work is the evaluator's deterministic cost record since its last Reset.
type Work struct {
	Compares    int64 // atom pairs compared
	Collections int64 // collected-operand sequences built
	NameLookups int64 // string-keyed symbol table accesses
	Entries     int64 // probe table entries built
	Probes      int64 // probe table lookups
	TableBytes  int64 // probe table arrays built
}

func (e *Evaluator) Work() Work {
	w := e.work
	return Work{w.compares, w.collections, w.nameLookups, w.entries, w.probes, w.tableBytes}
}

// EntryBytes is the size of one probe table entry; a bucket is 4 bytes.
const EntryBytes = int64(unsafe.Sizeof(joinEntry{}))

// Pinned counts what an idle evaluator still holds of its last run:
// bound nodes, operand values anywhere within the sites' and the key
// scratch's capacity, the active comparison's operand strings, and
// probe tables: a recorded region or entries anywhere within capacity.
func (e *Evaluator) Pinned() int {
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
	for _, a := range e.keys[:cap(e.keys)] {
		if a != (atom{}) {
			n++
		}
	}
	for _, t := range e.joins[:cap(e.joins)] {
		if t.ctx != nil {
			n++
		}
		for _, en := range t.entries[:cap(t.entries)] {
			if en != (joinEntry{}) {
				n++
			}
		}
	}
	return n
}

// AtomBytes is the size of one operand value.
const AtomBytes = int64(unsafe.Sizeof(atom{}))

// OperandCapacity is the largest room an evaluator's operand scratch
// holds: a site's collected operand or the key scratch.
func (e *Evaluator) OperandCapacity() int {
	n := cap(e.keys)
	for _, s := range e.sites[:cap(e.sites)] {
		n = max(n, cap(s.vals))
	}
	return n
}

// Binding returns the node bound to slot, nil between bindings, and the
// slot's epoch, which moves on at every binding.
func (e *Evaluator) Binding(slot int) (*buffer.Node, uint64) {
	if slot >= len(e.env) {
		return nil, 0
	}
	return e.env[slot], e.epoch[slot]
}
