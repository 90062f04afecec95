package buffer

import (
	"testing"

	"gcx/internal/xqast"
)

// An idle pooled buffer must not pin freed arena nodes through the
// signOff resolution scratch: Reset clears resA/resB down to their
// backing arrays.
func TestResetClearsResolutionScratch(t *testing.T) {
	b, syms := build(false)
	bib := el(b, syms, b.Root(), "bib")
	el(b, syms, bib, "book")
	el(b, syms, bib, "book")

	steps := []xqast.Step{step(xqast.Child, xqast.NameTest("book"), false)}
	if got := len(b.Resolve(bib, steps, names(syms, steps))); got != 2 {
		t.Fatalf("resolution sanity: got %d targets, want 2", got)
	}
	if cap(b.resA) == 0 && cap(b.resB) == 0 {
		t.Fatal("expected resolution scratch to have grown")
	}

	b.Reset()
	for i, tg := range b.resA[:cap(b.resA)] {
		if tg.node != nil || tg.mult != 0 {
			t.Errorf("resA[%d] still references a node after Reset: %+v", i, tg)
		}
	}
	for i, tg := range b.resB[:cap(b.resB)] {
		if tg.node != nil || tg.mult != 0 {
			t.Errorf("resB[%d] still references a node after Reset: %+v", i, tg)
		}
	}
}
