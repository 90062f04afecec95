package buffer

import "testing"

// TestSealFinishesWithoutDeleting: sealing makes a node report Finished()
// (so cursors and blocking waits stop) but never marks it physically
// finished — deletion still waits for the real end tag, keeping the arena
// safe even when a schema-invalid document contradicts the seal.
func TestSealFinishesWithoutDeleting(t *testing.T) {
	b, syms := build(false)
	n := el(b, syms, b.Root(), "a")
	if n.Finished() || n.Sealed() {
		t.Fatal("fresh element must be open")
	}
	b.AddRole(n, 1, 1)
	b.Seal(n)
	if !n.Finished() || !n.Sealed() {
		t.Fatal("sealed element must report Finished")
	}
	// Sealed-but-unfinished nodes survive a signOff: the arena defers the
	// physical delete to the real end tag.
	if err := b.SignOff(n, nil, nil, 1); err != nil {
		t.Fatalf("signOff: %v", err)
	}
	if got := b.Stats().NodesDeleted; got != 0 {
		t.Fatalf("sealed node was deleted before its end tag (deleted=%d)", got)
	}
	// The real finish releases it.
	b.Finish(n)
	if got := b.Stats().NodesDeleted; got == 0 {
		t.Fatal("finished irrelevant node must be reclaimed")
	}
}

// TestSealOnlyElements: sealing is meaningful only for elements; text and
// root nodes are unaffected.
func TestSealOnlyElements(t *testing.T) {
	b, syms := build(false)
	n := el(b, syms, b.Root(), "a")
	txt := b.AppendText(n, "x")
	b.Seal(txt)
	b.Seal(b.Root())
	if txt.Sealed() || b.Root().Sealed() {
		t.Fatal("Seal must only mark elements")
	}
}
