package buffer

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestNodeLayout: a buffered node is 104 bytes and owns no heap memory —
// its role entries beyond the inline one and its schema facts live in
// the buffer's slot tables — so a run allocates per slab, not per node.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout assertion is for 64-bit targets")
	}
	if got := unsafe.Sizeof(Node{}); got != 104 {
		t.Errorf("unsafe.Sizeof(Node) = %d, want 104", got)
	}
	if got := unsafe.Sizeof(roleEntry{}); got != 8 {
		t.Errorf("unsafe.Sizeof(roleEntry) = %d, want 8", got)
	}
	nt := reflect.TypeOf(Node{})
	for i := 0; i < nt.NumField(); i++ {
		if f := nt.Field(i); f.Type.Kind() == reflect.Slice || f.Type.Kind() == reflect.Map {
			t.Errorf("Node.%s is a %s: a node must name buffer-owned storage by index", f.Name, f.Type)
		}
	}
}

// TestStampMovesWithEveryWakingEvent: each event a blocked evaluator can
// be waiting for on a node — a child linked below it, Finish, Seal, a new
// MarkNoMore fact — changes that node's stamp and no other's; events that
// satisfy no wait (roles, pins, a purge below, a repeated fact) leave it
// alone, and a recycled node moves on from the stamp its slot had.
func TestStampMovesWithEveryWakingEvent(t *testing.T) {
	b, syms := build(false)
	root := b.Root()
	a := el(b, syms, root, "a")
	if root.Stamp() == 0 {
		t.Fatal("linking a child must move the parent's stamp")
	}
	moved := func(n *Node, what string, f func()) {
		t.Helper()
		before, rootBefore := n.Stamp(), root.Stamp()
		f()
		if n.Stamp() == before {
			t.Errorf("%s left the stamp at %d", what, before)
		}
		if n != root && root.Stamp() != rootBefore {
			t.Errorf("%s moved the root's stamp", what)
		}
	}
	still := func(n *Node, what string, f func()) {
		t.Helper()
		before := n.Stamp()
		f()
		if n.Stamp() != before {
			t.Errorf("%s moved the stamp %d -> %d", what, before, n.Stamp())
		}
	}
	var c *Node
	moved(a, "AppendElement below", func() { c = el(b, syms, a, "c") })
	moved(a, "AppendText below", func() { b.AppendText(a, "x") })
	moved(a, "MarkNoMore", func() { b.MarkNoMore(a, syms.Intern("c")) })
	still(a, "a repeated MarkNoMore", func() { b.MarkNoMore(a, syms.Intern("c")) })
	still(a, "AddRole", func() { b.AddRole(a, 1, 1) })
	still(a, "Pin/Unpin", func() { b.Pin(a); b.Unpin(a) })
	still(a, "a purge below", func() { b.Finish(c) })
	if !c.Unlinked() {
		t.Fatal("the finished, role-free child should have been purged")
	}
	purged := c.Stamp()
	moved(a, "Seal", func() { b.Seal(a) })
	moved(a, "Finish", func() { b.Finish(a) })

	// The arena hands c's slot out again: a fresh node whose stamp no state
	// of c ever had, so (pointer, stamp) still names one node state.
	d := el(b, syms, root, "d")
	if d != c {
		t.Fatalf("expected the purged node to be recycled")
	}
	if d.Stamp() != purged+1 {
		t.Fatalf("recycled node starts at stamp %d, want %d (its slot's last stamp + 1)", d.Stamp(), purged+1)
	}
}
