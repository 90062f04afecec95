package buffer

import "unsafe"

// slabSize is the number of Nodes carved from one backing allocation.
const slabSize = 512

// arena is the per-run node allocator: nodes are carved from slabs that
// stay owned by the arena, unlink returns reclaimed nodes to a freelist
// for immediate reuse, and Reset reclaims everything wholesale — a run
// leaves no node garbage for the GC regardless of how many nodes it
// buffered and purged.
//
// A node handed back via put must be unreachable from the live tree
// (guaranteed by the deletion discipline: only finished, role-free,
// unpinned, uncovered subtrees are unlinked).
type arena struct {
	slabs [][]Node
	slab  int // index of the slab currently being carved
	next  int // next unused index in slabs[slab]
	free  []*Node
}

//gcxlint:noalloc
func (a *arena) get() *Node {
	if n := len(a.free); n > 0 {
		nd := a.free[n-1]
		a.free = a.free[:n-1]
		nd.recycle()
		return nd
	}
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Node, slabSize)) //gcxlint:allocok slab growth tracks the document's buffer peak; slabs are retained across runs
	}
	s := a.slabs[a.slab]
	nd := &s[a.next]
	a.next++
	if a.next == len(s) {
		a.slab++
		a.next = 0
	}
	nd.recycle()
	return nd
}

//gcxlint:noalloc
func (a *arena) put(n *Node) { a.free = append(a.free, n) }

// reset makes every slab node available again without releasing the slabs.
// Text references of carved nodes are dropped eagerly: nodes are only
// cleared lazily on get, and an idle (pooled) buffer must not pin the
// previous document's character data — text chunks beyond the slab's
// retention cap, oversized texts — until those slots happen to be
// re-carved. poison is the text slab's test mode: the oversized texts,
// which no chunk holds, are overwritten here.
//
//gcxlint:keep slabs retaining the slabs is the arena's purpose; only their Text references are dropped
func (a *arena) reset(poison bool) {
	for i := 0; i < a.slab && i < len(a.slabs); i++ {
		clearText(a.slabs[i], poison)
	}
	if a.slab < len(a.slabs) {
		clearText(a.slabs[a.slab][:a.next], poison)
	}
	a.slab = 0
	a.next = 0
	a.free = a.free[:0]
}

//gcxlint:noalloc
func clearText(s []Node, poison bool) {
	for i := range s {
		if poison && s[i].chunk < 0 {
			poisonBytes(unsafe.Slice(unsafe.StringData(s[i].Text), len(s[i].Text)))
		}
		s[i].Text = ""
	}
}
