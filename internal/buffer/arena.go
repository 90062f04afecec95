package buffer

import "unsafe"

const (
	// slabSize is the number of Nodes carved from one backing allocation.
	slabSize = 512
	// maxRetainedSlabs bounds the slabs an idle (pooled) buffer keeps
	// across runs; a run that needs more allocates the excess again.
	maxRetainedSlabs = 32
)

// arena is the per-run node allocator: nodes are carved from slabs that
// stay owned by the arena, unlink returns reclaimed nodes to a freelist
// for immediate reuse, and Reset reclaims everything wholesale — a run
// leaves no node garbage for the GC regardless of how many nodes it
// buffered and purged.
//
// A node handed back via put must be unreachable from the live tree
// (guaranteed by the deletion discipline: only finished, role-free,
// unpinned, uncovered subtrees are unlinked). The freelist is threaded
// through the free nodes' NextSib, so it costs no allocation of its own.
type arena struct {
	slabs [][]Node
	slab  int   // index of the slab currently being carved
	next  int   // next unused index in slabs[slab]
	free  *Node // most recently freed node; NextSib links the rest
}

//gcxlint:noalloc
func (a *arena) get() *Node {
	if nd := a.free; nd != nil {
		a.free = nd.NextSib
		nd.recycle()
		return nd
	}
	if a.slab == len(a.slabs) {
		a.slabs = addSlab(a.slabs, slabSize, maxRetainedSlabs)
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

// addSlab appends a slab of n values to slabs. The slab index is made
// with room for the keep slabs a buffer retains, so it does not double
// along with the first of them.
//
//gcxlint:allocok slab growth tracks the document's buffer peak; up to keep slabs stay across runs
func addSlab[T any](slabs [][]T, n, keep int) [][]T {
	if slabs == nil {
		slabs = make([][]T, 0, keep)
	}
	return append(slabs, make([]T, n))
}

// keepSlabs drops the slabs beyond the first keep.
func keepSlabs[T any](slabs [][]T, keep int) [][]T {
	if len(slabs) > keep {
		slabs = append(make([][]T, 0, keep), slabs[:keep]...)
	}
	return slabs
}

// carved returns the number of slabs the run has carved nodes from.
func (a *arena) carved() int { return a.slab + min(a.next, 1) }

//gcxlint:noalloc
func (a *arena) put(n *Node) {
	n.NextSib = a.free
	a.free = n
}

// reset makes every slab node available again, keeping at most
// maxRetainedSlabs slabs. Carved nodes are cleared now, not on get: an
// idle (pooled) buffer must pin neither the last document's text nor,
// through a kept node's links, a slab it dropped. poison is the text
// slab's test mode: oversized texts, which no chunk holds, are
// overwritten here.
func (a *arena) reset(poison bool) {
	for i := 0; i < a.slab && i < len(a.slabs); i++ {
		clearNodes(a.slabs[i], poison)
	}
	if a.slab < len(a.slabs) {
		clearNodes(a.slabs[a.slab][:a.next], poison)
	}
	a.slabs = keepSlabs(a.slabs, maxRetainedSlabs)
	a.slab = 0
	a.next = 0
	a.free = nil
}

//gcxlint:noalloc
func clearNodes(s []Node, poison bool) {
	for i := range s {
		if poison && s[i].chunk < 0 {
			poisonBytes(unsafe.Slice(unsafe.StringData(s[i].Text), len(s[i].Text)))
		}
		s[i].recycle()
	}
}
