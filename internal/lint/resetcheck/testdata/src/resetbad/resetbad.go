// Package resetbad seeds one violation of each resetcheck rule; the CI
// self-check also runs the real gcxlint binary over this package and
// asserts a non-zero exit.
package resetbad

import "sync"

// leaky is the PR-1 bug class: pooled state whose Reset forgets a field.
type leaky struct {
	kept  int
	buf   []byte
	stale map[string]int
}

var pool = sync.Pool{New: func() any { return &leaky{} }}

func (l *leaky) Reset() { // want `leaky\.Reset does not reset field "stale"`
	l.kept = 0
	l.buf = l.buf[:0]
}

func recycle(l *leaky) {
	pool.Put(l)
}

var _ = recycle

// orphan cycles through a pool with no Reset at all.
type orphan struct{ n int } // want `orphan cycles through a sync\.Pool but declares no Reset method`

var orphanPool sync.Pool

func orphanUse() {
	o, _ := orphanPool.Get().(*orphan)
	orphanPool.Put(o)
}

var _ = orphanUse

// valrecv declares Reset on a value receiver, which mutates a copy.
type valrecv struct{ n int }

func (v valrecv) Reset() { v.n = 0 } // want `value receiver`

// annotated carries a keep annotation with no reason, so the escape hatch
// does not engage and the field still counts as unreset.
type annotated struct {
	//gcxlint:keep big
	big []byte // want `//gcxlint:keep big requires a reason`
	n   int
}

func (a *annotated) Reset() { a.n = 0 } // want `does not reset field "big"`

// mistargeted names a field that does not exist.
type mistargeted struct {
	n int
}

// Reset clears the counter.
//
//gcxlint:keep nosuch left over from a refactor
func (m *mistargeted) Reset() { m.n = 0 } // want `unknown field "nosuch"`

// slab is the buffer's text slab with its free list forgotten: the next
// run would carve text from chunks the last run still counts as live.
type slab struct {
	chunks [][]byte
	free   []int32
	cur    int32
}

func (s *slab) reset() { // want `slab\.reset does not reset field "chunks"` `slab\.reset does not reset field "free"`
	s.cur = -1
}

// node stands in for a buffered document node.
type node struct{ stamp uint32 }

// evaluator is the pooled evaluator with its wait record half forgotten:
// the stamp is cleared, but the node the last run parked on stays
// referenced for as long as the evaluator sits in its pool — one buffered
// node of a finished run, and through its parent pointers the tree above
// it, pinned by an idle object.
type evaluator struct {
	wait      *node
	waitStamp uint32
}

func (e *evaluator) Reset() { // want `evaluator\.Reset does not reset field "wait"`
	e.waitStamp = 0
}
