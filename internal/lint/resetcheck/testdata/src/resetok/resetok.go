// Package resetok exercises every way a Reset method can legitimately
// cover its receiver's fields; resetcheck must stay silent here.
package resetok

import "sync"

type inner struct {
	n int
}

func (i *inner) Reset() { i.n = 0 }

type state struct {
	a  int
	b  []byte
	m  map[string]int
	in *inner
	//gcxlint:keep hook wired at construction, never rebound
	hook func()
}

var pool = sync.Pool{New: func() any { return &state{} }}

func (s *state) Reset() {
	s.a = 0
	s.b = s.b[:0]
	clear(s.m)
	s.in.Reset()
	s.relink()
}

// relink is a same-receiver helper; it participates in the coverage scan.
func (s *state) relink() {}

func get() *state  { return pool.Get().(*state) }
func put(s *state) { pool.Put(s) }

var _ = get
var _ = put

// small is fully covered by a whole-struct assignment.
type small struct{ x, y int }

func (s *small) Reset() { *s = small{} }

// chained covers its root field through an inlined same-receiver helper,
// the Reset → initRoot shape the buffer uses.
type chained struct {
	root  *inner
	depth int
}

func (c *chained) Reset() {
	c.depth = 0
	c.initRoot()
}

func (c *chained) initRoot() { c.root = &inner{} }

// scratch is pooled without a Reset, with the annotated justification.
//
//gcxlint:noreset every byte is overwritten before use on each borrow
type scratch struct {
	buf [64]byte
}

var scratchPool sync.Pool

func useScratch() {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil {
		s = new(scratch)
	}
	scratchPool.Put(s)
}

var _ = useScratch

// keptByMethodDoc annotates the keep on the Reset method instead of the
// field declaration; both placements are valid.
type keptByMethodDoc struct {
	n    int
	hook func()
}

// Reset restores the counter; the hook is wired once at construction.
//
//gcxlint:keep hook wired at construction
func (k *keptByMethodDoc) Reset() { k.n = 0 }

// cleared is covered by clear() through an address-of helper call.
type cleared struct {
	m map[int]int
	v []int
}

func (c *cleared) Reset() {
	clear(c.m)
	wipe(&c.v)
}

func wipe(v *[]int) { *v = (*v)[:0] }

// slab is the buffer's text slab: the chunks are what it exists to keep,
// said so with a reason; everything that indexes them starts over.
type slab struct {
	chunks [][]byte
	free   []int32
	cur    int32
}

//gcxlint:keep chunks retaining chunks across runs is the slab's purpose
func (s *slab) reset() {
	s.free = s.free[:0]
	s.cur = -1
}
