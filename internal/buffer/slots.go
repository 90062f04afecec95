package buffer

const (
	// blockLen is the number of entries in one block of a slot list: a
	// block of role entries, with its two links, is 64 bytes.
	blockLen = 7
	// blockSlabLen is the number of blocks carved from one allocation: a
	// run whose nodes carry few roles pays 8 KB for them.
	blockSlabLen = 128
)

// slots is a table of lists the buffer owns for its nodes (overflow role
// entries, schema facts), so that a Node holds no slice: it names its list
// by the index of the list's first block. A list is a chain of blockLen-
// entry blocks carved from slabs the table owns, the way the arena carves
// nodes: every block but a chain's last is full, and a freed block goes on
// a free list threaded through its next link. A run therefore allocates
// per slab, never per list or per growth of one, and reset keeps every
// slab. Entries hold no pointers, so neither put nor reset clears them.
type slots[T any] struct {
	slabs [][]block[T]
	// used is the number of blocks carved so far. Block 0 is never handed
	// out: index 0 names the empty list of a node that holds none.
	used int32
	free int32 // the first free block (0: none)
}

// block is one link of a slot list.
type block[T any] struct {
	v    [blockLen]T
	n    int32 // entries in v
	next int32 // the list's next block, or the free list's (0: none)
}

func newSlots[T any]() slots[T] { return slots[T]{used: 1} }

// at returns block i.
//
//gcxlint:noalloc
func (s *slots[T]) at(i int32) *block[T] {
	return &s.slabs[uint32(i)/blockSlabLen][uint32(i)%blockSlabLen]
}

// tail returns the last block of list i and the block before it (nil if
// the list has one block).
//
//gcxlint:noalloc
func (s *slots[T]) tail(i int32) (prev, last *block[T]) {
	last = s.at(i)
	for last.next != 0 {
		prev, last = last, s.at(last.next)
	}
	return prev, last
}

// get returns the index of an empty list.
//
//gcxlint:noalloc
func (s *slots[T]) get() int32 {
	i := s.free
	if i != 0 {
		s.free = s.at(i).next
	} else {
		if int(s.used)/blockSlabLen == len(s.slabs) {
			s.slabs = addSlab(s.slabs, blockSlabLen)
		}
		i = s.used
		s.used++
	}
	b := s.at(i)
	b.n, b.next = 0, 0
	return i
}

// add appends v to list i.
//
//gcxlint:noalloc
func (s *slots[T]) add(i int32, v T) {
	_, b := s.tail(i)
	if b.n == blockLen {
		b.next = s.get()
		b = s.at(b.next)
	}
	b.v[b.n] = v
	b.n++
}

// pop removes the last entry of list i, which must not be empty, and
// returns it, reporting whether the list is now empty. A trailing block
// it empties goes back on the free list; an emptied list is the caller's
// to put.
//
//gcxlint:noalloc
func (s *slots[T]) pop(i int32) (v T, empty bool) {
	prev, b := s.tail(i)
	b.n--
	v = b.v[b.n]
	if b.n == 0 && prev != nil {
		b.next = s.free
		s.free = prev.next
		prev.next = 0
	}
	return v, prev == nil && b.n == 0
}

// put returns every block of list i to the free list.
//
//gcxlint:noalloc
func (s *slots[T]) put(i int32) {
	_, b := s.tail(i)
	b.next = s.free
	s.free = i
}

// len returns the number of entries in list i.
//
//gcxlint:noalloc
func (s *slots[T]) len(i int32) int {
	n := 0
	for ; i != 0; i = s.at(i).next {
		n += int(s.at(i).n)
	}
	return n
}

// carved returns the number of slabs the run has carved blocks from.
func (s *slots[T]) carved() int {
	if s.used == 1 {
		return 0 // block 0 is reserved, not carved
	}
	return (int(s.used) + blockSlabLen - 1) / blockSlabLen
}

// appendTo appends the entries of list i to dst.
func (s *slots[T]) appendTo(dst []T, i int32) []T {
	for ; i != 0; i = s.at(i).next {
		dst = append(dst, s.at(i).v[:s.at(i).n]...)
	}
	return dst
}

// reset frees every list.
//
//gcxlint:keep slabs every carved block is free again; keeping the slabs spares the next run their allocation
func (s *slots[T]) reset() {
	s.used, s.free = 1, 0
}
