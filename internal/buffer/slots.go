package buffer

// maxRetainedSlots bounds the lists each slot table of an idle (pooled)
// buffer keeps across runs: one per node the retained slabs hold.
const maxRetainedSlots = maxRetainedSlabs * slabSize

// slots is a table of lists the buffer owns for its nodes (overflow role
// entries, schema facts), so that a Node holds no slice: it names its list
// by index. A list put back keeps its capacity on the free list, so a run
// that needs it again allocates nothing; reset frees every list and keeps
// at most maxRetainedSlots of them.
type slots[T any] struct {
	lists [][]T // lists[0] is the empty list of a node that names none
	free  []int32
}

func newSlots[T any]() slots[T] { return slots[T]{lists: make([][]T, 1)} }

// get returns the index of an empty list.
//
//gcxlint:noalloc
func (s *slots[T]) get() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.lists = append(s.lists, nil) //gcxlint:allocok table growth tracks the nodes holding a list at the peak; up to maxRetainedSlots stay across runs
	return int32(len(s.lists) - 1)
}

// add appends v to list i.
//
//gcxlint:noalloc
func (s *slots[T]) add(i int32, v T) {
	s.lists[i] = append(s.lists[i], v) //gcxlint:allocok a list grows once; put and reset keep its capacity
}

// put empties list i and makes it available again.
//
//gcxlint:noalloc
func (s *slots[T]) put(i int32) {
	s.lists[i] = s.lists[i][:0]
	s.free = append(s.free, i) //gcxlint:allocok the free list grows with the table; reset bounds it
}

// reset frees every list, dropping those beyond the retention cap.
func (s *slots[T]) reset() {
	if len(s.lists) > maxRetainedSlots+1 {
		s.lists = append(make([][]T, 0, maxRetainedSlots+1), s.lists[:maxRetainedSlots+1]...)
	}
	if n := len(s.lists) - 1; cap(s.free) < n || cap(s.free) > maxRetainedSlots {
		s.free = make([]int32, 0, n)
	}
	s.free = s.free[:0]
	for i := len(s.lists) - 1; i > 0; i-- {
		s.lists[i] = s.lists[i][:0]
		s.free = append(s.free, int32(i))
	}
}
