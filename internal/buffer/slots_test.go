package buffer

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSlotListsMatchModel drives a slot table's lists at random — appends
// that fill a block and chain the next, pops that empty a trailing block,
// puts of whole lists — and compares every list with a slice after each
// step. Enough lists grow long enough that chains span several blocks
// and the blocks span several slabs; freed blocks must be reused before
// any is carved anew, and reset must rewind the table.
func TestSlotListsMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := newSlots[int32]()
	model := map[int32][]int32{}
	var ids []int32
	check := func(step int) {
		t.Helper()
		for _, i := range ids {
			if got := s.appendTo(nil, i); !slices.Equal(got, model[i]) || s.len(i) != len(model[i]) {
				t.Fatalf("step %d: list %d holds %v (len %d), model %v", step, i, got, s.len(i), model[i])
			}
		}
	}
	maxUsed := int32(0)
	for step := range 40000 {
		switch k := r.Intn(100); {
		case k < 3 || len(ids) == 0:
			i := s.get()
			if _, ok := model[i]; ok {
				t.Fatalf("step %d: get returned list %d, which is in use", step, i)
			}
			model[i] = nil
			ids = append(ids, i)
		case k < 5:
			j := r.Intn(len(ids))
			s.put(ids[j])
			delete(model, ids[j])
			ids = slices.Delete(ids, j, j+1)
		case k < 25:
			i := ids[r.Intn(len(ids))]
			if len(model[i]) == 0 {
				continue
			}
			v, empty := s.pop(i)
			m := model[i]
			if v != m[len(m)-1] || empty != (len(m) == 1) {
				t.Fatalf("step %d: pop of list %d gave %d (empty %v), model %v", step, i, v, empty, m)
			}
			model[i] = m[:len(m)-1]
		default:
			i := ids[r.Intn(len(ids))]
			v := r.Int31()
			s.add(i, v)
			model[i] = append(model[i], v)
		}
		maxUsed = max(maxUsed, s.used)
		if step%97 == 0 {
			check(step)
		}
	}
	check(-1)
	if maxUsed <= 2*blockSlabLen {
		t.Fatalf("sanity: the lists took only %d blocks", maxUsed)
	}
	held := 0 // a list keeps its first block while it is empty
	for _, i := range ids {
		held += max(1, (len(model[i])+blockLen-1)/blockLen)
	}
	free := 0
	for i := s.free; i != 0; i = s.at(i).next {
		free++
	}
	if carved := int(s.used) - 1; carved != held+free {
		t.Errorf("%d blocks carved, %d held by lists and %d free", carved, held, free)
	}
	s.reset()
	if s.used != 1 || s.free != 0 || s.carved() != 0 {
		t.Errorf("after reset: %d blocks carved, block %d free", s.used-1, s.free)
	}
}
