// Package noallocbad seeds one violation of each noalloccheck rule.
package noallocbad

import (
	"fmt"
	"strings"
)

type hot struct {
	scratch []byte
}

//gcxlint:allocok test sink, not part of the hot path
func sink(v any) { _ = v }

func plain(b []byte) int { return len(b) }

//gcxlint:noalloc
func (h *hot) step(window []byte) {
	m := make(map[string]int) // want `make allocates`
	_ = m
	p := new(hot) // want `new allocates`
	_ = p
	xs := []int{1, 2, 3} // want `slice or map literal allocates`
	_ = xs
	kv := map[string]string{} // want `slice or map literal allocates`
	_ = kv
	hp := &hot{} // want `address of composite literal escapes to the heap`
	_ = hp
	f := func() {} // want `func literal allocates a closure`
	f()
	s := string(window) // want `string conversion allocates and copies`
	_ = s
	b := []byte(s) // want `string conversion allocates and copies`
	_ = b
	fmt.Println(len(window)) // want `call to fmt\.Println allocates`
	c := strings.Clone(s)    // want `call to strings\.Clone allocates`
	_ = c
	var sb strings.Builder // want `strings\.Builder grows by allocating`
	_ = sb
	sink(42) // want `interface boxing of int allocates`
}

//gcxlint:noalloc
func spawn() {
	go work() // want `go statement allocates a goroutine`
}

//gcxlint:noalloc
func work() {}

//gcxlint:noalloc
func localGrowth(n int) int {
	var acc []int // locally born: nil backing
	for i := 0; i < n; i++ {
		acc = append(acc, i) // want `append to function-local slice acc allocates`
	}
	return len(acc)
}

//gcxlint:noalloc
func cascade(b []byte) int {
	return plain(b) // want `call to plain, which is neither //gcxlint:noalloc nor declared //gcxlint:allocok`
}

//gcxlint:noalloc
func bareSuppression() {
	//gcxlint:allocok
	x := make([]int, 4) // want `//gcxlint:allocok requires a reason`
	_ = x
}

//gcxlint:allocok
func bareDeclSuppression() {} // want `declaration-level //gcxlint:allocok on bareDeclSuppression requires a reason`

// histo models the observability latency histogram: its recording path
// is annotated allocation-free, and the violations below are exactly the
// regressions internal/obs.Histogram.Observe must never reintroduce —
// lazy bucket allocation and per-sample label formatting.
type histo struct {
	counts map[string]int64
}

//gcxlint:noalloc
func (h *histo) observe(label string, nanos int64) {
	if h.counts == nil {
		h.counts = make(map[string]int64) // want `make allocates`
	}
	key := fmt.Sprintf("%s_seconds", label) // want `call to fmt\.Sprintf allocates`
	h.counts[key] += nanos
}

// structIdx models the tokenizer's structural-index classification
// chain (internal/xmlstream.StructIndex): Build runs inside fill() on
// every window slide, so it must reuse its words slice rather than
// re-making the bitmap per pass — the violation below is exactly the
// regression that would put one allocation on every refill.
type structIdx struct {
	words []uint64
}

//gcxlint:noalloc
func (ix *structIdx) build(window []byte) {
	bm := make([]uint64, (len(window)+63)/64) // want `make allocates`
	for i, c := range window {
		if c == '<' || c == '>' || c == '&' || c == '"' || c == '\'' {
			bm[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	ix.words = bm
}

// emitter models the earliest-answering emit path: the writer's
// first-byte stamp (xmlstream.Writer.stampFirst) runs on every emitted
// string and the positive-only histogram feed
// (obs.Histogram.ObservePositive) runs on every recorded run, so both
// must be plain stores and annotated callees all the way down. The
// violations below are the regressions that would put an allocation on
// every output byte or route recording through an unvetted helper.
type emitter struct {
	first    int64
	firstTag string
}

//gcxlint:noalloc
func (e *emitter) stampFirst(now int64, tag []byte) {
	if e.first != 0 {
		return
	}
	e.first = now
	e.firstTag = string(tag) // want `string conversion allocates and copies`
}

func isResult(nanos int64) bool { return nanos > 0 }

//gcxlint:noalloc
func (e *emitter) observePositive(nanos int64) {
	if !isResult(nanos) { // want `call to isResult, which is neither //gcxlint:noalloc nor declared //gcxlint:allocok`
		return
	}
	e.first = nanos
}

// numError and classifyOperand model the evaluator's comparison
// classifier (internal/eval.classify): it runs on every operand of every
// pair a join compares, and when the join keys are not numbers the REJECT
// path is the hot path. The violation below is the regression the
// classifier exists to prevent — an error value built on the reject
// path, with the input cloned into it, only to say "not a number"
// (what strconv.ParseFloat does for every string it cannot parse).
type numError struct{ fn, num string }

func (e *numError) Error() string { return e.fn + ": parsing " + e.num }

//gcxlint:noalloc
func classifyOperand(s string) (float64, error) {
	if len(s) == 0 || s[0] < '0' || s[0] > '9' {
		return 0, &numError{"classify", strings.Clone(s)} // want `address of composite literal escapes to the heap` `call to strings\.Clone allocates`
	}
	return float64(s[0] - '0'), nil
}

// slab is the buffer's text slab with the annotation forgotten at chunk
// growth: the copy itself is free, the make is not.
type slab struct {
	chunk []byte
	used  int
}

//gcxlint:noalloc
func (s *slab) keep(text string) []byte {
	if s.used+len(text) > len(s.chunk) {
		s.chunk = make([]byte, 1024) // want `make allocates`
		s.used = 0
	}
	off := s.used
	s.used += copy(s.chunk[off:], text)
	return s.chunk[off:s.used]
}

// waiter models the shared pass's wake check (internal/eval
// Evaluator.CanProceed, internal/engine scheduler.wakeable): the scheduler
// runs it once per parked member per round — thousands of times a pass —
// to decide that nothing needs doing, so it must be a few loads and
// compares. The violation below is the regression that would make doing
// nothing cost an allocation: describing the wait to decide on it.
type waiter struct {
	on    *hot
	stamp uint32
	why   string
}

//gcxlint:noalloc
func (w *waiter) canProceed(now uint32) bool {
	if w.on == nil || now != w.stamp {
		w.why = fmt.Sprintf("stamp %d -> %d", w.stamp, now) // want `call to fmt\.Sprintf allocates`
		return true
	}
	return false
}

// probeTable models the evaluator's join probe table (internal/eval
// Evaluator.lookup): a lookup runs for every probe value of every outer
// binding — the join's per-binding cost once the table is built — so its
// hits go into the table's own retained scratch. The violation below is
// the naive lookup that returns a fresh hit list each time.
type probeTable struct {
	keys  []string
	heads []int32
	next  []int32
}

//gcxlint:noalloc
func (t *probeTable) lookup(key string, bucket int) []int32 {
	var hits []int32
	for i := t.heads[bucket]; i != 0; i = t.next[i-1] {
		if t.keys[i-1] == key {
			hits = append(hits, i-1) // want `append to function-local slice hits allocates`
		}
	}
	return hits
}
