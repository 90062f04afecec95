package eval

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"unsafe"

	"gcx/internal/buffer"
	"gcx/internal/xqast"
)

// The probe table (DESIGN.md, "The probe table"): a join loop — "for $v in
// $c/step return if (K = P) then X else ()", marked by xqast.Resolve —
// whose binding region $c is finished answers each execution by looking
// the probe values up in a table of $v's bindings keyed by K, built once
// over the region, instead of comparing every binding. The table is only a
// filter in front of the nested loop's own answer: every hit is re-checked
// with the real comparison before X runs.

// joinKey is an atom's equality class under "=": two atoms compare equal
// iff both have a key (NaN has none) and the keys are ==. Numbers key by
// value with -0 folded into +0, everything else by its untrimmed text;
// whether a value is a number is a function of its text, so two equal
// texts always land in the same class.
type joinKey struct {
	text  string
	num   float64
	isNum bool
}

// keyOf returns a's key, or false for NaN, which equals nothing.
//
//gcxlint:noalloc
func keyOf(a atom) (joinKey, bool) {
	switch {
	case !a.isNum:
		return joinKey{text: a.text}, true
	case a.num != a.num:
		return joinKey{}, false
	case a.num == 0:
		return joinKey{isNum: true}, true
	}
	return joinKey{num: a.num, isNum: true}, true
}

//gcxlint:noalloc
func (k joinKey) hash(seed maphash.Seed) uint64 {
	if !k.isNum {
		return maphash.String(seed, k.text)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(k.num))
	return maphash.Bytes(seed, b[:])
}

// joinEntry is one (key, binding) pair; a binding has one entry per
// distinct key among its key values. Entries are appended in document
// order of their bindings, so a binding's entries are contiguous.
type joinEntry struct {
	key  joinKey
	hash uint64
	node *buffer.Node
	next int32 // 1 + index of the next entry in the bucket; 0 ends it
}

// joinTable is one join loop's probe table. ctx, stamp and roles name the
// binding region it describes: the context node, its change stamp and its
// subtree's role count when the table was built — or, while built is
// false, when the loop last ran over the region without a table.
type joinTable struct {
	ctx   *buffer.Node
	stamp uint32
	roles int64
	built bool
	// anyKey records that some binding had a key value, NaN included: the
	// nested loop collects P at the first key value it compares, so without
	// one it never collects P at all.
	anyKey  bool
	entries []joinEntry
	heads   []int32 // bucket → 1 + index of its first entry; 0: empty
	hits    []int32 // entry indexes of one probe, document order
}

// describes reports whether the table (or the sighting it records) is
// about ctx as it is now. The three parts are the validity rule: the same
// node (recycling moves the stamp on, so a reused slot cannot pass for
// it), no child linked below it since (a link moves the stamp), and no
// role removed below it since (only a removal can unlink a binding or a
// key value below a finished node; the evaluator does not pin the
// bindings between executions).
//
//gcxlint:noalloc
func (t *joinTable) describes(ctx *buffer.Node) bool {
	return t.ctx == ctx && t.stamp == ctx.Stamp() && t.roles == ctx.SubtreeRoles()
}

// reset empties the table, keeping its arrays' capacity. Entries hold
// nodes and text: they are cleared before the slice is truncated, so
// nothing beyond its length is ever set.
//
//gcxlint:noalloc
func (t *joinTable) reset() {
	t.ctx, t.stamp, t.roles, t.built, t.anyKey = nil, 0, 0, false, false
	clear(t.entries)
	t.entries, t.heads, t.hits = t.entries[:0], t.heads[:0], t.hits[:0]
}

// tableReady reports whether join loop f can run from its probe table
// (joinLoop): not while f's region is unfinished, nor when the table does
// not describe it — then this execution is recorded, and the next one over
// the same region builds the table, so a loop run once never pays for one.
//
//gcxlint:noalloc
func (e *Evaluator) tableReady(f xqast.For) bool {
	ctx := e.env[f.In.Slot]
	if !ctx.Finished() {
		return false
	}
	t := &e.joins[f.Join.Table]
	if !t.describes(ctx) {
		t.reset()
		t.ctx, t.stamp, t.roles = ctx, ctx.Stamp(), ctx.SubtreeRoles()
		return false
	}
	return true
}

// joinLoop runs join loop frame f from its probe table: it builds the
// table if it has not been (buildTable), collects the probe values, and
// runs the body for the bindings they hit.
//
// The pull sequence is the nested loop's. Building reads only the
// finished region. P is collected (operand, the site's own cache) only if
// some binding has a key value, exactly when the nested loop would have
// collected it; before that, the nested loop neither pulls nor writes. A
// hit is pinned (f.n) and bound while it is re-checked and X runs, as the
// nested loop's cursor pins it; skipped bindings were pinned and unpinned
// by the nested loop with nothing in between, which changes nothing.
//
//gcxlint:noalloc
func (e *Evaluator) joinLoop(f *frame) (bool, error) {
	x := f.x.(xqast.For)
	j := x.Join
	t := &e.joins[j.Table]
	switch f.pc {
	case 0:
		f.pc = 1
		if !t.built {
			e.push(frame{op: opBuild, x: f.x, cur: newCursor(e, t.ctx, x.In.Steps[0])})
			return true, nil
		}
		fallthrough
	case 1:
		if !t.anyKey {
			e.pop()
			return true, nil
		}
		e.cmpRHS, e.cmpSite = j.Probe, j.Cond.Site
		f.pc = 2
		if !e.operand() {
			return true, nil
		}
		fallthrough
	case 2:
		e.lookup(t, e.sites[e.cmpSite].vals)
	case 4: // hit f.i-1 is bound and re-checked
		f.pc = 3
		if e.ret {
			return true, e.call(j.Then)
		}
	}
	f.pc = 3
	e.env[x.Slot] = nil
	for int(f.i) < len(t.hits) {
		n := t.entries[t.hits[f.i]].node
		f.i++
		if n == f.n || !linkedBelow(n, t.ctx) {
			continue
		}
		e.buf.Pin(n)
		if f.n != nil {
			e.buf.Unpin(f.n)
		}
		f.n = n
		e.env[x.Slot] = n
		e.epoch[x.Slot]++
		f.pc = 4
		e.compare(j.Cond)
		return true, nil
	}
	if f.n != nil {
		e.buf.Unpin(f.n)
	}
	e.pop()
	return true, nil
}

// buildTable walks the table's region with the nested loop's cursor and
// collects every binding's key values with collectValues, entering each
// binding once under each distinct key; then it links the buckets.
//
//gcxlint:noalloc
func (e *Evaluator) buildTable(f *frame) (bool, error) {
	x := f.x.(xqast.For)
	t := &e.joins[x.Join.Table]
	switch f.pc {
	case 0:
		// A binding has one entry per distinct key, most have one key:
		// sized by the bindings, the entries grow by one allocation per
		// table, not by one per doubling of the region.
		t.entries = slices.Grow(t.entries, f.cur.count()) //gcxlint:allocok growth to the region's size; the pass decides whether an idle state keeps it
	case 1: // f.n's keys are collected
		first := len(t.entries)
	values:
		for _, v := range e.keys {
			t.anyKey = true
			k, ok := keyOf(v)
			if !ok {
				continue
			}
			for _, en := range t.entries[first:] {
				if en.key == k {
					continue values
				}
			}
			t.entries = append(t.entries, joinEntry{key: k, hash: k.hash(e.seed), node: f.n}) //gcxlint:allocok growth to the region's size; the pass decides whether an idle state keeps it
			e.work.entries++
		}
	}
	f.pc = 2
	n, ok := e.next(f)
	if n != nil {
		f.n, f.pc = n, 1
		e.keys = e.keys[:0]
		e.stream(opCollect, n, x.Join.Key.Steps, &e.keys)
		return true, nil
	}
	if !ok {
		return false, nil
	}
	// Buckets at twice the entries, a power of two; each chain is linked
	// back to front, so it lists its entries in document order.
	size := 8
	for size < 2*len(t.entries) {
		size <<= 1
	}
	t.heads = slices.Grow(t.heads[:0], size)[:size] //gcxlint:allocok growth to the region's size; the pass decides whether an idle state keeps it
	// One probe value hits each entry at most once.
	t.hits = slices.Grow(t.hits[:0], len(t.entries)) //gcxlint:allocok growth to the region's size; the pass decides whether an idle state keeps it
	clear(t.heads)
	for i := len(t.entries) - 1; i >= 0; i-- {
		b := t.entries[i].hash & uint64(size-1)
		t.entries[i].next = t.heads[b]
		t.heads[b] = int32(i + 1)
	}
	e.work.tableBytes += int64(len(t.entries))*int64(unsafe.Sizeof(joinEntry{})) + int64(size)*4
	t.built = true
	return true, nil
}

// lookup sets t.hits to the entries whose key equals one of the probe
// values, in document order of their bindings. Several probe values give
// the union of their hits; a binding reached twice is skipped by the
// caller, whose hits are then adjacent.
//
//gcxlint:noalloc
func (e *Evaluator) lookup(t *joinTable, probe []atom) {
	t.hits = t.hits[:0]
	mask := uint64(len(t.heads) - 1)
	for _, v := range probe {
		k, ok := keyOf(v)
		if !ok {
			continue
		}
		e.work.probes++
		h := k.hash(e.seed)
		for i := t.heads[h&mask]; i != 0; i = t.entries[i-1].next {
			if en := &t.entries[i-1]; en.hash == h && en.key == k {
				t.hits = append(t.hits, i-1) //gcxlint:allocok growth to the largest hit set, retained with the table
			}
		}
	}
	if len(probe) > 1 {
		slices.Sort(t.hits)
		t.hits = slices.Compact(t.hits)
	}
}

// linkedBelow reports whether n is still in the tree below ctx. A binding
// the table lists may have been reclaimed since the table was built (and
// its slot handed out again, then linked somewhere new, never below the
// finished ctx).
//
//gcxlint:noalloc
func linkedBelow(n, ctx *buffer.Node) bool {
	if n.Unlinked() {
		return false
	}
	for a := n.Parent; a != nil; a = a.Parent {
		if a == ctx {
			return true
		}
	}
	return false
}
