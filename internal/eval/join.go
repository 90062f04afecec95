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

// maxRetainedJoinEntries bounds the entry capacity one idle (pooled) table
// keeps across runs, like the text slab's maxRetainedTextBytes: a run that
// joined over a huge region must not leave an idle evaluator holding its
// arrays.
const maxRetainedJoinEntries = 1 << 14

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

// reset empties the table. Entries hold nodes and text: they are cleared
// before the slice is truncated, so nothing beyond its length is ever
// set, and capacity beyond maxRetainedJoinEntries is dropped (hits, which
// several probe values can grow past the entries, counts too).
//
//gcxlint:noalloc
func (t *joinTable) reset() {
	t.ctx, t.stamp, t.roles, t.built, t.anyKey = nil, 0, 0, false, false
	if max(cap(t.entries), cap(t.hits)) > maxRetainedJoinEntries {
		t.entries, t.heads, t.hits = nil, nil, nil
		return
	}
	clear(t.entries)
	t.entries, t.heads, t.hits = t.entries[:0], t.heads[:0], t.hits[:0]
}

// joinLoop runs the join loop f from its probe table and reports true, or
// reports false when the nested loop must run instead: f's region is
// unfinished, or the table does not describe it — then this execution is
// recorded, and the next one over the same unchanged region builds the
// table, so a loop run once per region never pays for one.
//
// The pull sequence is the nested loop's. Building reads only the
// finished region. P is collected (operandValues, the site's own cache)
// only if some binding has a key value, which is exactly when the nested
// loop would have collected it, and before that point the nested loop
// neither pulls nor writes. A hit is pinned and bound while it is
// re-checked and X runs, as the nested loop's cursor pins it; skipped
// bindings were pinned and unpinned by the nested loop with nothing in
// between, which changes nothing.
//
//gcxlint:noalloc
func (e *Evaluator) joinLoop(f xqast.For) (bool, error) {
	ctx := e.env[f.In.Slot]
	if !ctx.Finished() {
		return false, nil
	}
	t := &e.joins[f.Join.Table]
	if !t.describes(ctx) {
		t.reset()
		t.ctx, t.stamp, t.roles = ctx, ctx.Stamp(), ctx.SubtreeRoles()
		return false, nil
	}
	if !t.built {
		if err := e.buildTable(t, f); err != nil {
			return true, err
		}
	}
	if !t.anyKey {
		return true, nil
	}
	e.cmpRHS, e.cmpSite = f.Join.Probe, f.Join.Cond.Site
	probe, err := e.operandValues()
	e.cmpRHS = xqast.Operand{}
	if err != nil {
		return true, err
	}
	e.lookup(t, probe)

	var cur *buffer.Node // pinned, like the nested loop's cursor position
	for _, i := range t.hits {
		n := t.entries[i].node
		if n == cur || !linkedBelow(n, ctx) {
			continue
		}
		e.buf.Pin(n)
		if cur != nil {
			e.buf.Unpin(cur)
		}
		cur = n
		e.env[f.Slot] = n
		e.epoch[f.Slot]++
		var ok bool
		if ok, err = e.compare(f.Join.Cond); err == nil && ok {
			err = e.expr(f.Join.Then)
		}
		if err != nil {
			break
		}
		e.env[f.Slot] = nil
	}
	if cur != nil {
		e.buf.Unpin(cur)
	}
	return true, err
}

// buildTable walks t's region with the nested loop's cursor and collects
// every binding's key values with its collectValues, entering each
// binding once under each distinct key.
//
//gcxlint:noalloc
func (e *Evaluator) buildTable(t *joinTable, f xqast.For) error {
	cur := newCursor(e, t.ctx, f.In.Steps[0])
	defer cur.close()
	// A binding has one entry per distinct key, most have one key: sized
	// by the bindings, the entries grow by one allocation per table, not
	// by one per doubling of the region.
	t.entries = slices.Grow(t.entries, cur.count()) //gcxlint:allocok growth to the region's size, retained up to maxRetainedJoinEntries
	for {
		n, err := cur.next()
		if err != nil {
			return err
		}
		if n == nil {
			break
		}
		e.keys, err = e.collectValues(n, f.Join.Key.Steps, e.keys[:0])
		if err != nil {
			return err
		}
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
			t.entries = append(t.entries, joinEntry{key: k, hash: k.hash(e.seed), node: n}) //gcxlint:allocok growth to the region's size, retained up to maxRetainedJoinEntries
			e.work.entries++
		}
	}
	// Buckets at twice the entries, a power of two; each chain is linked
	// back to front, so it lists its entries in document order.
	size := 8
	for size < 2*len(t.entries) {
		size <<= 1
	}
	t.heads = slices.Grow(t.heads[:0], size)[:size] //gcxlint:allocok growth to the region's size, retained up to maxRetainedJoinEntries
	// One probe value hits each entry at most once.
	t.hits = slices.Grow(t.hits[:0], len(t.entries)) //gcxlint:allocok growth to the region's size, retained up to maxRetainedJoinEntries
	clear(t.heads)
	for i := len(t.entries) - 1; i >= 0; i-- {
		b := t.entries[i].hash & uint64(size-1)
		t.entries[i].next = t.heads[b]
		t.heads[b] = int32(i + 1)
	}
	e.work.tableBytes += int64(len(t.entries))*int64(unsafe.Sizeof(joinEntry{})) + int64(size)*4
	t.built = true
	return nil
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
