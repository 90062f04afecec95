package eval

import (
	"testing"
	"unsafe"
)

// A closed cursor sits in the evaluator's freelist until the next
// newCursor; while it waits there it must not pin its context node (or
// anything else from the finished iteration).
func TestClosedCursorRetainsNothing(t *testing.T) {
	buf, syms := setup()
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	buf.Finish(buf.AppendElement(r, syms.Intern("a")))
	buf.Finish(r)

	e := evaluator(buf, &scriptFeeder{})
	cur := newCursor(e, r, child(e, "a"))
	if _, ok := cur.next(); !ok {
		t.Fatal("a finished region parked the cursor")
	}
	cur.close()

	pooled := e.cursors.free
	if pooled == nil || pooled.nextFree != nil {
		t.Fatal("freelist does not hold exactly the closed cursor")
	}
	if !pooled.released {
		t.Error("pooled cursor not marked released")
	}
	if pooled.ctx != nil || pooled.cur != nil || pooled.e != nil {
		t.Errorf("pooled cursor still pins nodes: ctx=%p cur=%p e=%p", pooled.ctx, pooled.cur, pooled.e)
	}
	if pooled.step.Test.Name != "" || pooled.sym != 0 {
		t.Errorf("pooled cursor retains step strings: %+v", pooled.step)
	}
}

// TestJoinTableRetentionCap: a probe table reports its arrays' capacity
// as retained — the pass's budget is what caps it — and emptying it keeps
// that capacity while holding nothing.
func TestJoinTableRetentionCap(t *testing.T) {
	buf, syms := setup()
	n := buf.AppendElement(buf.Root(), syms.Intern("t"))
	const size = 1 << 14
	tb := joinTable{ctx: n, built: true, entries: make([]joinEntry, size)}
	for i := range tb.entries {
		tb.entries[i] = joinEntry{key: joinKey{text: "k"}, node: n}
	}
	tb.heads = make([]int32, 2*size)
	tb.hits = make([]int32, size)
	want := size*int64(unsafe.Sizeof(joinEntry{})) + 3*size*4
	e := Evaluator{joins: []joinTable{tb}}
	if got := e.Retained(); got != want {
		t.Errorf("a table of %d entries reports %d bytes, want %d", size, got, want)
	}
	tb = e.joins[0]
	tb.reset()
	if tb.ctx != nil || len(tb.entries) != 0 || len(tb.heads) != 0 || len(tb.hits) != 0 {
		t.Fatalf("reset left %+v", tb)
	}
	for _, en := range tb.entries[:cap(tb.entries)] {
		if en != (joinEntry{}) {
			t.Fatalf("an idle table still holds %+v", en)
		}
	}
	if e.joins[0] = tb; e.Retained() != want {
		t.Errorf("reset took the table's retained bytes from %d to %d: it lowers no capacity", want, e.Retained())
	}
}

// TestIdleCursorRetentionIsBounded: however many cursors the last run
// held open at once, a reset evaluator keeps their chunks, Retained
// counts every one beyond the first — what the pass bounds an idle run
// state by — every carved cursor is zeroed — those the run closed and
// one it left open, as a failed run does — and the next cursor is carved
// from the first chunk again. The open cursors are nested loops down
// BenchmarkDeepNesting's chain of <a> elements, one level each.
func TestIdleCursorRetentionIsBounded(t *testing.T) {
	const depth = 2500
	buf, syms := setup()
	n := buf.AppendElement(buf.Root(), syms.Intern("site"))
	for range depth {
		n = buf.AppendElement(n, syms.Intern("a"))
	}
	e := evaluator(buf, &scriptFeeder{})
	a := child(e, "a")
	open := make([]*cursor, 0, depth)
	for ctx := buf.Root().FirstChild; len(open) < depth; {
		c := newCursor(e, ctx, a)
		m, ok := c.next()
		if !ok || m == nil {
			t.Fatalf("level %d: %v, %v", len(open), m, ok)
		}
		open = append(open, c)
		ctx = m
	}
	chunks := len(e.cursors.chunks)
	if chunks*cursorChunk < depth {
		t.Fatalf("sanity: %d open cursors took only %d chunks", depth, chunks)
	}
	for _, c := range open[1:] {
		c.close() // open[0] is left open
	}

	e.Reset(Options{})
	if got := len(e.cursors.chunks); got != chunks {
		t.Errorf("idle evaluator keeps %d of %d cursor chunks", got, chunks)
	}
	if got, want := e.Retained(), int64(chunks-1)*cursorChunk*int64(unsafe.Sizeof(cursor{})); got < want {
		t.Errorf("Retained reports %d for %d chunks beyond the first, want at least %d", got, chunks-1, want)
	}
	for _, chunk := range e.cursors.chunks {
		for i := range chunk {
			if chunk[i] != (cursor{}) {
				t.Fatalf("an idle evaluator's cursor still holds %+v", chunk[i])
			}
		}
	}
	if c := newCursor(e, buf.Root(), a); c != &e.cursors.chunks[0][0] {
		t.Error("the first cursor after Reset is not carved from the first chunk")
	}
}

// TestRefutedCursorIsPooled: a cursor whose step the schema refutes
// matches nothing; the frame that iterates it pops at its first advance,
// and the cursor must go back to the freelist then, as every exhausted
// one does — nothing else would ever close it.
func TestRefutedCursorIsPooled(t *testing.T) {
	buf, syms := setup()
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	e := evaluator(buf, &scriptFeeder{})
	cur := newCursor(e, r, child(e, "a"))
	cur.done = true // what newCursor sets when schemaDecides refutes the step
	e.push(frame{op: opOutput, cur: cur})
	if n, ok := e.next(&e.stack[0]); n != nil || !ok {
		t.Fatalf("a refuted cursor returned %v, %v", n, ok)
	}
	if len(e.stack) != 0 || e.cursors.free != cur || !cur.released {
		t.Fatalf("the refuted cursor's frame left %d frames, cursor pooled %v", len(e.stack), e.cursors.free == cur)
	}
}
