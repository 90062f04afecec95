package eval

import "testing"

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
	if _, err := cur.next(); err != nil {
		t.Fatal(err)
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

// A probe table that grew past maxRetainedJoinEntries gives its arrays up
// when it is emptied; one within the cap keeps its capacity, holding
// nothing.
func TestJoinTableRetentionCap(t *testing.T) {
	buf, syms := setup()
	n := buf.AppendElement(buf.Root(), syms.Intern("t"))
	for _, size := range []int{maxRetainedJoinEntries, maxRetainedJoinEntries + 1} {
		tb := joinTable{ctx: n, built: true, entries: make([]joinEntry, size)}
		for i := range tb.entries {
			tb.entries[i] = joinEntry{key: joinKey{text: "k"}, node: n}
		}
		tb.heads = make([]int32, 2*size)
		tb.hits = make([]int32, size)
		tb.reset()
		if tb.ctx != nil || len(tb.entries) != 0 || len(tb.heads) != 0 || len(tb.hits) != 0 {
			t.Fatalf("%d entries: reset left %+v", size, tb)
		}
		for _, en := range tb.entries[:cap(tb.entries)] {
			if en != (joinEntry{}) {
				t.Fatalf("%d entries: an idle table still holds %+v", size, en)
			}
		}
		if kept := cap(tb.entries) > 0; kept != (size <= maxRetainedJoinEntries) {
			t.Errorf("%d entries: idle capacity %d, cap is %d", size, cap(tb.entries), maxRetainedJoinEntries)
		}
	}
}

// TestIdleCursorRetentionIsBounded: however many cursors the last run
// held open at once, a reset evaluator keeps at most
// maxRetainedCursorChunks chunks of them, every carved cursor zeroed —
// those the run closed and one it left open, as a failed run does — and
// carves its next cursor from the first chunk again. The open cursors are
// nested loops down BenchmarkDeepNesting's chain of <a> elements, one
// level each.
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
		m, err := c.next()
		if err != nil || m == nil {
			t.Fatalf("level %d: %v, %v", len(open), m, err)
		}
		open = append(open, c)
		ctx = m
	}
	if got := len(e.cursors.chunks); got <= maxRetainedCursorChunks {
		t.Fatalf("sanity: %d open cursors took only %d chunks", depth, got)
	}
	for _, c := range open[1:] {
		c.close() // open[0] is left open
	}

	e.Reset(Options{})
	if got := cap(e.cursors.chunks); got > maxRetainedCursorChunks {
		t.Errorf("idle evaluator keeps %d cursor chunks, cap %d", got, maxRetainedCursorChunks)
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
