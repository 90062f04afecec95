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

	if len(e.curPool) != 1 {
		t.Fatalf("freelist has %d entries, want 1", len(e.curPool))
	}
	pooled := e.curPool[0]
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
