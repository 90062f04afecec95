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
