package eval

import (
	"errors"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// scriptFeeder simulates the stream projector: each Step executes the next
// scripted buffer mutation.
type scriptFeeder struct {
	steps []func()
	fail  error
}

func (f *scriptFeeder) Step() (bool, error) {
	if f.fail != nil {
		return false, f.fail
	}
	if len(f.steps) == 0 {
		return false, nil
	}
	s := f.steps[0]
	f.steps = f.steps[1:]
	s()
	return true, nil
}

// The evaluator's two drivers, as test helpers: runFeed feeds one Step per
// park, as Run does; wakeFeed feeds until the evaluator's wait was touched
// or the input ended, as a pass's scheduler does (CanProceed, its wake
// rule). Each scriptFeeder test below runs under both.
var drivers = []struct {
	name string
	feed func(e *Evaluator, f Feeder) error
}{
	{"run", func(_ *Evaluator, f Feeder) error {
		_, err := f.Step()
		return err
	}},
	{"wake", func(e *Evaluator, f Feeder) error {
		for {
			more, err := f.Step()
			if err != nil || !more || e.CanProceed() {
				return err
			}
		}
	}},
}

// drive calls try, a walker step that reports false while it is parked,
// until it succeeds, feeding through feed between the tries.
func drive(e *Evaluator, f Feeder, feed func(*Evaluator, Feeder) error, try func() bool) error {
	for !try() {
		if err := feed(e, f); err != nil {
			return err
		}
	}
	return nil
}

// iterate drains cur under the given driver.
func iterate(e *Evaluator, f Feeder, feed func(*Evaluator, Feeder) error, cur *cursor) ([]*buffer.Node, error) {
	var got []*buffer.Node
	for {
		var n *buffer.Node
		err := drive(e, f, feed, func() (ok bool) {
			n, ok = cur.next()
			return ok
		})
		if err != nil || n == nil {
			return got, err
		}
		got = append(got, n)
	}
}

func setup() (*buffer.Buffer, *xmlstream.SymTab) {
	syms := xmlstream.NewSymTab()
	return buffer.New(syms, 4, []bool{false, false, false, false, false}), syms
}

func evaluator(buf *buffer.Buffer, feed Feeder) *Evaluator {
	var sink strings.Builder
	return New(buf, feed, xmlstream.NewWriter(&sink), Options{ExecuteSignOffs: true})
}

// child builds a resolved child::name step, adding the name to e's
// vocabulary the way xqast.Resolve and Reset do for a compiled query.
func child(e *Evaluator, name string) xqast.Step {
	id := len(e.syms)
	e.syms = append(e.syms, e.buf.Syms().Intern(name))
	return xqast.Step{Axis: xqast.Child, Test: xqast.NodeTest{Kind: xqast.TestName, Name: name, ID: id}}
}

func TestCursorChildIterationBlocking(t *testing.T) {
	for _, d := range drivers {
		buf, syms := setup()
		root := buf.Root()
		r := buf.AppendElement(root, syms.Intern("r"))

		// The feeder appends two matching children and one non-matching
		// one, then finishes r.
		feed := &scriptFeeder{steps: []func(){
			func() { buf.Finish(withRole(buf, buf.AppendElement(r, syms.Intern("a")), 1)) },
			func() { buf.Finish(withRole(buf, buf.AppendElement(r, syms.Intern("x")), 2)) },
			func() { buf.Finish(withRole(buf, buf.AppendElement(r, syms.Intern("a")), 1)) },
			func() { buf.Finish(r) },
		}}
		e := evaluator(buf, feed)
		cur := newCursor(e, r, child(e, "a"))
		got, err := iterate(e, feed, d.feed, cur)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, n := range got {
			names = append(names, buf.Syms().Name(n.Sym))
		}
		if len(names) != 2 || names[0] != "a" || names[1] != "a" {
			t.Fatalf("%s: iterated %v", d.name, names)
		}
		// Three blocking episodes: before the first a, before the second
		// (the x in between does not end the wait) and before r finishes.
		if e.work.waits != 3 {
			t.Errorf("%s: %d blocking episodes, want 3", d.name, e.work.waits)
		}
	}
}

func withRole(buf *buffer.Buffer, n *buffer.Node, role xqast.Role) *buffer.Node {
	buf.AddRole(n, role, 1)
	return n
}

func TestCursorPinsSurviveSignOff(t *testing.T) {
	buf, syms := setup()
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	a1 := withRole(buf, buf.AppendElement(r, syms.Intern("a")), 1)
	buf.Finish(a1)
	a2 := withRole(buf, buf.AppendElement(r, syms.Intern("a")), 1)
	buf.Finish(a2)
	buf.Finish(r)

	e := evaluator(buf, &scriptFeeder{})
	cur := newCursor(e, r, child(e, "a"))
	n1, ok := cur.next()
	if !ok || n1 != a1 {
		t.Fatalf("first: %v %v", n1, ok)
	}
	// The loop body signs off the binding role of the current node: the
	// node becomes irrelevant but must stay linked (pinned) so the cursor
	// can advance from it.
	if err := buf.SignOff(a1, nil, nil, 1); err != nil {
		t.Fatal(err)
	}
	if a1.Unlinked() {
		t.Fatal("pinned current node must not be unlinked")
	}
	n2, ok := cur.next()
	if !ok || n2 != a2 {
		t.Fatalf("second: %v %v", n2, ok)
	}
	// Advancing released the pin: a1 is now reclaimed.
	if !a1.Unlinked() {
		t.Fatal("previous node must be reclaimed after advancing")
	}
	cur.close()
}

func TestCursorDescendantDocOrder(t *testing.T) {
	buf, syms := setup()
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	// r -> b1 -> (k, b2 -> k), c -> b3
	b1 := withRole(buf, buf.AppendElement(r, syms.Intern("b")), 1)
	k1 := withRole(buf, buf.AppendElement(b1, syms.Intern("k")), 2)
	buf.Finish(k1)
	b2 := withRole(buf, buf.AppendElement(b1, syms.Intern("b")), 1)
	buf.Finish(b2)
	buf.Finish(b1)
	c := withRole(buf, buf.AppendElement(r, syms.Intern("c")), 2)
	b3 := withRole(buf, buf.AppendElement(c, syms.Intern("b")), 1)
	buf.Finish(b3)
	buf.Finish(c)
	buf.Finish(r)

	e := evaluator(buf, &scriptFeeder{})
	step := child(e, "b")
	step.Axis = xqast.Descendant
	cur := newCursor(e, r, step)
	got, err := iterate(e, &scriptFeeder{}, drivers[0].feed, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != b1 || got[1] != b2 || got[2] != b3 {
		t.Fatalf("descendant order wrong: %v", got)
	}
}

func TestCursorFirstStepStopsAfterWitness(t *testing.T) {
	buf, syms := setup()
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	p1 := withRole(buf, buf.AppendElement(r, syms.Intern("p")), 1)
	buf.Finish(p1)
	p2 := withRole(buf, buf.AppendElement(r, syms.Intern("p")), 1)
	buf.Finish(p2)
	buf.Finish(r)

	e := evaluator(buf, &scriptFeeder{})
	step := child(e, "p")
	step.First = true
	cur := newCursor(e, r, step)
	defer cur.close()
	n, _ := cur.next()
	if n != p1 {
		t.Fatal("first witness expected")
	}
	n2, _ := cur.next()
	if n2 != nil {
		t.Fatal("[1] cursor must stop after the witness")
	}
}

// TestCursorPropagatesFeederError: a cursor parks on an unfinished
// region, its driver's feed fails, and the evaluator resumed with the
// error unwinds: the cursor's frame is closed (its pin released, the
// cursor pooled), and the error returned.
func TestCursorPropagatesFeederError(t *testing.T) {
	for _, d := range drivers {
		buf, syms := setup()
		r := buf.AppendElement(buf.Root(), syms.Intern("r"))
		a := withRole(buf, buf.AppendElement(r, syms.Intern("a")), 1)
		buf.Finish(a)
		feed := &scriptFeeder{fail: errors.New("boom")}
		e := evaluator(buf, feed)
		cur := newCursor(e, r, child(e, "a"))
		e.push(frame{op: opOutput, cur: cur})
		if n, ok := cur.next(); !ok || n != a {
			t.Fatalf("%s: first match %v %v", d.name, n, ok)
		}
		if _, ok := cur.next(); ok {
			t.Fatalf("%s: the unfinished region did not park the cursor", d.name)
		}
		fed := d.feed(e, feed)
		if done, err := e.Resume(fed); !done || err != fed || fed == nil {
			t.Fatalf("%s: Resume(%v) = %v, %v; want the feeder's error", d.name, fed, done, err)
		}
		if len(e.stack) != 0 || e.cursors.free != cur || !cur.released || cur.cur != nil {
			t.Fatalf("%s: the failed run left %d frames and its cursor %+v", d.name, len(e.stack), *cur)
		}
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		l    string
		op   xqast.RelOp
		r    string
		want bool
	}{
		{"9", xqast.OpLt, "10", true},    // numeric
		{"9", xqast.OpGt, "10", false},   // numeric
		{"a", xqast.OpLt, "b", true},     // string
		{"9", xqast.OpLt, "x10", false},  // mixed -> string: "9" > "x10"? '9'(57) < 'x'(120): true!
		{"abc", xqast.OpEq, "abc", true}, //
		{"abc", xqast.OpNe, "abd", true}, //
		{" 5 ", xqast.OpEq, "5", true},   // numeric after trim
		{"5.5", xqast.OpGe, "5.5", true}, //
		{"-3", xqast.OpLe, "2", true},    //
		{"100", xqast.OpGt, "20", true},  // numeric, not lexicographic
		{"", xqast.OpEq, "", true},       //
		{"", xqast.OpLt, "a", true},      //
	}
	for _, tc := range cases {
		// fix the mixed-case expectation computed above
		want := tc.want
		if tc.l == "9" && tc.r == "x10" {
			want = "9" < "x10"
		}
		if got := compareValues(tc.l, tc.op, tc.r); got != want {
			t.Fatalf("compare(%q %s %q) = %v, want %v", tc.l, tc.op, tc.r, got, want)
		}
	}
}

func TestStringValueConcatenatesTexts(t *testing.T) {
	// Role 1 is aggregate: the subtree below r is covered, as it would be
	// for a comparison dependency in a real run.
	syms := xmlstream.NewSymTab()
	buf := buffer.New(syms, 1, []bool{false, true})
	r := buf.AppendElement(buf.Root(), syms.Intern("r"))
	withRole(buf, r, 1)
	buf.AppendText(r, "a")
	k := buf.AppendElement(r, syms.Intern("k"))
	buf.AppendText(k, "b")
	buf.Finish(k)
	buf.AppendText(r, "c")
	buf.Finish(r)

	e := evaluator(buf, &scriptFeeder{})
	v, ok := e.stringValue(r)
	if !ok {
		t.Fatal("a finished node's string value waited")
	}
	if v != "abc" {
		t.Fatalf("string value %q, want abc", v)
	}
}

func TestStringValueBlocksUntilFinished(t *testing.T) {
	for _, d := range drivers {
		buf, syms := setup()
		r := buf.AppendElement(buf.Root(), syms.Intern("r"))
		withRole(buf, r, 1)
		buf.AppendText(r, "x")
		feed := &scriptFeeder{steps: []func(){
			func() { buf.AppendText(r, "y") },
			func() { buf.Finish(r) },
		}}
		e := evaluator(buf, feed)
		var v string
		err := drive(e, feed, d.feed, func() (ok bool) {
			v, ok = e.stringValue(r)
			return ok
		})
		if err != nil {
			t.Fatal(err)
		}
		if v != "xy" || e.work.waits != 1 {
			t.Fatalf("%s: string value %q after %d blocking episodes, want xy after 1", d.name, v, e.work.waits)
		}
	}
}
