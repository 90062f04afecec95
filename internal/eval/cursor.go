package eval

import (
	"gcx/internal/buffer"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// cursor iterates the buffered matches of one location step below a context
// node in document order, waiting for more input while the relevant region
// is unfinished.
//
// The cursor pins its current node: active garbage collection defers the
// deletion of pinned nodes (exactly like unfinished ones, Section 5), so
// the signOff batch at the end of a loop body may make the current binding
// irrelevant without invalidating the cursor's position. The node is
// reclaimed when the cursor advances past it.
type cursor struct {
	e    *Evaluator
	ctx  *buffer.Node
	step xqast.Step
	// sym is the step's tag in this run's symbol table (name tests only),
	// read once from the evaluator's resolved vocabulary: matching a node
	// compares integers.
	sym xmlstream.Sym
	// cur is the pinned current node (nil before the first next()).
	cur *buffer.Node
	// nextFree links a closed cursor to the next one on the free list.
	nextFree *cursor
	// done marks a cursor whose step the schema refutes: it matches nothing.
	done bool
	// first tracks [1] steps: after one match the cursor is exhausted.
	yielded bool
	// released marks a cursor returned to the evaluator's freelist; it
	// makes close idempotent.
	released bool
}

// cursorChunk is the number of cursors carved from one allocation: more
// than most queries ever hold open at once.
const cursorChunk = 8

// cursors is an evaluator's cursor allocator, the buffer arena's pattern:
// cursors are carved from chunks the evaluator keeps, close threads them
// onto a free list through nextFree, and reset reclaims every carved one
// wholesale (a run that ended in an error may not have closed all of its
// cursors), keeping every chunk. An evaluator of NewEvaluators carves its
// first chunk from an array shared with the pass's other evaluators.
type cursors struct {
	chunks [][]cursor
	chunk  int // index of the chunk being carved
	next   int // next unused index in chunks[chunk]
	free   *cursor
}

//gcxlint:noalloc
func (a *cursors) get() *cursor {
	if c := a.free; c != nil {
		a.free = c.nextFree
		*c = cursor{}
		return c
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]cursor, cursorChunk)) //gcxlint:allocok chunk growth to loop-nesting depth; the pass decides whether an idle state keeps it
	}
	c := &a.chunks[a.chunk][a.next]
	if a.next++; a.next == cursorChunk {
		a.chunk++
		a.next = 0
	}
	return c
}

// reset makes every carved cursor available again, zeroed so that an
// idle evaluator pins no node.
//
//gcxlint:keep chunks every carved cursor is zeroed; keeping the chunks spares the next run their allocation
func (a *cursors) reset() {
	for i := 0; i < a.chunk && i < len(a.chunks); i++ {
		clear(a.chunks[i])
	}
	if a.chunk < len(a.chunks) {
		clear(a.chunks[a.chunk][:a.next])
	}
	a.chunk, a.next, a.free = 0, 0, nil
}

//gcxlint:noalloc
func newCursor(e *Evaluator, ctx *buffer.Node, step xqast.Step) *cursor {
	c := e.cursors.get()
	c.e = e
	c.ctx = ctx
	c.step = step
	if step.Test.Kind == xqast.TestName {
		c.sym = e.syms[step.Test.ID]
	}
	// If the content model excludes this step entirely, the sequence is
	// empty without reading anything.
	one := [1]xqast.Step{step}
	c.done = e.schemaDecides(ctx, one[:]) == refuted
	return c
}

// close releases the cursor's pin and returns it to the evaluator's
// freelist. The cursor must not be used afterwards.
//
//gcxlint:noalloc
func (c *cursor) close() {
	if c.released {
		return
	}
	if c.cur != nil {
		c.e.buf.Unpin(c.cur)
	}
	// Zero the whole cursor before pooling: an idle freelist entry must
	// not pin its context node (or the step's strings) until reuse
	// happens to overwrite it.
	a := &c.e.cursors
	*c = cursor{released: true, nextFree: a.free}
	a.free = c
}

// next returns the next match in document order, or nil when the sequence
// is exhausted; false when no further match is buffered yet and the region
// is unfinished: the evaluator has then parked, and calls next again once
// it is resumed. The returned node is pinned until the following next() or
// close().
//
//gcxlint:noalloc
func (c *cursor) next() (*buffer.Node, bool) {
	if c.done {
		c.close()
		return nil, true
	}
	if c.step.First && c.yielded {
		c.close()
		return nil, true
	}
	if n := c.scan(); n != nil {
		c.e.parked = false
		c.e.buf.Pin(n)
		if c.cur != nil {
			c.e.buf.Unpin(c.cur)
		}
		c.cur = n
		c.yielded = true
		return n, true
	}
	// No further match buffered: either the region is complete (the
	// sequence is exhausted) or we must wait for more input.
	if c.regionFinished() {
		c.e.parked = false
		c.close()
		return nil, true
	}
	// A child-axis match can only appear as a new child of ctx, and
	// every fact regionFinished reads is a fact about ctx; a descendant
	// match appears below nodes of the region instead.
	on := c.ctx
	if c.step.Axis != xqast.Child {
		on = nil
	}
	c.e.park(on)
	return nil, false
}

// scan finds the next buffered match after the current position without
// blocking.
//
//gcxlint:noalloc
func (c *cursor) scan() *buffer.Node {
	return buffer.NextMatch(c.ctx, c.cur, c.step.Axis, c.step.Test.Kind, c.sym)
}

// count returns the number of matches buffered below the context, which
// must be finished, without moving the cursor or pinning anything.
//
//gcxlint:noalloc
func (c *cursor) count() int {
	if c.done {
		return 0
	}
	n := 0
	for c.cur = c.scan(); c.cur != nil; c.cur = c.scan() {
		n++
	}
	return n
}

// regionFinished reports whether no further matches can appear: once the
// context is finished (all descendants are then finished too), or — for
// child-axis name tests with a schema — once the content model proves no
// further match can arrive (the projector marks the context node when a
// sibling tag kills the test tag; see package dtd).
//
//gcxlint:noalloc
func (c *cursor) regionFinished() bool {
	if c.ctx.Finished() {
		return true
	}
	if c.step.Axis != xqast.Child {
		return false
	}
	// Universal XML fact: a document has exactly one root element, so a
	// child-axis cursor over the virtual root is exhausted after its
	// first match.
	if c.ctx.Kind == buffer.KindRoot && c.yielded {
		return true
	}
	// Schema fact: the content model proves no further match can arrive.
	if c.step.Test.Kind == xqast.TestName && c.ctx.Kind == buffer.KindElement &&
		c.e.buf.NoMore(c.ctx, c.sym) {
		return true
	}
	return false
}
