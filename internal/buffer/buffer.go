package buffer

import (
	"fmt"
	"slices"
	"strings"

	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Stats tracks the buffer accounting the benchmarks report: the paper's
// primary measured quantity is the high watermark of buffered data.
type Stats struct {
	LiveNodes int64 // currently buffered nodes
	PeakNodes int64 // high watermark of LiveNodes
	LiveBytes int64 // estimated bytes of live buffer content
	PeakBytes int64 // high watermark of LiveBytes

	NodesAppended int64 // total nodes ever buffered
	NodesDeleted  int64 // total nodes reclaimed

	RoleAssignments int64 // total role instances assigned
	RoleRemovals    int64 // total role instances removed
	SignOffs        int64 // signOff statements processed
	GCSweeps        int64 // aggregate-role subtree sweeps

	// What the text slab holds, beside what LiveBytes/PeakBytes estimate
	// (those keep their formula; see DESIGN.md, "The buffer owns its
	// bytes"). Held memory is every chunk with a live text in it, whole,
	// plus the oversized texts.
	TextLiveBytes     int64 // bytes of live text
	TextHeldBytes     int64 // slab memory pinned by live text
	TextPeakHeldBytes int64 // high watermark of TextHeldBytes
	TextChunks        int64 // chunks with a live text in them
	TextLiveAtPeak    int64 // TextLiveBytes when PeakBytes was last raised
	TextHeldAtPeak    int64 // TextHeldBytes when PeakBytes was last raised

	// Slabs counts the node and slot-block slabs the run has carved from:
	// what a run that starts cold allocates for its nodes and their lists.
	Slabs int64
}

// nodeBaseBytes and roleEntryBytes are what PeakBytes counts per buffered
// node and per role multiset entry: the paper-comparable estimate the
// golden peaks pin, not the real size (unsafe.Sizeof(Node) is 104, see
// TestNodeLayout).
const (
	nodeBaseBytes  = 96
	roleEntryBytes = 8
)

// ErrUndefinedRemoval is returned when a signOff removes a role instance
// that was never assigned — the "undefined" case of Section 2's remρ, which
// indicates a broken rewriting and must surface loudly.
type ErrUndefinedRemoval struct {
	Role xqast.Role
	Node string
}

func (e *ErrUndefinedRemoval) Error() string {
	return fmt.Sprintf("buffer: removal of role r%d from %s is undefined (no instance assigned)", e.Role, e.Node)
}

// Canceller is implemented by the stream projector: when a signOff targets
// a subtree whose closing tag has not been read yet, future role
// assignments (and capture-driven buffering) for that role below the
// binding must be suppressed to preserve the assignment/removal balance.
// See DESIGN.md, "SignOff on unfinished subtrees".
type Canceller interface {
	CancelRole(binding *Node, role xqast.Role)
}

// Buffer is the buffer manager.
type Buffer struct {
	root *Node
	syms *xmlstream.SymTab

	// aggregate[r] reports whether role r is an aggregate (subtree) role.
	aggregate []bool

	// canceller receives future-assignment cancellations; may be nil
	// (e.g. in unit tests without a projector).
	canceller Canceller

	// assigned/removed per role, for the balance invariant.
	assigned []int64
	removed  []int64

	// arena allocates nodes; Reset reclaims them wholesale between runs.
	arena arena
	// text owns the character data of the text nodes.
	text textSlab
	// roles holds the role entries beyond each node's inline one
	// (Node.roles), facts each node's schema facts (Node.noMore).
	roles slots[roleEntry]
	facts slots[xmlstream.Sym]

	// resA/resB are the ping-pong scratch buffers of signOff path
	// resolution (reused so steady-state signOffs do not allocate).
	resA, resB []target

	stats Stats
}

// New creates an empty buffer for a query whose role table marks the given
// roles as aggregate. roleCount is the number of roles (role IDs are
// 1..roleCount).
func New(syms *xmlstream.SymTab, roleCount int, aggregate []bool) *Buffer {
	agg := make([]bool, roleCount+1)
	copy(agg, aggregate)
	b := &Buffer{
		syms:      syms,
		aggregate: agg,
		assigned:  make([]int64, roleCount+1),
		removed:   make([]int64, roleCount+1),
		text:      newTextSlab(),
		roles:     newSlots[roleEntry](),
		facts:     newSlots[xmlstream.Sym](),
	}
	b.initRoot()
	return b
}

func (b *Buffer) initRoot() {
	b.root = b.arena.get()
	b.root.Kind = KindRoot
	b.stats.LiveNodes = 1
	b.stats.LiveBytes = nodeBaseBytes
	b.stats.PeakNodes = 1
	b.stats.PeakBytes = nodeBaseBytes
}

// Reset returns every node to the arena and restores the empty initial
// state for a new run with the same role table. The symbol table and the
// canceller wiring are retained; any node pointer, and any Node.Text,
// obtained before the reset is invalidated.
//
//gcxlint:keep syms the symbol table is shared with the projector and survives runs by contract (the owner bounds it)
//gcxlint:keep aggregate the role table is fixed for the compiled query this buffer serves
//gcxlint:keep canceller projector wiring established once by SetCanceller; runs swap documents, not projectors
func (b *Buffer) Reset() {
	b.arena.reset(b.text.poison)
	b.text.reset()
	b.roles.reset()
	b.facts.reset()
	for i := range b.assigned {
		b.assigned[i] = 0
		b.removed[i] = 0
	}
	// The resolution scratch holds *Node pointers from the last signOff;
	// an idle pooled buffer must not pin freed arena nodes through them.
	clear(b.resA[:cap(b.resA)])
	clear(b.resB[:cap(b.resB)])
	b.resA = b.resA[:0]
	b.resB = b.resB[:0]
	b.stats = Stats{}
	b.initRoot()
}

// SetCanceller wires the stream projector's cancellation hook.
func (b *Buffer) SetCanceller(c Canceller) { b.canceller = c }

// Root returns the virtual document root.
func (b *Buffer) Root() *Node { return b.root }

// Stats returns a snapshot of the buffer accounting.
func (b *Buffer) Stats() Stats {
	st := b.stats
	st.TextLiveBytes = b.text.liveBytes
	st.TextHeldBytes = b.text.held()
	st.TextPeakHeldBytes = b.text.peakHeld
	st.TextChunks = int64(b.text.inUse)
	st.Slabs = int64(b.arena.carved() + b.roles.carved() + b.facts.carved())
	return st
}

// Syms returns the symbol table shared with the projector.
func (b *Buffer) Syms() *xmlstream.SymTab { return b.syms }

// AssignedCount and RemovedCount expose per-role accounting for invariant
// checks (every assignment must be matched by a removal, Section 3).
func (b *Buffer) AssignedCount(r xqast.Role) int64 { return b.assigned[r] }
func (b *Buffer) RemovedCount(r xqast.Role) int64  { return b.removed[r] }

//gcxlint:noalloc
func (b *Buffer) bumpPeaks() {
	if b.stats.LiveNodes > b.stats.PeakNodes {
		b.stats.PeakNodes = b.stats.LiveNodes
	}
	if b.stats.LiveBytes > b.stats.PeakBytes {
		b.stats.PeakBytes = b.stats.LiveBytes
		b.stats.TextLiveAtPeak = b.text.liveBytes
		b.stats.TextHeldAtPeak = b.text.held()
	}
}

// AppendElement buffers a new element under parent (as last child) and
// returns it. The node starts unfinished.
func (b *Buffer) AppendElement(parent *Node, sym xmlstream.Sym) *Node {
	n := b.arena.get()
	n.Kind = KindElement
	n.Sym = sym
	n.Parent = parent
	b.link(parent, n)
	b.stats.LiveNodes++
	b.stats.LiveBytes += nodeBaseBytes
	b.stats.NodesAppended++
	b.bumpPeaks()
	return n
}

// AppendText buffers a text node under parent, copying text into the
// buffer's own slab: the caller's string may borrow the tokenizer's
// window. Text nodes are born finished.
//
//gcxlint:borrowed
func (b *Buffer) AppendText(parent *Node, text string) *Node {
	n := b.arena.get()
	n.Kind = KindText
	n.Text, n.chunk = b.text.keep(text)
	n.Parent = parent
	n.finished = true
	b.link(parent, n)
	b.stats.LiveNodes++
	b.stats.LiveBytes += nodeBaseBytes + int64(len(text))
	b.stats.NodesAppended++
	b.bumpPeaks()
	return n
}

func (b *Buffer) link(parent, n *Node) {
	parent.touch()
	if parent.LastChild == nil {
		parent.FirstChild = n
		parent.LastChild = n
		return
	}
	n.PrevSib = parent.LastChild
	parent.LastChild.NextSib = n
	parent.LastChild = n
}

// AddRole assigns k instances of role r to n, updating the subtree
// accounting along the ancestor chain.
//
//gcxlint:noalloc
func (b *Buffer) AddRole(n *Node, r xqast.Role, k int) {
	if k <= 0 {
		return
	}
	if e := b.entry(n, r); e != nil {
		e.n += int32(k)
	} else {
		e := roleEntry{role: int32(r), n: int32(k)}
		switch {
		case n.role.n == 0:
			n.role = e
		case n.roles == 0:
			n.roles = b.roles.get()
			fallthrough
		default:
			b.roles.add(n.roles, e)
		}
		b.stats.LiveBytes += roleEntryBytes
	}
	n.selfTotal += int32(k)
	if b.aggregate[r] {
		n.aggCount += int32(k)
	}
	for a := n; a != nil; a = a.Parent {
		a.subTotal += int32(k)
	}
	b.assigned[r] += int64(k)
	b.stats.RoleAssignments += int64(k)
	b.bumpPeaks()
}

// entry returns n's multiset entry for role r, or nil.
//
//gcxlint:noalloc
func (b *Buffer) entry(n *Node, r xqast.Role) *roleEntry {
	if n.role.role == int32(r) && n.role.n > 0 {
		return &n.role
	}
	for i := n.roles; i != 0; {
		bl := b.roles.at(i)
		for j := range bl.n {
			if bl.v[j].role == int32(r) {
				return &bl.v[j]
			}
		}
		i = bl.next
	}
	return nil
}

// removeRole removes k instances of role r from n. An entry that reaches
// zero is replaced by the last overflow entry; an emptied slot is freed.
//
//gcxlint:noalloc
func (b *Buffer) removeRole(n *Node, r xqast.Role, k int) error {
	e := b.entry(n, r)
	if e == nil || int(e.n) < k {
		return b.undefinedRemoval(n, r)
	}
	e.n -= int32(k)
	if e.n == 0 {
		if n.roles == 0 {
			n.role = roleEntry{} // e is the inline entry, the only one
		} else {
			last, empty := b.roles.pop(n.roles)
			*e = last // a no-op when e was the last entry
			if empty {
				b.roles.put(n.roles)
				n.roles = 0
			}
		}
		b.stats.LiveBytes -= roleEntryBytes
	}
	n.selfTotal -= int32(k)
	if b.aggregate[r] {
		n.aggCount -= int32(k)
	}
	for a := n; a != nil; a = a.Parent {
		a.subTotal -= int32(k)
	}
	b.removed[r] += int64(k)
	b.stats.RoleRemovals += int64(k)
	return nil
}

// undefinedRemoval builds the error of a removal nothing was assigned for.
//
//gcxlint:allocok the error path of a broken rewriting, which ends the run
func (b *Buffer) undefinedRemoval(n *Node, r xqast.Role) error {
	return &ErrUndefinedRemoval{Role: r, Node: b.describe(n)}
}

// entries returns the number of entries in n's role multiset.
func (b *Buffer) entries(n *Node) int { return int(min(n.role.n, 1)) + b.roles.len(n.roles) }

// RoleCount returns the multiplicity of role r on n.
//
//gcxlint:noalloc
func (b *Buffer) RoleCount(n *Node, r xqast.Role) int {
	if e := b.entry(n, r); e != nil {
		return int(e.n)
	}
	return 0
}

// RolesString returns n's role multiset as a sorted, human-readable
// string like "{r2,r3,r3}". Empty role sets render as "{}".
func (b *Buffer) RolesString(n *Node) string {
	var ids []int32
	for _, e := range b.roles.appendTo([]roleEntry{n.role}, n.roles) {
		for range e.n {
			ids = append(ids, e.role)
		}
	}
	slices.Sort(ids)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "r%d", id)
	}
	sb.WriteByte('}')
	return sb.String()
}

// MarkNoMore records that no further child of n tagged sym can occur.
//
//gcxlint:noalloc
func (b *Buffer) MarkNoMore(n *Node, sym xmlstream.Sym) {
	if b.NoMore(n, sym) {
		return
	}
	if n.noMore == 0 {
		n.noMore = b.facts.get()
	}
	b.facts.add(n.noMore, sym)
	n.touch()
}

// NoMore reports whether a child of n tagged sym can no longer occur.
//
//gcxlint:noalloc
func (b *Buffer) NoMore(n *Node, sym xmlstream.Sym) bool {
	for i := n.noMore; i != 0; {
		bl := b.facts.at(i)
		if slices.Contains(bl.v[:bl.n], sym) {
			return true
		}
		i = bl.next
	}
	return false
}

func (b *Buffer) describe(n *Node) string {
	switch n.Kind {
	case KindRoot:
		return "root"
	case KindText:
		return fmt.Sprintf("text %q", n.Text)
	default:
		return "<" + b.syms.Name(n.Sym) + ">"
	}
}

// Pin marks n as the current position of an evaluator cursor; pinned nodes
// (and their ancestors) are not reclaimed until unpinned. This is the same
// deferred-deletion treatment the paper gives unfinished nodes.
func (b *Buffer) Pin(n *Node) {
	for a := n; a != nil; a = a.Parent {
		a.subPins++
	}
}

// Unpin releases a pin and reclaims the node if a signOff already made it
// irrelevant.
func (b *Buffer) Unpin(n *Node) {
	for a := n; a != nil; a = a.Parent {
		a.subPins--
	}
	if !n.unlinked {
		b.collect(n)
	}
}

// Finish marks an element as finished (closing tag read) and applies the
// deferred deletion / close-time pruning rules: a finished node that is
// irrelevant and uncovered can never become relevant again and is
// reclaimed immediately.
func (b *Buffer) Finish(n *Node) {
	n.finished = true
	n.touch()
	b.collect(n)
}

// Seal marks an element's content as complete ahead of its closing tag,
// on the strength of a DTD content-model fact (schema-based scheduling:
// the projector proved no further child or buffered text can occur).
// Cursors see the node as Finished and conclude the region — evaluation
// and signOff-driven flushing proceed as if the closing tag had been
// read — but the node itself stays physically linked until the real
// closing tag arrives: deletable() checks the raw finished flag, so a
// document that violates the asserted schema cannot dangle projector
// frames or recycle a node that is still on the open-element stack.
func (b *Buffer) Seal(n *Node) {
	if n.Kind == KindElement {
		n.sealed = true
		n.touch()
	}
}

// deletable reports whether n can be physically reclaimed right now.
func (b *Buffer) deletable(n *Node) bool {
	return n.Kind != KindRoot &&
		n.finished &&
		n.subTotal == 0 &&
		n.subPins == 0 &&
		!n.Covered()
}

// collect is the localized bottom-up garbage collection of Figure 10:
// starting at n, reclaim irrelevant nodes and propagate upward until a
// relevant (or unfinished, or pinned) node stops the walk.
func (b *Buffer) collect(n *Node) {
	for n != nil && n.Kind != KindRoot {
		if !b.deletable(n) {
			return
		}
		p := n.Parent
		b.unlink(n)
		n = p
	}
}

// unlink splices n (and its — necessarily role-free — subtree) out of the
// tree and updates accounting.
func (b *Buffer) unlink(n *Node) {
	if n.PrevSib != nil {
		n.PrevSib.NextSib = n.NextSib
	} else if n.Parent != nil {
		n.Parent.FirstChild = n.NextSib
	}
	if n.NextSib != nil {
		n.NextSib.PrevSib = n.PrevSib
	} else if n.Parent != nil {
		n.Parent.LastChild = n.PrevSib
	}
	b.dropSubtree(n)
}

// dropSubtree accounts for a spliced-out subtree and returns its nodes to
// the arena. The subtree is necessarily role-free, pin-free, and finished
// (the deletable conditions), so nothing can reference its nodes again.
func (b *Buffer) dropSubtree(n *Node) {
	n.unlinked = true
	b.stats.LiveNodes--
	b.stats.NodesDeleted++
	b.stats.LiveBytes -= nodeBaseBytes + int64(len(n.Text)) + int64(b.entries(n))*roleEntryBytes
	for c := n.FirstChild; c != nil; {
		next := c.NextSib
		b.dropSubtree(c)
		c = next
	}
	if n.Kind == KindText {
		b.text.release(n.Text, n.chunk)
		n.Text = "" // nothing reads an unlinked node; a free node must not pin an oversized text
	}
	if n.roles != 0 {
		b.roles.put(n.roles)
	}
	if n.noMore != 0 {
		b.facts.put(n.noMore)
	}
	b.arena.put(n)
}

// sweep prunes a subtree after an aggregate role was removed from its root:
// descendants kept alive only by the aggregate cover are reclaimed
// (post-order), mirroring what per-node dos roles would have achieved
// (Section 6, "Aggregate Roles"). Subtrees covered by a remaining aggregate
// role are skipped.
func (b *Buffer) sweep(n *Node) {
	b.stats.GCSweeps++
	c := n.FirstChild
	for c != nil {
		next := c.NextSib
		b.sweepWalk(c)
		c = next
	}
}

func (b *Buffer) sweepWalk(m *Node) {
	if m.aggCount > 0 {
		// Still covered by its own aggregate role: keep whole branch.
		return
	}
	c := m.FirstChild
	for c != nil {
		next := c.NextSib
		b.sweepWalk(c)
		c = next
	}
	if b.deletable(m) {
		b.unlink(m)
	}
}

// Dump renders the current buffer contents with roles, matching the
// notation of the paper's Figure 2 (e.g. "book{r3,r5,r6}"). Unfinished
// nodes are marked with an asterisk.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.Kind != KindRoot {
			for i := 0; i < depth; i++ {
				sb.WriteString("  ")
			}
			switch n.Kind {
			case KindText:
				fmt.Fprintf(&sb, "%q", n.Text)
			default:
				sb.WriteString(b.syms.Name(n.Sym))
			}
			if n.selfTotal > 0 {
				sb.WriteString(b.RolesString(n))
			}
			if !n.finished {
				sb.WriteByte('*')
			}
			sb.WriteByte('\n')
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			walk(c, depth+1)
		}
	}
	walk(b.root, -1)
	return sb.String()
}

// CheckResidue verifies that after a completed GCX evaluation nothing
// reclaimable remains buffered: every surviving node must be unfinished
// (the run stopped before its closing tag) or have an unfinished
// descendant keeping it linked. Finished, role-free, uncovered residue
// indicates a garbage collection gap.
func (b *Buffer) CheckResidue() error {
	var unfinishedBelow func(n *Node) bool
	unfinishedBelow = func(n *Node) bool {
		if !n.finished {
			return true
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if unfinishedBelow(c) {
				return true
			}
		}
		return false
	}
	var check func(n *Node) error
	check = func(n *Node) error {
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if c.finished && c.subTotal == 0 && !unfinishedBelow(c) {
				return fmt.Errorf("buffer: reclaimable residue %s after evaluation", b.describe(c))
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(b.root)
}

// CheckBalance verifies that every role's assignments equal its removals
// and that the buffer holds no stray content below the root. It returns a
// descriptive error naming the first violated invariant. Intended for
// test and debug use after a completed query run (Section 3's safety
// requirements (1) and (2)).
func (b *Buffer) CheckBalance() error {
	for r := 1; r < len(b.assigned); r++ {
		if b.assigned[r] != b.removed[r] {
			return fmt.Errorf("buffer: role r%d assigned %d times but removed %d times", r, b.assigned[r], b.removed[r])
		}
	}
	if b.root.subTotal != 0 {
		return fmt.Errorf("buffer: %d role instances remain after evaluation", b.root.subTotal)
	}
	return nil
}
