// Package proj implements the GCX stream pre-projector (Sections 2 and 6 of
// the paper): it matches the incoming token stream against the projection
// tree, copies relevant tokens into the buffer, and assigns roles on the
// fly.
//
// Matching is an NFA simulation over the stack of open elements, which is
// the per-instance generalization of the paper's lazily constructed DFA:
// the projection nodes matched on one open frame, counted with their
// multiplicities, are the multiset Example 1 maps the frame's tag path
// to. Per-instance state is required for
//
//   - first-witness suppression: a [position()=1] projection node buffers
//     only the first match per context *instance*;
//   - multiplicity: a token matched through several derivations receives
//     the corresponding role once per derivation (Figure 4(c));
//   - cancellation: a signOff executed while its target subtree is still
//     open must suppress the role's future assignments (see DESIGN.md).
//
// A document node is preserved if (1) it matches a projection-tree node,
// (2) it lies below a dos::node() capture, or (3) the structural guard of
// Section 2 (case (2)) applies — discarding it could promote a descendant
// into a false child-axis match.
//
// A run may install one token observer (Observe, the tracer); Step calls
// it with each token after processing it, and Reset removes it.
package proj

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/projtree"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Options configures the projector. AggregateRoles must match the static
// analysis configuration that produced the projection tree.
type Options struct {
	AggregateRoles bool
	// Schema, when non-nil, enables schema-aware early region
	// termination: content-model facts ("no further c child can occur
	// after a d child") are recorded on buffered nodes so blocking
	// cursors can stop without scanning to the end of the region.
	// Supplying a schema asserts the input is valid against it. New
	// binds the buffer's symbol table to it (dtd.Schema.Bind), so the
	// facts are asked by the tokens' Syms.
	Schema *dtd.Schema
	// BorrowedText has no effect: the buffer copies every text it keeps
	// into its own slab (buffer.AppendText), borrowed or not, and tokens
	// of discarded regions are never copied at all. The field stays only
	// because benchmark/ladder.go sets it; ROADMAP lists it under Cuts.
	BorrowedText bool
}

// entry is one live NFA configuration: projection-tree node pn matched at a
// specific open element, reached through mult derivations.
type entry struct {
	pn *projtree.Node
	// owner is the frame at which pn matched (the context instance for
	// [1] predicates on pn's children).
	owner *frame
	// anchor is the frame of the first-straight-ancestor variable instance
	// on this derivation; signOff cancellation is keyed on (role, anchor).
	anchor *frame
	mult   int
}

// capture is an active dos::node() subtree preservation started at its
// owner frame: one role lane of a dos leaf. mult is structural, like an
// entry's; what a covered node receives is the part of it remaining
// after cancellations (see remaining), and the capture goes dead when
// nothing remains.
type capture struct {
	role, chain xqast.Role
	anchor      *frame
	mult        int
	live        bool
}

// frame is the per-open-element state. Frames, their match entries, and
// their captures are recycled through the projector's frame pool: matches
// and captures are value slices whose backing arrays survive reuse, so
// steady-state projection does not allocate per element.
type frame struct {
	parent *frame
	depth  int
	// node is the buffered node for this element (nil if not preserved).
	node *buffer.Node
	// attach is the nearest buffered ancestor-or-self; children of
	// discarded elements are promoted to it (Definition 1's projection).
	attach *buffer.Node
	// matches are the projection nodes matched at this element.
	matches []entry
	// scopes is the nearest open frame, this one or an ancestor, with a
	// match whose projection node has a descendant-axis child; the next
	// such frame up is scopes.outer(). Descendant-axis steps are tried
	// from the matches of every frame on that chain.
	scopes *frame
	// captures started at this element.
	captures []capture
	// firstUsed records [1]-children of nodes matched at this frame whose
	// single witness has been consumed. The witness is per derivation
	// instance, not per frame: one element can host several instances of
	// the same projection node (one per anchoring variable binding, e.g.
	// under //c below //*), and each instance owns its own [1] witness —
	// signOff resolution removes one role instance per derivation, so
	// projection must assign them the same way. Hence the key includes
	// the derivation's anchor.
	firstUsed map[firstKey]bool
}

// firstKey identifies a [1] witness: the projection node and the anchor
// frame of the derivation instance consuming it.
type firstKey struct {
	id     int
	anchor *frame
}

// cancellation reduces future derivations of a role below an anchor frame
// (registered by SignOff on unfinished subtrees). One element can host
// several binding instances of the variable that anchors the role (e.g.
// $y in $x//b under //a reaches b once per a binding): of counts them,
// and n counts the signed-off ones. Each signOff retires exactly one
// instance, so future same-anchored assignments lose the signed-off
// instances' share of their multiplicity, while the other instances keep
// assigning until their own signOffs arrive.
type cancellation struct {
	role   xqast.Role
	anchor *frame
	n, of  int
}

// Projector drives tokenization, projection, and role assignment.
type Projector struct {
	tok  *xmlstream.Tokenizer
	buf  *buffer.Buffer
	tree *projtree.Tree
	opts Options

	stack []*frame
	pool  []*frame
	cancs []cancellation
	eof   bool
	// liveCaps counts the live captures of the open frames: a node opened
	// or read now lies below one of them exactly when it is non-zero.
	liveCaps int
	// dead is the number of elements open in the dead subtree being read,
	// 0 outside one.
	dead int

	// scratch for candidate merging.
	cands []entry
	// syms is the Sym of each projection node's name test, by node ID
	// (NoSym for any other test): a tag is matched by its Sym alone.
	syms []xmlstream.Sym

	tokens int64
	// skipped is the part of tokens the tokenizer counted without
	// building them (Tokenizer.SkipContent): the work skipDead saved.
	skipped int64

	// observe, when set, sees every token after Step has processed it
	// (the tracer). It is per run: Reset clears it.
	observe func(xmlstream.Token)
}

// New creates a projector reading from tok into buf, guided by tree. The
// tokenizer interns names into the buffer's symbol table from then on, so
// a token's Sym is what the buffer stores; a schema is bound to it first,
// then the tree's name tests are interned into it once, as the table
// keeps its names for every run.
func New(tok *xmlstream.Tokenizer, buf *buffer.Buffer, tree *projtree.Tree, opts Options) *Projector {
	tok.SetSymTab(buf.Syms())
	if opts.Schema != nil {
		opts.Schema.Bind(buf.Syms())
	}
	p := &Projector{tok: tok, buf: buf, tree: tree, opts: opts, syms: make([]xmlstream.Sym, len(tree.Nodes))}
	for _, pn := range tree.Nodes {
		if pn.Step.Test.Kind == xqast.TestName {
			p.syms[pn.ID] = buf.Syms().Intern(pn.Step.Test.Name)
		}
	}
	p.buf.SetCanceller(p)
	p.init()
	return p
}

// init builds the root frame against the buffer's (fresh) root node.
func (p *Projector) init() {
	rootFrame := p.takeFrame()
	rootFrame.depth = 0
	rootFrame.node = p.buf.Root()
	rootFrame.attach = p.buf.Root()
	rootFrame.matches = append(rootFrame.matches[:0], entry{pn: p.tree.Root, mult: 1})
	rootEntry := &rootFrame.matches[0]
	rootEntry.owner = rootFrame
	rootEntry.anchor = rootFrame
	if hasDescChildren(p.tree.Root) {
		rootFrame.scopes = rootFrame
	}
	p.stack = append(p.stack, rootFrame)
	// The root may itself start captures (e.g. the full-buffering baseline
	// uses a projection tree whose root has a dos::node() child).
	p.startCaptures(rootFrame, rootEntry)
}

// Reset prepares the projector for a fresh run. The buffer (and the
// tokenizer) must have been reset first: Reset rebuilds the root frame
// around the buffer's new root node and re-assigns root capture roles.
// All frames are recycled into the pool, so steady-state runs allocate
// only when a document opens more simultaneous elements, matches, or
// captures than any run before it. Every capacity stays (Retained), and
// every link the pooled frames and the scratch's backing arrays hold is
// cleared, so an idle projector pins neither the last run's buffer nodes
// nor another frame through a kept one.
//
//gcxlint:keep tok wired at construction; the owner resets the tokenizer separately
//gcxlint:keep buf wired at construction; the owner resets the buffer separately
//gcxlint:keep tree the compiled projection tree is immutable and shared across runs
//gcxlint:keep syms the tree's name tests, bound once into a table that keeps its names
//gcxlint:keep opts configuration is part of the projector's identity
func (p *Projector) Reset() {
	for i := len(p.stack) - 1; i >= 0; i-- {
		p.releaseFrame(p.stack[i])
	}
	for _, f := range p.pool {
		clear(f.matches[:cap(f.matches)])
		clear(f.captures[:cap(f.captures)])
		clear(f.firstUsed)
		*f = frame{matches: f.matches[:0], captures: f.captures[:0], firstUsed: f.firstUsed}
	}
	clear(p.stack[:cap(p.stack)])
	clear(p.cancs[:cap(p.cancs)])
	clear(p.cands[:cap(p.cands)])
	p.stack, p.cancs, p.cands = p.stack[:0], p.cancs[:0], p.cands[:0]
	p.eof = false
	p.liveCaps = 0
	p.dead = 0
	p.tokens = 0
	p.skipped = 0
	p.observe = nil
	p.init()
}

// Retained reports the bytes Reset keeps of what runs grew: the frames,
// pooled or open, with their slices (a [1]-witness map counts as a small
// map's 256), and the stack and scratch.
//
//gcxlint:noalloc
func (p *Projector) Retained() int64 {
	n := int64(cap(p.pool)+cap(p.stack))*int64(unsafe.Sizeof((*frame)(nil))) +
		int64(cap(p.cancs))*int64(unsafe.Sizeof(cancellation{})) + int64(cap(p.cands))*int64(unsafe.Sizeof(entry{}))
	for _, fs := range [2][]*frame{p.pool, p.stack} {
		for _, f := range fs {
			n += int64(unsafe.Sizeof(frame{})) + int64(cap(f.matches))*int64(unsafe.Sizeof(entry{})) + int64(cap(f.captures))*int64(unsafe.Sizeof(capture{}))
			if f.firstUsed != nil {
				n += 256
			}
		}
	}
	return n
}

// TokensRead returns the number of stream tokens consumed.
func (p *Projector) TokensRead() int64 { return p.tokens }

// Observe makes fn see every token of this run after Step has processed
// it, until the next Reset. The token borrows the tokenizer's window:
// fn must copy what it keeps before returning.
func (p *Projector) Observe(fn func(xmlstream.Token)) { p.observe = fn }

//gcxlint:noalloc
func hasDescChildren(pn *projtree.Node) bool {
	for _, c := range pn.Children {
		if c.Step.Axis == xqast.Descendant {
			return true
		}
	}
	return false
}

// Step reads and processes one token, or, once a dead element's start tag
// has been read, the rest of its subtree through its end tag: no token of
// it can change the buffer, so the evaluator has nothing to see between
// them. It returns false once the input is exhausted. This is the
// nextNode() interface of Figure 11: the buffer manager calls Step until
// the data the evaluator blocks on is available.
//
//gcxlint:noalloc
func (p *Projector) Step() (bool, error) {
	_, err := p.step(math.MaxInt64)
	return !p.eof && err == nil, err
}

// StepN reads and processes budget tokens, fewer only at the end of the
// input or on an error. It returns the number read and whether input is
// left, as Step does.
//
//gcxlint:noalloc
func (p *Projector) StepN(budget int64) (n int64, more bool, err error) {
	for n < budget && !p.eof && err == nil {
		var k int64
		k, err = p.step(budget - n)
		n += k
	}
	return n, !p.eof && err == nil, err
}

// step is one Step that reads at most budget (≥ 1) tokens.
//
//gcxlint:noalloc
func (p *Projector) step(budget int64) (int64, error) {
	if p.eof {
		return 0, nil
	}
	if p.dead > 0 {
		return p.skipDead(budget)
	}
	tk, err := p.tok.Next()
	if err != nil {
		return 0, err
	}
	p.tokens++
	switch tk.Kind {
	case xmlstream.StartElement:
		p.openElement(tk.Sym)
	case xmlstream.EndElement:
		p.closeElement(tk.Sym)
	case xmlstream.Text:
		p.text(tk.Data)
	case xmlstream.EOF:
		p.eof = true
		if len(p.stack) != 1 {
			//gcxlint:allocok error construction terminates the run
			return 1, fmt.Errorf("proj: internal error: %d frames open at EOF", len(p.stack)-1)
		}
		p.buf.Finish(p.buf.Root())
	}
	if p.observe != nil {
		p.observe(*tk)
	}
	return 1, nil
}

// skipDead reads the open dead subtree's tokens, at most budget of them,
// through its end tag. They are counted, and the end tag closes a child
// of the open frame for sealAfterChild. Without an observer, the
// tokenizer counts them in place wherever it can (SkipContent), and Next
// reads the rest: the tags it hands back, queued tokens, and the dead
// root's end tag. An observer sees every token, so it gets them all from
// Next.
//
//gcxlint:noalloc
func (p *Projector) skipDead(budget int64) (int64, error) {
	n := int64(0)
	for n < budget && p.dead > 0 {
		if p.observe == nil {
			k, open, err := p.tok.SkipContent(budget - n)
			n, p.tokens, p.skipped, p.dead = n+k, p.tokens+k, p.skipped+k, p.dead+open
			if err != nil || n == budget {
				return n, err
			}
		}
		tk, err := p.tok.Next()
		if err != nil {
			return n, err
		}
		n++
		p.tokens++
		switch tk.Kind {
		case xmlstream.StartElement:
			p.dead++
		case xmlstream.EndElement:
			if p.dead--; p.dead == 0 && p.opts.Schema != nil {
				p.sealAfterChild(tk.Sym)
			}
		}
		if p.observe != nil {
			p.observe(*tk)
		}
	}
	return n, nil
}

// remaining returns the part of mult — the multiplicity of a derivation
// of chain role chain anchored at anchor — that belongs to instances not
// yet signed off. Every binding instance at the anchor contributes mult/of
// of the derivations (a multi-step chain such as $y//a//b/c over nested a
// reaches a node twice from one instance), so n signed-off instances take
// n times that share.
//
// The reduction applies only to chain continuations of signed-off
// instances — dependency-path nodes and dos captures (Var == "").
// A candidate that is itself a variable node starts a NEW binding
// instance of that variable and is never reduced, even when it is
// anchored at the same frame: under overlapping descendant steps
// (e.g. //*//*) one element's frame can anchor instances of two
// different variables, and suppressing the fresh binding would strand
// its later signOff without an assigned role instance.
//
//gcxlint:noalloc
func (p *Projector) remaining(chain xqast.Role, anchor *frame, mult int) int {
	for _, c := range p.cancs {
		if c.role == chain && c.anchor == anchor {
			return mult - mult*c.n/c.of
		}
	}
	return mult
}

// matches reports whether the node test of projection node c accepts the
// current token: a text token if sym is NoSym, an element with tag sym
// otherwise.
//
//gcxlint:noalloc
func (p *Projector) matches(c *projtree.Node, sym xmlstream.Sym) bool {
	switch c.Step.Test.Kind {
	case xqast.TestName:
		return p.syms[c.ID] == sym
	case xqast.TestStar:
		return sym != xmlstream.NoSym
	case xqast.TestText:
		return sym == xmlstream.NoSym
	default:
		return false
	}
}

// addCand merges one derivation into the candidate scratch, keyed by
// (projection node, owner-to-be, anchor).
//
//gcxlint:noalloc
func (p *Projector) addCand(pn *projtree.Node, owner, anchor *frame, mult int) {
	for i := range p.cands {
		c := &p.cands[i]
		if c.pn == pn && c.owner == owner && c.anchor == anchor {
			c.mult += mult
			return
		}
	}
	p.cands = append(p.cands, entry{pn: pn, owner: owner, anchor: anchor, mult: mult})
}

// collectCands gathers candidate matches for a child of top against the
// current token (sym as for matches), merging derivations. It returns the
// reused candidate scratch, valid until the next collectCands.
//
//gcxlint:noalloc
func (p *Projector) collectCands(top *frame, sym xmlstream.Sym) []entry {
	p.cands = p.cands[:0]
	// Child-axis steps from nodes matched at the parent.
	for i := range top.matches {
		e := &top.matches[i]
		for _, c := range e.pn.Children {
			if c.Step.Axis == xqast.Child && p.matches(c, sym) {
				p.addCand(c, top, e.anchor, e.mult)
			}
		}
	}
	// Descendant-axis steps from the scope frames (here or above).
	for s := top.scopes; s != nil; s = s.outer() {
		for i := range s.matches {
			e := &s.matches[i]
			for _, c := range e.pn.Children {
				if c.Step.Axis == xqast.Descendant && p.matches(c, sym) {
					p.addCand(c, e.owner, e.anchor, e.mult)
				}
			}
		}
	}
	// Apply signOff cancellations after merging: all same-anchored
	// derivations of a chain funnel into one candidate, which keeps its
	// structural multiplicity — each role lane subtracts its own
	// cancellations at assignment time (assignLanes) — and is dropped
	// only when every lane is fully cancelled.
	if len(p.cancs) > 0 {
		out := p.cands[:0]
		for i := range p.cands {
			if c := &p.cands[i]; c.pn.Var == "" && p.allLanesCancelled(c) {
				continue
			}
			out = append(out, p.cands[i])
		}
		p.cands = out
	}
	return p.cands
}

// allLanesCancelled reports whether every role lane of candidate c has
// been fully signed off at its anchor — only then can it be dropped.
//
//gcxlint:noalloc
func (p *Projector) allLanesCancelled(c *entry) bool {
	for i := range c.pn.Lanes() {
		if p.remaining(c.pn.Lane(i).Chain, c.anchor, c.mult) > 0 {
			return false
		}
	}
	return true
}

// assignLanes assigns candidate c's roles to the buffered node n, one
// lane at a time: each lane's multiplicity is what remains of the
// candidate's structural multiplicity after the lane's own signed-off
// instances (chain lanes only — binding lanes start new variable
// instances and are exempt, see remaining).
//
//gcxlint:noalloc
func (p *Projector) assignLanes(n *buffer.Node, c *entry) {
	for i := range c.pn.Lanes() {
		l := c.pn.Lane(i)
		m := c.mult
		if c.pn.Var == "" {
			m = p.remaining(l.Chain, c.anchor, c.mult)
		}
		if r := p.tree.Roles[l.Role]; m > 0 && r != nil && !r.Eliminated {
			p.buf.AddRole(n, l.Role, m)
		}
	}
}

// filterFirst applies first-witness suppression: a [1] candidate whose
// context instance already consumed its witness is dropped; otherwise the
// witness is consumed now.
//
//gcxlint:noalloc
func filterFirst(cands []entry) []entry {
	out := cands[:0]
	for _, c := range cands {
		if c.pn.Step.First {
			ctx := c.owner
			key := firstKey{id: c.pn.ID, anchor: c.anchor}
			if ctx.firstUsed[key] {
				continue
			}
			if ctx.firstUsed == nil {
				ctx.firstUsed = make(map[firstKey]bool, 2) //gcxlint:allocok allocated at most once per pooled frame, then cleared and reused
			}
			ctx.firstUsed[key] = true
		}
		out = append(out, c)
	}
	return out
}

// outer returns the next scope frame above scope frame s, nil at the top.
//
//gcxlint:noalloc
func (s *frame) outer() *frame {
	if s.parent == nil {
		return nil
	}
	return s.parent.scopes
}

// guard implements the structural preservation rule (Section 2, case (2)):
// the current element must be kept when its parent's configuration pairs a
// child-axis step with an overlapping descendant-axis step — discarding it
// could later promote a descendant into a false child-axis match.
//
//gcxlint:noalloc
func (p *Projector) guard(top *frame) bool {
	for _, e := range top.matches {
		for _, c := range e.pn.Children {
			if c.Step.Axis != xqast.Child {
				continue
			}
			for s := top.scopes; s != nil; s = s.outer() {
				for _, se := range s.matches {
					for _, d := range se.pn.Children {
						if d.Step.Axis == xqast.Descendant && p.testsOverlap(c, d) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// testsOverlap reports whether the tests of child or descendant steps a
// and b (a name, * or text(), never node()) can match the same token: two
// stars share every element, else b accepts the one token a names.
//
//gcxlint:noalloc
func (p *Projector) testsOverlap(a, b *projtree.Node) bool {
	if a.Step.Test.Kind == xqast.TestStar {
		a, b = b, a
	}
	return a.Step.Test.Kind == xqast.TestStar || p.matches(b, p.syms[a.ID])
}

// applyCaptureRoles assigns the roles of live ancestor captures to a newly
// buffered node. Under aggregate roles this is a no-op (the role sits on
// the subtree root only); otherwise every preserved node inherits each
// covering capture's role, as in the paper's base technique where e.g.
// every node below a bib child carries r5 (Figure 2).
//
//gcxlint:noalloc
func (p *Projector) applyCaptureRoles(n *buffer.Node, from *frame) {
	if p.opts.AggregateRoles || p.liveCaps == 0 {
		return
	}
	for f := from; f != nil; f = f.parent {
		for _, c := range f.captures {
			if c.live {
				p.buf.AddRole(n, c.role, p.remaining(c.chain, c.anchor, c.mult))
			}
		}
	}
}

// startCaptures creates captures for dos::node() children of a matched
// projection node and assigns the dos role to the matched element itself
// (descendant-or-self includes self). A dos leaf starts one capture per
// role lane: captures are keyed (role, anchor), so each member query's
// capture is cancelled independently.
//
//gcxlint:noalloc
func (p *Projector) startCaptures(f *frame, e *entry) {
	for _, c := range e.pn.Children {
		if !c.IsDosLeaf() {
			continue
		}
		for i := range c.Lanes() {
			p.addCapture(f, c.Lane(i), e)
		}
	}
}

// addCapture starts (or adds entry e to) one capture lane at frame f.
//
//gcxlint:noalloc
func (p *Projector) addCapture(f *frame, l projtree.RoleRef, e *entry) {
	role := p.tree.Roles[l.Role]
	if role == nil || role.Eliminated {
		return
	}
	mult := p.remaining(l.Chain, e.anchor, e.mult)
	if mult <= 0 {
		return
	}
	p.buf.AddRole(f.node, l.Role, mult)
	// Merge same-keyed captures: several derivation instances of the
	// same role can anchor at this frame (separate matched entries). A
	// capture with anything remaining is live, so the one found is.
	for j := range f.captures {
		if f.captures[j].role == l.Role && f.captures[j].anchor == e.anchor {
			f.captures[j].mult += e.mult
			return
		}
	}
	f.captures = append(f.captures, capture{role: l.Role, chain: l.Chain, anchor: e.anchor, mult: e.mult, live: true})
	p.liveCaps++
}

// openElement processes the start tag of an element with tag sym.
//
//gcxlint:noalloc
func (p *Projector) openElement(sym xmlstream.Sym) {
	top := p.stack[len(p.stack)-1]
	cands := p.collectCands(top, sym)
	cands = filterFirst(cands)

	// Schema facts: a child with this tag excludes certain later child
	// tags under the parent (recorded on the buffered parent node so
	// blocking cursors can terminate the region early).
	if p.opts.Schema != nil && top.node != nil && top.node.Kind == buffer.KindElement {
		for _, dead := range p.opts.Schema.NoMoreAfter(top.node.Sym, sym) {
			p.buf.MarkNoMore(top.node, dead)
		}
	}

	keep := len(cands) > 0 || p.liveCaps > 0 || p.guard(top)
	if !keep && top.scopes == nil {
		// A frame here would have no matches and no scope link, which
		// leaves collectCands, guard and textInterest nothing to find
		// below it: the element is dead.
		p.dead = 1
		return
	}
	f := p.newFrame(top)
	f.scopes = top.scopes
	if keep {
		n := p.buf.AppendElement(top.attach, sym)
		f.node = n
		f.attach = n
		p.applyCaptureRoles(n, top)
		if p.opts.Schema != nil && p.opts.Schema.EmptyElement(sym) {
			// EMPTY elements can have no content at all (not even
			// whitespace): the region is complete at its start tag.
			p.buf.Seal(n)
		}
	} else {
		f.attach = top.attach
	}

	if len(cands) > 0 {
		// Materialize match entries: resolve self-anchoring (straight
		// variable instances anchor at their own frame), assign roles,
		// start captures. The matches slice reuses the pooled frame's
		// backing array. A match with descendant-axis children makes f
		// the nearest scope frame.
		f.matches = f.matches[:0]
		for i := range cands {
			c := &cands[i]
			e := entry{pn: c.pn, owner: f, anchor: c.anchor, mult: c.mult}
			if c.pn.AnchorSelf {
				e.anchor = f
			}
			f.matches = append(f.matches, e)
			p.assignLanes(f.node, c)
			p.startCaptures(f, &f.matches[len(f.matches)-1])
			if hasDescChildren(c.pn) {
				f.scopes = f
			}
		}
	}

	p.stack = append(p.stack, f)
}

// closeElement processes the end tag of an element with tag sym.
//
//gcxlint:noalloc
func (p *Projector) closeElement(sym xmlstream.Sym) {
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	// Drop cancellations anchored at the closing frame: the subtree is
	// complete, nothing further can be assigned below it.
	if len(p.cancs) > 0 {
		kept := p.cancs[:0]
		for _, c := range p.cancs {
			if c.anchor != f {
				kept = append(kept, c)
			}
		}
		p.cancs = kept
	}
	for _, c := range f.captures {
		if c.live {
			p.liveCaps--
		}
	}
	if f.node != nil {
		p.buf.Finish(f.node)
	}
	p.releaseFrame(f)
	if p.opts.Schema != nil {
		p.sealAfterChild(sym)
	}
}

// sealAfterChild applies the schema-based scheduling rule of
// Koch/Scherzinger (cs/0406016) at a child's end tag: when the DTD
// proves the parent's content model is complete after a child with tag sym,
// the buffered parent is sealed — cursors see the region as finished
// before its end-of-element arrives, so blocked evaluation concludes and
// its signOffs flush buffered descendants that would otherwise sit until
// the parent's real close (or EOF, for accumulating queries).
//
// Sealing silences the region for EVERY cursor, including text() steps
// and dos captures, and element-content whitespace is still valid XML
// after the last child — so the seal is refused while any live capture
// covers the frame or a text candidate could still match here. In that
// refused case arriving text would have been buffered; in the sealed
// case it is discarded anyway, so nothing a cursor could observe is
// lost.
//
//gcxlint:noalloc
func (p *Projector) sealAfterChild(sym xmlstream.Sym) {
	top := p.stack[len(p.stack)-1]
	if top.node == nil || top.node.Kind != buffer.KindElement || top.node.Sealed() {
		return
	}
	if p.liveCaps > 0 || p.textInterest(top) {
		return
	}
	if p.opts.Schema.ContentComplete(top.node.Sym, sym) {
		p.buf.Seal(top.node)
	}
}

// textInterest reports whether a text token at this frame could match a
// projection node (and hence be buffered).
//
//gcxlint:noalloc
func (p *Projector) textInterest(top *frame) bool {
	for i := range top.matches {
		for _, c := range top.matches[i].pn.Children {
			if c.Step.Axis == xqast.Child && c.Step.Test.Kind == xqast.TestText {
				return true
			}
		}
	}
	for s := top.scopes; s != nil; s = s.outer() {
		for i := range s.matches {
			for _, c := range s.matches[i].pn.Children {
				if c.Step.Axis == xqast.Descendant && c.Step.Test.Kind == xqast.TestText {
					return true
				}
			}
		}
	}
	return false
}

// text processes a character-data token. data may borrow the tokenizer's
// window: the buffer copies what it keeps into its text slab, and the
// text of a discarded region — where projection spends its time — is
// never copied.
//
//gcxlint:borrowed
//gcxlint:noalloc
func (p *Projector) text(data string) {
	top := p.stack[len(p.stack)-1]
	cands := p.collectCands(top, xmlstream.NoSym)
	cands = filterFirst(cands)

	if len(cands) == 0 && p.liveCaps == 0 {
		return
	}
	n := p.buf.AppendText(top.attach, data)
	p.applyCaptureRoles(n, top)
	// text()/dos::node() chains do not occur (static analysis never
	// appends dos below text tests), so no captures here.
	for i := range cands {
		p.assignLanes(n, &cands[i])
	}
}

// CancelRole implements buffer.Canceller: ONE instance of role anchored
// at the frame of binding is retired — future derivations anchored there
// lose that instance's share of their multiplicity (see remaining), and
// every live capture for (role, anchor) goes dead once nothing of it
// remains. Called by the buffer when a signOff's binding subtree is still
// unfinished; each signOff statement retires exactly one binding
// instance, so instances signed off later keep projecting until their own
// signOff arrives.
//
//gcxlint:noalloc
func (p *Projector) CancelRole(binding *buffer.Node, role xqast.Role) {
	var bf *frame
	for i := len(p.stack) - 1; i >= 0; i-- {
		if p.stack[i].node == binding {
			bf = p.stack[i]
			break
		}
	}
	if bf == nil {
		return // binding not on the open path: nothing future to cancel
	}
	recorded := false
	for i := range p.cancs {
		if p.cancs[i].role == role && p.cancs[i].anchor == bf {
			p.cancs[i].n++
			recorded = true
			break
		}
	}
	if !recorded {
		p.cancs = append(p.cancs, cancellation{role: role, anchor: bf, n: 1, of: p.instances(bf, role)})
	}
	for i := bf.depth; i < len(p.stack); i++ {
		f := p.stack[i]
		for j := range f.captures {
			cap := &f.captures[j]
			if cap.live && cap.chain == role && cap.anchor == bf && p.remaining(role, bf, cap.mult) <= 0 {
				cap.live = false
				p.liveCaps--
			}
		}
	}
}

// instances counts the binding instances at frame f that role's signOffs
// retire one by one: the multiplicity with which the role's anchoring
// variable — the nearest self-anchoring ancestor-or-self of the role's
// projection node — matched at f.
//
//gcxlint:noalloc
func (p *Projector) instances(f *frame, role xqast.Role) int {
	v := p.tree.Roles[role].Node
	for !v.AnchorSelf {
		v = v.Parent
	}
	n := 0
	for _, e := range f.matches {
		if e.pn == v {
			n += e.mult
		}
	}
	return max(n, 1)
}

// takeFrame returns a cleared frame from the pool (or a fresh one),
// retaining the matches/captures backing arrays and the firstUsed map of
// its previous life.
//
//gcxlint:noalloc
func (p *Projector) takeFrame() *frame {
	if n := len(p.pool); n > 0 {
		f := p.pool[n-1]
		p.pool = p.pool[:n-1]
		matches, captures, firstUsed := f.matches[:0], f.captures[:0], f.firstUsed
		*f = frame{}
		f.matches = matches
		f.captures = captures
		if firstUsed != nil {
			clear(firstUsed)
			f.firstUsed = firstUsed
		}
		return f
	}
	// Every frame ends up in the pool (Reset releases the open ones):
	// sized now for all of them, it never grows later, so what a state
	// retains is fixed by its first run.
	p.pool = slices.Grow(p.pool, len(p.stack)+1) //gcxlint:allocok pool growth to document depth, amortized across runs
	return &frame{}                              //gcxlint:allocok pool growth to document depth, amortized across runs
}

//gcxlint:noalloc
func (p *Projector) newFrame(parent *frame) *frame {
	f := p.takeFrame()
	f.parent = parent
	f.depth = parent.depth + 1
	return f
}

//gcxlint:noalloc
func (p *Projector) releaseFrame(f *frame) {
	p.pool = append(p.pool, f)
}
