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
	// Supplying a schema asserts the input is valid against it.
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
// owner frame.
type capture struct {
	role   xqast.Role
	anchor *frame
	mult   int
	live   bool
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
	// matches are the projection nodes matched at this element. The slice
	// is fully built before any pointer into it is taken (scopes extension
	// below), and never appended to afterwards.
	matches []entry
	// scopes are entries (here or at ancestors) whose projection nodes
	// have descendant-axis children: the parent's slice as is, or the
	// parent's plus this frame's own carved from the projector's scope
	// arena (scopeMark is the arena length to rewind to at the end tag).
	scopes    []*entry
	scopeMark int
	// captures started at this element.
	captures []capture
	liveCaps int
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
// (registered by SignOff on unfinished subtrees). n counts the signed-off
// instances: one element can host several derivation instances of the same
// role (e.g. //b below //* reaches b once per ancestor binding), and each
// signOff retires exactly one of them — future same-anchored assignments
// lose n of their multiplicity, while the remaining instances keep
// assigning until their own signOffs arrive.
type cancellation struct {
	role   xqast.Role
	anchor *frame
	n      int
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

	// scratch for candidate merging.
	cands []entry
	// scopeArena backs every frame's own scopes slice. Frames carve from
	// its end at their start tag and rewind it at their end tag, so it
	// holds one extension per OPEN element and a warm run carves without
	// allocating; Reset rewinds it whole.
	scopeArena []*entry

	tokens int64

	// observe, when set, sees every token after Step has processed it
	// (the tracer). It is per run: Reset clears it.
	observe func(xmlstream.Token)
}

// New creates a projector reading from tok into buf, guided by tree. The
// tokenizer interns names into the buffer's symbol table from then on, so
// a token's Sym is what the buffer stores.
func New(tok *xmlstream.Tokenizer, buf *buffer.Buffer, tree *projtree.Tree, opts Options) *Projector {
	tok.SetSymTab(buf.Syms())
	p := &Projector{tok: tok, buf: buf, tree: tree, opts: opts}
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
		rootFrame.scopes = p.carveScopes(nil, 1)
		rootFrame.scopes[0] = rootEntry
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
// captures than any run before it.
//
//gcxlint:keep tok wired at construction; the owner resets the tokenizer separately
//gcxlint:keep buf wired at construction; the owner resets the buffer separately
//gcxlint:keep tree the compiled projection tree is immutable and shared across runs
//gcxlint:keep opts configuration is part of the projector's identity
func (p *Projector) Reset() {
	for i := len(p.stack) - 1; i >= 0; i-- {
		p.releaseFrame(p.stack[i])
	}
	p.retain()
	p.eof = false
	p.tokens = 0
	p.observe = nil
	p.init()
}

// maxRetainedFrames bounds the frames an idle (pooled) projector keeps,
// and the open-element stack and scope arena it keeps room for, like the
// buffer's maxRetainedSlabs: a document nested deeper than that allocates
// its deeper frames again on its next run, a document a thousand times
// deeper does not leave a thousand times the frames behind.
const maxRetainedFrames = 1024

// retain empties the stack and the scratch, drops what is beyond
// maxRetainedFrames, and clears every link the pooled frames and the
// scratch's backing arrays still hold, so that an idle projector pins
// neither the last run's buffer nodes nor, through a kept frame, one it
// dropped.
func (p *Projector) retain() {
	if len(p.pool) > maxRetainedFrames {
		p.pool = append(make([]*frame, 0, maxRetainedFrames), p.pool[:maxRetainedFrames]...)
	}
	for _, f := range p.pool {
		clear(f.matches[:cap(f.matches)])
		clear(f.captures[:cap(f.captures)])
		clear(f.firstUsed)
		*f = frame{matches: f.matches[:0], captures: f.captures[:0], firstUsed: f.firstUsed}
	}
	if cap(p.stack) > maxRetainedFrames {
		p.stack = nil
	}
	if cap(p.scopeArena) > maxRetainedFrames {
		p.scopeArena = nil
	}
	clear(p.stack[:cap(p.stack)])
	clear(p.cancs[:cap(p.cancs)])
	clear(p.cands[:cap(p.cands)])
	clear(p.scopeArena[:cap(p.scopeArena)])
	p.stack, p.cancs, p.cands, p.scopeArena = p.stack[:0], p.cancs[:0], p.cands[:0], p.scopeArena[:0]
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

// Step reads and processes one token. It returns false once the input is
// exhausted. This is the nextNode() interface of Figure 11: the buffer
// manager calls Step until the data the evaluator blocks on is available.
//
//gcxlint:noalloc
func (p *Projector) Step() (bool, error) {
	if p.eof {
		return false, nil
	}
	tk, err := p.tok.Next()
	if err != nil {
		return false, err
	}
	p.tokens++
	switch tk.Kind {
	case xmlstream.StartElement:
		p.openElement(tk.Name, tk.Sym)
	case xmlstream.EndElement:
		p.closeElement(tk.Name)
	case xmlstream.Text:
		p.text(tk.Data)
	case xmlstream.EOF:
		p.eof = true
		if len(p.stack) != 1 {
			//gcxlint:allocok error construction terminates the run
			return false, fmt.Errorf("proj: internal error: %d frames open at EOF", len(p.stack)-1)
		}
		p.buf.Finish(p.buf.Root())
	}
	if p.observe != nil {
		p.observe(tk)
	}
	return !p.eof, nil
}

// cancelledCount returns the number of signed-off instances of role at
// anchor: future derivations of the role anchored there lose this much
// multiplicity.
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
func (p *Projector) cancelledCount(role xqast.Role, anchor *frame) int {
	for _, c := range p.cancs {
		if c.role == role && c.anchor == anchor {
			return c.n
		}
	}
	return 0
}

// elementTestMatches reports whether an element with tag sym name matches a
// step node test.
//
//gcxlint:noalloc
func elementTestMatches(t xqast.NodeTest, name string) bool {
	switch t.Kind {
	case xqast.TestName:
		return t.Name == name
	case xqast.TestStar:
		return true
	default:
		return false
	}
}

// tokenMatches evaluates a step node test against the current token: a
// text token if isText, an element with the given tag name otherwise.
//
//gcxlint:noalloc
func tokenMatches(t xqast.NodeTest, isText bool, name string) bool {
	if isText {
		return t.Kind == xqast.TestText
	}
	return elementTestMatches(t, name)
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
// current token, merging derivations. The returned slice is the reused
// candidate scratch, valid until the next collectCands.
//
//gcxlint:noalloc
func (p *Projector) collectCands(top *frame, isText bool, name string) []entry {
	p.cands = p.cands[:0]
	// Child-axis steps from nodes matched at the parent.
	for i := range top.matches {
		e := &top.matches[i]
		for _, c := range e.pn.Children {
			if c.Step.Axis == xqast.Child && tokenMatches(c.Step.Test, isText, name) {
				p.addCand(c, top, e.anchor, e.mult)
			}
		}
	}
	// Descendant-axis steps from scope entries (matched here or above).
	for _, e := range top.scopes {
		for _, c := range e.pn.Children {
			if c.Step.Axis == xqast.Descendant && tokenMatches(c.Step.Test, isText, name) {
				p.addCand(c, e.owner, e.anchor, e.mult)
			}
		}
	}
	// Apply signOff cancellations after merging: all same-anchored
	// derivations of a chain funnel into one candidate, whose multiplicity
	// is reduced by the number of already signed-off instances. A shared
	// node (extra role lanes from other member queries) keeps its
	// structural multiplicity — each lane subtracts its own cancellations
	// at assignment time (assignLanes) — and is dropped only when every
	// lane is fully cancelled.
	if len(p.cancs) > 0 {
		out := p.cands[:0]
		for i := range p.cands {
			c := p.cands[i]
			if c.pn.Var == "" {
				if len(c.pn.Extra) == 0 {
					c.mult -= p.cancelledCount(c.pn.ChainRole, c.anchor)
					if c.mult <= 0 {
						continue
					}
				} else if p.allLanesCancelled(c.pn, c.mult, c.anchor) {
					continue
				}
			}
			out = append(out, c)
		}
		p.cands = out
	}
	return p.cands
}

// allLanesCancelled reports whether every role lane of a shared node has
// been fully signed off at this anchor — only then can the shared
// candidate be dropped.
//
//gcxlint:noalloc
func (p *Projector) allLanesCancelled(pn *projtree.Node, mult int, anchor *frame) bool {
	if mult > p.cancelledCount(pn.ChainRole, anchor) {
		return false
	}
	for _, l := range pn.Extra {
		if mult > p.cancelledCount(l.Chain, anchor) {
			return false
		}
	}
	return true
}

// assignLanes assigns a shared node's roles to a buffered node, one lane
// at a time: each lane's multiplicity is the candidate's structural
// multiplicity less the lane's own signed-off instances (chain lanes
// only — binding lanes start new variable instances and are exempt,
// exactly as in cancelledCount's solo rule).
//
//gcxlint:noalloc
func (p *Projector) assignLanes(n *buffer.Node, pn *projtree.Node, mult int, anchor *frame) {
	chain := pn.Var == ""
	m := mult
	if chain {
		m -= p.cancelledCount(pn.ChainRole, anchor)
	}
	if m > 0 {
		if r := p.tree.Roles[pn.Role]; r != nil && !r.Eliminated {
			p.buf.AddRole(n, pn.Role, m)
		}
	}
	for _, l := range pn.Extra {
		m := mult
		if chain {
			m -= p.cancelledCount(l.Chain, anchor)
		}
		if m > 0 {
			if r := p.tree.Roles[l.Role]; r != nil && !r.Eliminated {
				p.buf.AddRole(n, l.Role, m)
			}
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

// covered reports whether any live capture is active at or above f.
//
//gcxlint:noalloc
func covered(f *frame) bool {
	for ; f != nil; f = f.parent {
		if f.liveCaps > 0 {
			return true
		}
	}
	return false
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
			for _, s := range top.scopes {
				for _, d := range s.pn.Children {
					if d.Step.Axis == xqast.Descendant && testsOverlap(c.Step.Test, d.Step.Test) {
						return true
					}
				}
			}
		}
	}
	return false
}

// testsOverlap reports whether two node tests can match the same token.
//
//gcxlint:noalloc
func testsOverlap(a, b xqast.NodeTest) bool {
	if a.Kind == xqast.TestText || b.Kind == xqast.TestText {
		return a.Kind == b.Kind
	}
	// Element tests: * overlaps everything, names overlap on equality.
	if a.Kind == xqast.TestStar || b.Kind == xqast.TestStar {
		return true
	}
	return a.Kind == xqast.TestName && b.Kind == xqast.TestName && a.Name == b.Name
}

// applyCaptureRoles assigns the roles of live ancestor captures to a newly
// buffered node. Under aggregate roles this is a no-op (the role sits on
// the subtree root only); otherwise every preserved node inherits each
// covering capture's role, as in the paper's base technique where e.g.
// every node below a bib child carries r5 (Figure 2).
//
//gcxlint:noalloc
func (p *Projector) applyCaptureRoles(n *buffer.Node, from *frame) {
	if p.opts.AggregateRoles {
		return
	}
	for f := from; f != nil; f = f.parent {
		for i := range f.captures {
			if f.captures[i].live {
				p.buf.AddRole(n, f.captures[i].role, f.captures[i].mult)
			}
		}
	}
}

// startCaptures creates captures for dos::node() children of a matched
// projection node and assigns the dos role to the matched element itself
// (descendant-or-self includes self). A shared dos leaf starts one
// capture per role lane: captures are keyed (role, anchor), so each
// member query's capture is cancelled independently.
//
//gcxlint:noalloc
func (p *Projector) startCaptures(f *frame, e *entry) {
	for _, c := range e.pn.Children {
		if !c.IsDosLeaf() {
			continue
		}
		p.addCapture(f, c.Role, c.ChainRole, e)
		for _, l := range c.Extra {
			p.addCapture(f, l.Role, l.Chain, e)
		}
	}
}

// addCapture starts (or re-activates) one capture lane at frame f.
//
//gcxlint:noalloc
func (p *Projector) addCapture(f *frame, roleID, chain xqast.Role, e *entry) {
	role := p.tree.Roles[roleID]
	if role == nil || role.Eliminated {
		return
	}
	mult := e.mult - p.cancelledCount(chain, e.anchor)
	if mult <= 0 {
		return
	}
	// Merge same-keyed captures: several derivation instances of the
	// same role can anchor at this frame (separate matched entries),
	// and CancelRole retires them one multiplicity at a time.
	merged := false
	for j := range f.captures {
		if f.captures[j].role == roleID && f.captures[j].anchor == e.anchor {
			if !f.captures[j].live {
				f.captures[j].live = true
				f.liveCaps++
			}
			f.captures[j].mult += mult
			merged = true
			break
		}
	}
	if !merged {
		f.captures = append(f.captures, capture{role: roleID, anchor: e.anchor, mult: mult, live: true})
		f.liveCaps++
	}
	p.buf.AddRole(f.node, roleID, mult)
}

// openElement processes a start tag: name is the symbol table's string
// for sym, which the tokenizer has interned.
//
//gcxlint:noalloc
func (p *Projector) openElement(name string, sym xmlstream.Sym) {
	top := p.stack[len(p.stack)-1]
	cands := p.collectCands(top, false, name)
	cands = filterFirst(cands)

	// Schema facts: a child with this tag excludes certain later child
	// tags under the parent (recorded on the buffered parent node so
	// blocking cursors can terminate the region early). The schema
	// speaks names, so its dead tags are interned here: the projector's
	// one Intern, and only under a DTD.
	if p.opts.Schema != nil && top.node != nil && top.node.Kind == buffer.KindElement {
		parentTag := p.buf.Syms().Name(top.node.Sym)
		for _, dead := range p.opts.Schema.NoMoreAfter(parentTag, name) {
			p.buf.MarkNoMore(top.node, p.buf.Syms().Intern(dead))
		}
	}

	f := p.newFrame(top)
	f.scopes, f.scopeMark = top.scopes, len(p.scopeArena)

	keep := len(cands) > 0 || covered(top) || p.guard(top)
	if keep {
		n := p.buf.AppendElement(top.attach, sym)
		f.node = n
		f.attach = n
		p.applyCaptureRoles(n, top)
		if p.opts.Schema != nil && p.opts.Schema.EmptyElement(name) {
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
		// backing array; pointers into it (scopes, below) are taken only
		// after it is fully built.
		f.matches = f.matches[:0]
		for i := range cands {
			c := &cands[i]
			e := entry{pn: c.pn, owner: f, anchor: c.anchor, mult: c.mult}
			if c.pn.AnchorSelf {
				e.anchor = f
			}
			f.matches = append(f.matches, e)
			if len(c.pn.Extra) == 0 {
				if r := p.tree.Roles[c.pn.Role]; r != nil && !r.Eliminated {
					p.buf.AddRole(f.node, c.pn.Role, c.mult)
				}
			} else {
				p.assignLanes(f.node, c.pn, c.mult, c.anchor)
			}
			p.startCaptures(f, &f.matches[len(f.matches)-1])
		}
		// Extend the descendant scope with matches that have
		// descendant-axis children.
		own := 0
		for i := range f.matches {
			if hasDescChildren(f.matches[i].pn) {
				own++
			}
		}
		if own > 0 {
			f.scopes = p.carveScopes(top.scopes, own)
			at := len(top.scopes)
			for i := range f.matches {
				if hasDescChildren(f.matches[i].pn) {
					f.scopes[at] = &f.matches[i]
					at++
				}
			}
		}
	}

	p.stack = append(p.stack, f)
}

// carveScopes returns a slice of len(parent)+own entries from the end of
// the scope arena, the first len(parent) copied from parent: a frame's
// extension never aliases its parent's backing, so two siblings cannot
// clobber each other's. When the arena is full the next chunk replaces it;
// slices carved earlier keep the old chunk alive for as long as their
// frames are open.
//
//gcxlint:noalloc
func (p *Projector) carveScopes(parent []*entry, own int) []*entry {
	base, n := len(p.scopeArena), len(parent)+own
	if cap(p.scopeArena)-base < n {
		p.scopeArena = make([]*entry, base, max(2*cap(p.scopeArena), base+n, 64)) //gcxlint:allocok arena growth to the deepest open scope chain, amortized across runs
	}
	p.scopeArena = p.scopeArena[:base+n]
	out := p.scopeArena[base : base+n : base+n]
	copy(out, parent)
	return out
}

// closeElement processes an end tag.
//
//gcxlint:noalloc
func (p *Projector) closeElement(name string) {
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
	if f.node != nil {
		p.buf.Finish(f.node)
	}
	p.scopeArena = p.scopeArena[:f.scopeMark]
	p.releaseFrame(f)
	if p.opts.Schema != nil {
		p.sealAfterChild(name)
	}
}

// sealAfterChild applies the schema-based scheduling rule of
// Koch/Scherzinger (cs/0406016) at a child's end tag: when the DTD
// proves the parent's content model is complete after a `name` child,
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
func (p *Projector) sealAfterChild(name string) {
	top := p.stack[len(p.stack)-1]
	if top.node == nil || top.node.Kind != buffer.KindElement || top.node.Sealed() {
		return
	}
	if covered(top) || p.textInterest(top) {
		return
	}
	parentTag := p.buf.Syms().Name(top.node.Sym)
	if p.opts.Schema.ContentComplete(parentTag, name) {
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
	for _, e := range top.scopes {
		for _, c := range e.pn.Children {
			if c.Step.Axis == xqast.Descendant && c.Step.Test.Kind == xqast.TestText {
				return true
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
	cands := p.collectCands(top, true, "")
	cands = filterFirst(cands)

	if len(cands) == 0 && !covered(top) {
		return
	}
	n := p.buf.AppendText(top.attach, data)
	p.applyCaptureRoles(n, top)
	for i := range cands {
		c := &cands[i]
		if len(c.pn.Extra) == 0 {
			if r := p.tree.Roles[c.pn.Role]; r != nil && !r.Eliminated {
				p.buf.AddRole(n, c.pn.Role, c.mult)
			}
		} else {
			p.assignLanes(n, c.pn, c.mult, c.anchor)
		}
		// text()/dos::node() chains do not occur (static analysis never
		// appends dos below text tests), so no captures here.
	}
}

// CancelRole implements buffer.Canceller: ONE instance of role anchored
// at the frame of binding is retired — future derivations anchored there
// lose one multiplicity, and every live capture for (role, anchor) sheds
// one instance (deactivating when none remain). Called by the buffer when
// a signOff's binding subtree is still unfinished; each signOff statement
// retires exactly one derivation instance, so instances signed off later
// keep projecting until their own signOff arrives.
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
		p.cancs = append(p.cancs, cancellation{role: role, anchor: bf, n: 1})
	}
	for i := bf.depth; i < len(p.stack); i++ {
		f := p.stack[i]
		for j := range f.captures {
			cap := &f.captures[j]
			if cap.live && cap.role == role && cap.anchor == bf {
				cap.mult--
				if cap.mult <= 0 {
					cap.live = false
					f.liveCaps--
				}
			}
		}
	}
}

// takeFrame returns a cleared frame from the pool (or a fresh one),
// retaining the matches/captures backing arrays and the firstUsed map of
// its previous life. The scopes slice is not retained: its backing is the
// scope arena's (or an ancestor frame's carve of it).
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
	return &frame{} //gcxlint:allocok pool growth to document depth, amortized across runs
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
