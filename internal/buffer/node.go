// Package buffer implements the GCX buffer manager (Sections 5 and 6 of the
// paper): a projected document tree whose nodes carry role multisets, with
// active garbage collection triggered by signOff statements.
//
// The buffer datastructure follows Section 6 ("Buffer Representation"):
// a single tree with parent/child and sibling pointers, tag names replaced
// by integer symbols, and per-node role multisets.
//
// Deletion discipline (Section 5, Figure 10): a node is *irrelevant* when
// neither it nor any descendant carries a role (and, in this
// implementation, no aggregate role on an ancestor covers it and no
// evaluator cursor pins it). Irrelevant nodes are deleted as soon as a
// signOff makes them irrelevant; "unfinished" nodes (closing tag not yet
// read) and pinned nodes are deleted lazily when they finish or are
// unpinned.
package buffer

import "gcx/internal/xmlstream"

// Kind distinguishes node kinds in the buffer tree.
type Kind uint8

const (
	// KindRoot is the virtual document root (the paper's root node).
	KindRoot Kind = iota + 1
	// KindElement is an element node.
	KindElement
	// KindText is a character-data node.
	KindText
)

// roleEntry is one role with its multiplicity in the node's role multiset.
type roleEntry struct {
	role int32 // an xqast.Role; 0 marks an empty inline entry
	n    int32
}

// Node is a buffered document node. It owns no heap memory: its first
// role entry sits inline, further entries and its schema facts live in
// the buffer's slot tables (slots.go), named by index. The int32s and
// flags pack after the pointers and Text with no padding (TestNodeLayout).
type Node struct {
	Parent     *Node
	FirstChild *Node
	LastChild  *Node
	NextSib    *Node
	PrevSib    *Node

	// Text is the character data (text nodes only). It points into the
	// buffer's text slab and is valid until the node is unlinked or the
	// buffer is Reset; whatever outlives that copies it.
	Text string
	// Sym is the interned tag name (elements only).
	Sym xmlstream.Sym
	// role is the first entry of the role multiset; roles names the
	// buffer's overflow slot holding the others (0: none). An empty
	// inline entry implies an empty overflow: removing it promotes one.
	role  roleEntry
	roles int32
	// noMore names the buffer's slot of child tags that can no longer
	// occur below this node: the projector's DTD facts (see package dtd).
	noMore int32
	// aggCount counts aggregate-role instances on this node; descendants
	// of a node with aggCount > 0 are covered and must not be reclaimed.
	aggCount int32
	// selfTotal is the total number of role instances on this node
	// (including aggregate ones).
	selfTotal int32
	// subTotal is the total number of role instances in the subtree rooted
	// here (including selfTotal).
	subTotal int32
	// subPins counts evaluator pins in the subtree rooted here.
	subPins int32
	// chunk is what the text slab needs back to release Text (see
	// textSlab.keep).
	chunk int32
	// stamp changes whenever something a blocked evaluator can be waiting
	// for on this node happens: a child is linked below it, it is finished
	// or sealed, a schema fact rules out one of its child tags (see touch).
	stamp uint32

	Kind Kind
	// finished is set once the closing tag has been read from the stream.
	finished bool
	// sealed is set when a DTD content-model fact proves the node's
	// content is complete before its closing tag arrives (schema-based
	// scheduling, Koch/Scherzinger cs/0406016). A sealed node reports
	// Finished() to cursors — evaluation over the region can conclude and
	// its signOffs can flush buffered descendants early — but physical
	// reclamation (deletable) still waits for the real closing tag, so an
	// input that violates the asserted schema can corrupt results but
	// never the arena.
	sealed bool
	// unlinked marks nodes already removed from the tree (debug aid; a
	// deleted node must never be touched again).
	unlinked bool
}

// recycle clears n for reuse by the arena. The stamp moves on instead of
// restarting, so the node the arena hands out never shows a stamp its
// slot showed before (see Stamp).
//
//gcxlint:noalloc
func (n *Node) recycle() {
	stamp := n.stamp + 1
	*n = Node{}
	n.stamp = stamp
}

// Stamp returns the node's change stamp. A shared pass's scheduler
// compares it with the value a blocked evaluator recorded when it parked
// on this node: equal means none of the events the evaluator can be
// waiting for (a new child, Finish, Seal, MarkNoMore) has happened, so
// waking it would change nothing. A stamp comparison, unlike comparing
// LastChild pointers, cannot be fooled by the arena handing a reclaimed
// node out again, and the waited-on node itself is never reclaimed while
// waited on: it is unfinished (that is what the evaluator waits for), and
// only finished nodes are deletable.
//
// Because recycling moves the stamp on too, a (pointer, stamp) pair
// names one node state for the whole run, reuse of the slot included:
// the evaluator's probe tables identify the region they were built over
// that way, across loop executions in which the region is not pinned.
//
//gcxlint:noalloc
func (n *Node) Stamp() uint32 { return n.stamp }

// touch records an event a blocked evaluator may be waiting for on n.
//
//gcxlint:noalloc
func (n *Node) touch() { n.stamp++ }

// Finished reports whether the node's content is complete: its closing
// tag has been read, or a schema fact sealed it early (see Buffer.Seal).
func (n *Node) Finished() bool { return n.finished || n.sealed }

// Sealed reports whether the node was schema-sealed before its closing
// tag.
func (n *Node) Sealed() bool { return n.sealed }

// Unlinked reports whether the node has been reclaimed.
func (n *Node) Unlinked() bool { return n.unlinked }

// SubtreeRoles returns the number of role instances in n's subtree.
func (n *Node) SubtreeRoles() int64 { return int64(n.subTotal) }

// Covered reports whether an ancestor of n (strictly above it) carries an
// aggregate role, i.e. n is kept alive by subtree inheritance (Section 6,
// "Aggregate Roles").
func (n *Node) Covered() bool {
	for a := n.Parent; a != nil; a = a.Parent {
		if a.aggCount > 0 {
			return true
		}
	}
	return false
}
