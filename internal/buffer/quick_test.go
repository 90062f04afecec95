package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// TestQuickBufferInvariants drives the buffer through random operation
// sequences (append, role add, finish, pin/unpin, signOff) and verifies
// the structural invariants after every step:
//
//   - link consistency (parent/child/sibling pointers agree),
//   - each node's role multiset (inline entry + overflow slot) sums to
//     its selfTotal, and subtree role counters equal the recomputed sums,
//   - subtree pin counters equal the recomputed sums,
//   - unlinked nodes are never reachable from the root,
//   - node accounting (LiveNodes) matches the reachable count.
func TestQuickBufferInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		syms := xmlstream.NewSymTab()
		const roles = 5
		agg := []bool{false, false, true, false, true, false}
		b := New(syms, roles, agg)

		type tracked struct {
			n      *Node
			roles  []xqast.Role // roles assigned (for signoff balance)
			pinned bool
		}
		var nodes []*tracked
		open := []*Node{b.Root()} // stack of unfinished nodes

		for step := 0; step < 200; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3: // append element under the innermost open node
				parent := open[len(open)-1]
				n := b.AppendElement(parent, syms.Intern([]string{"a", "b", "c"}[r.Intn(3)]))
				tr := &tracked{n: n}
				// Assign 0-2 roles.
				for i := 0; i < r.Intn(3); i++ {
					role := xqast.Role(1 + r.Intn(roles))
					b.AddRole(n, role, 1)
					tr.roles = append(tr.roles, role)
				}
				nodes = append(nodes, tr)
				open = append(open, n)
			case 4: // append text
				parent := open[len(open)-1]
				b.AppendText(parent, "t")
			case 5, 6: // close the innermost open element
				if len(open) > 1 {
					n := open[len(open)-1]
					open = open[:len(open)-1]
					b.Finish(n)
				}
			case 7: // pin/unpin a random live node
				if len(nodes) > 0 {
					tr := nodes[r.Intn(len(nodes))]
					if tr.n.Unlinked() {
						break
					}
					if tr.pinned {
						b.Unpin(tr.n)
						tr.pinned = false
					} else {
						b.Pin(tr.n)
						tr.pinned = true
					}
				}
			case 8, 9: // sign off one previously assigned role instance
				if len(nodes) > 0 {
					tr := nodes[r.Intn(len(nodes))]
					if len(tr.roles) > 0 && !tr.n.Unlinked() {
						role := tr.roles[len(tr.roles)-1]
						tr.roles = tr.roles[:len(tr.roles)-1]
						if err := b.SignOff(tr.n, nil, nil, role); err != nil {
							t.Logf("seed %d step %d: signoff: %v", seed, step, err)
							return false
						}
					}
				}
			}
			if err := checkInvariants(b); err != "" {
				t.Logf("seed %d step %d: %s\n%s", seed, step, err, b.Dump())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants recomputes all derived state and compares with the
// maintained counters.
func checkInvariants(b *Buffer) string {
	live := int64(0)
	var walk func(n *Node) (roleSum int64, pinSum int32, msg string)
	walk = func(n *Node) (int64, int32, string) {
		live++
		if n.unlinked {
			return 0, 0, "unlinked node reachable from root"
		}
		self := n.role.n
		for _, e := range b.roles.appendTo(nil, n.roles) {
			self += e.n
		}
		if self != n.selfTotal || (n.role.n == 0 && n.roles != 0) {
			return 0, 0, "role multiset disagrees with selfTotal, or overflow without an inline entry"
		}
		roleSum := int64(n.selfTotal)
		pinSum := int32(0)
		var prev *Node
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if c.Parent != n {
				return 0, 0, "child with wrong parent pointer"
			}
			if c.PrevSib != prev {
				return 0, 0, "broken prev-sibling link"
			}
			rs, ps, msg := walk(c)
			if msg != "" {
				return 0, 0, msg
			}
			roleSum += rs
			pinSum += ps
			prev = c
		}
		if n.LastChild != prev {
			return 0, 0, "broken last-child link"
		}
		if roleSum != int64(n.subTotal) {
			return 0, 0, "subtree role counter mismatch"
		}
		// subPins counts pins in the subtree; pins on n itself are
		// included in n.subPins but not in any child's.
		selfPins := n.subPins - pinSum
		if selfPins < 0 {
			return 0, 0, "subtree pin counter mismatch"
		}
		return roleSum, n.subPins, ""
	}
	_, _, msg := walk(b.root)
	if msg != "" {
		return msg
	}
	if live != b.stats.LiveNodes {
		return "LiveNodes accounting mismatch"
	}
	return ""
}
