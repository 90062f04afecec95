package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// modelRoles renders a model multiset as RolesString does.
func modelRoles(m map[xqast.Role]int) string {
	var ids []int
	for r, k := range m {
		for i := 0; i < k; i++ {
			ids = append(ids, int(r))
		}
	}
	slices.Sort(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("r%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// TestRoleMultisetMatchesModel drives AddRole and removeRole at random on
// a small tree and compares every node's multiset — the inline entry plus
// its overflow slot — with a map[Role]int after each step: counts, the
// rendering, selfTotal/aggCount/subTotal along the ancestors, the
// estimated bytes, and quick_test.go's structural invariants. Up to six
// roles per node with multiplicities above one make the overflow slots
// fill and empty; removing the inline entry while overflow entries exist
// must promote one, and a removal of more instances than the model holds
// must fail with ErrUndefinedRemoval and change nothing. Reset returns
// every slot.
func TestRoleMultisetMatchesModel(t *testing.T) {
	const roles = 6
	aggregate := []bool{false, false, true, false, false, true, false}
	var promoted, undefined, wide int
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := New(xmlstream.NewSymTab(), roles, aggregate)
		nodes := []*Node{b.Root()}
		for i := 0; i < 7; i++ {
			nodes = append(nodes, b.AppendElement(nodes[r.Intn(len(nodes))], 0))
		}
		model := make(map[*Node]map[xqast.Role]int, len(nodes))
		for _, n := range nodes {
			model[n] = map[xqast.Role]int{}
		}
		for step := 0; step < 300; step++ {
			n := nodes[r.Intn(len(nodes))]
			role := xqast.Role(1 + r.Intn(roles))
			k := 1 + r.Intn(3)
			if r.Intn(2) == 0 {
				b.AddRole(n, role, k)
				model[n][role] += k
			} else {
				if k == model[n][role] && n.role.role == int32(role) && n.roles != 0 {
					promoted++
				}
				before := b.Stats()
				err := b.removeRole(n, role, k)
				if have := model[n][role]; have < k {
					var undef *ErrUndefinedRemoval
					if !errors.As(err, &undef) || undef.Role != role {
						t.Logf("seed %d step %d: removing %d of r%d with %d held: %v", seed, step, k, role, have, err)
						return false
					}
					if b.Stats() != before {
						t.Logf("seed %d step %d: an undefined removal changed the stats", seed, step)
						return false
					}
					undefined++
				} else if err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				} else if model[n][role] -= k; model[n][role] == 0 {
					delete(model[n], role)
				}
			}
			if msg := checkModel(b, nodes, model, aggregate); msg != "" {
				t.Logf("seed %d step %d: %s", seed, step, msg)
				return false
			}
			if msg := checkInvariants(b); msg != "" {
				t.Logf("seed %d step %d: %s", seed, step, msg)
				return false
			}
			for _, m := range model {
				if len(m) >= 3 {
					wide++
				}
			}
		}
		b.Reset()
		if b.roles.used != 1 || b.roles.free != 0 {
			t.Logf("seed %d: after Reset %d overflow blocks are carved, block %d is free", seed, b.roles.used-1, b.roles.free)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if promoted == 0 || undefined == 0 || wide == 0 {
		t.Fatalf("the random sequences missed a case: %d inline removals with overflow, %d undefined removals, %d nodes with >= 3 roles", promoted, undefined, wide)
	}
}

// checkModel compares every node's multiset and counters with the model.
func checkModel(b *Buffer, nodes []*Node, model map[*Node]map[xqast.Role]int, aggregate []bool) string {
	sub := make(map[*Node]int, len(nodes))
	entries := 0
	for _, n := range nodes {
		m := model[n]
		self, agg := 0, 0
		for r, k := range m {
			if got := b.RoleCount(n, r); got != k {
				return fmt.Sprintf("RoleCount(r%d) = %d, model %d", r, got, k)
			}
			self += k
			if aggregate[r] {
				agg += k
			}
		}
		if got, want := b.RolesString(n), modelRoles(m); got != want {
			return fmt.Sprintf("RolesString = %s, model %s", got, want)
		}
		if b.entries(n) != len(m) {
			return fmt.Sprintf("%d entries, model %d roles", b.entries(n), len(m))
		}
		if n.role.n == 0 && n.roles != 0 {
			return "an empty inline entry with an overflow slot"
		}
		if n.roles != 0 && b.roles.len(n.roles) == 0 {
			return "an empty overflow slot still held"
		}
		if int(n.selfTotal) != self || int(n.aggCount) != agg {
			return fmt.Sprintf("selfTotal %d aggCount %d, model %d and %d", n.selfTotal, n.aggCount, self, agg)
		}
		for a := n; a != nil; a = a.Parent {
			sub[a] += self
		}
		entries += len(m)
	}
	for _, n := range nodes {
		if int(n.subTotal) != sub[n] {
			return fmt.Sprintf("subTotal %d, model %d", n.subTotal, sub[n])
		}
	}
	if want := int64(len(nodes))*nodeBaseBytes + int64(entries)*roleEntryBytes; b.stats.LiveBytes != want {
		return fmt.Sprintf("LiveBytes %d, model %d", b.stats.LiveBytes, want)
	}
	return ""
}

// smallRun is a run that touches every part of the buffer: elements,
// text, several roles on one node, a schema fact, signOffs that purge.
func smallRun(t *testing.T, b *Buffer) {
	t.Helper()
	syms := b.Syms()
	doc := b.AppendElement(b.Root(), syms.Intern("doc"))
	b.AddRole(doc, 1, 1)
	b.MarkNoMore(doc, syms.Intern("z"))
	for i := 0; i < 20; i++ {
		item := b.AppendElement(doc, syms.Intern("item"))
		b.AddRole(item, 1, 1)
		b.AddRole(item, 2, 2)
		b.AppendText(item, strings.Repeat("t", i))
		b.Finish(item)
		if i%2 == 0 {
			for _, r := range []xqast.Role{1, 2, 2} {
				if err := b.SignOff(item, nil, nil, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// retained reports the block slabs a slot table keeps, counting the
// capacity of its slab index.
func retained[T any](s *slots[T]) int { return cap(s.slabs) }

// TestIdleBufferRetentionIsBounded: whatever the last run buffered, an
// idle buffer keeps at most maxRetainedSlabs node slabs and
// maxRetainedBlockSlabs slabs of blocks in each slot table (a block for
// each node those hold), and no node it keeps links
// into what it dropped; the next run is the run a fresh buffer makes.
func TestIdleBufferRetentionIsBounded(t *testing.T) {
	const nodes = 50_000
	b, syms := build(false, false)
	doc := el(b, syms, b.Root(), "doc")
	for i := 0; i < nodes; i++ {
		n := el(b, syms, doc, "item")
		b.AddRole(n, 1, 1)
		b.AddRole(n, 2, 1)
		b.MarkNoMore(n, syms.Intern("z"))
	}
	if got := len(b.arena.slabs); got <= maxRetainedSlabs {
		t.Fatalf("sanity: %d nodes carved only %d slabs", nodes, got)
	}
	if slabs := retained(&b.roles); slabs <= maxRetainedBlockSlabs {
		t.Fatalf("sanity: %d nodes took only %d slabs of overflow blocks", nodes, slabs)
	}

	b.Reset()
	if got := cap(b.arena.slabs); got > maxRetainedSlabs {
		t.Errorf("idle buffer keeps %d slabs, cap %d", got, maxRetainedSlabs)
	}
	if slabs := retained(&b.roles); slabs > maxRetainedBlockSlabs {
		t.Errorf("idle buffer keeps %d slabs of overflow blocks, cap %d", slabs, maxRetainedBlockSlabs)
	}
	if slabs := retained(&b.facts); slabs > maxRetainedBlockSlabs {
		t.Errorf("idle buffer keeps %d slabs of fact blocks, cap %d", slabs, maxRetainedBlockSlabs)
	}
	for _, slab := range b.arena.slabs {
		for i := range slab {
			if n := &slab[i]; n != b.root && (n.Parent != nil || n.FirstChild != nil || n.LastChild != nil || n.NextSib != nil || n.PrevSib != nil) {
				t.Fatal("an idle buffer's node still links to another")
			}
		}
	}

	fresh, _ := build(false, false)
	smallRun(t, b)
	smallRun(t, fresh)
	if b.Stats() != fresh.Stats() {
		t.Errorf("run after Reset: %+v, fresh buffer: %+v", b.Stats(), fresh.Stats())
	}
	if b.Dump() != fresh.Dump() {
		t.Errorf("run after Reset:\n%s\nfresh buffer:\n%s", b.Dump(), fresh.Dump())
	}
}
