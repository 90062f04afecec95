package eval_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/engine"
	"gcx/internal/eval"
	"gcx/internal/proj"
	"gcx/internal/projtree"
	"gcx/internal/queries"
	"gcx/internal/static"
	"gcx/internal/xmark"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// The release checker: Explain names, for every role, the variable whose
// loop body signs it off — the first straight ancestor of the variable
// the role was made for (Section 4, Figure 8). A signOff batch placed one
// loop too far out still balances every role, leaves no residue, keeps
// the peaks ordered and changes no output byte; it only holds a region
// where it should hold a binding. What catches it is the invariant of
// Figure 8: when the body of $x's loop ends for a binding b, no node
// below b (or b itself) still holds a role that $x's signOffs own.
//
// The checker reads $x's binding (export_test.go's Binding) after every
// token the projector reads and every signOff an evaluator executes. Once
// the binding it last saw is gone, that binding's body has ended, and its
// subtree must be free of $x's roles. A binding already reclaimed passes:
// nothing below it held a role. Ownership comes from the analysis (the
// roles' variables and their first straight ancestors), not from where
// the rewritten query placed the signOffs, which is what is checked.

// loopVar is one straight variable's share of the check.
type loopVar struct {
	name  string
	slot  int
	owned map[xqast.Role]bool // in the buffer's role space
	// cur is the binding seen last, with the slot's epoch then, and the
	// node's stamp and whether it was finished: a finished node's stamp
	// moves only when the arena hands its slot out again.
	cur      *buffer.Node
	epoch    uint64
	stamp    uint32
	finished bool
}

type releaseChecker struct {
	buf        *buffer.Buffer
	ev         *eval.Evaluator
	loops      []*loopVar
	checked    int // bindings whose subtree was walked
	violations []string
}

func newReleaseChecker(c *engine.Compiled, off xqast.Role, buf *buffer.Buffer, ev *eval.Evaluator) *releaseChecker {
	a := c.Analysis
	slots := map[string]int{}
	xqast.Walk(a.Query.Root.Child, func(x xqast.Expr) bool {
		if f, ok := x.(xqast.For); ok {
			slots[f.Var] = f.Slot
		}
		return true
	})
	ck := &releaseChecker{buf: buf, ev: ev}
	byVar := map[string]*loopVar{}
	for _, r := range a.Tree.Roles[1:] {
		owner := a.Vars[r.Var].FSA
		if r.Eliminated || owner == xqast.RootVar {
			continue
		}
		l := byVar[owner]
		if l == nil {
			l = &loopVar{name: owner, slot: slots[owner], owned: map[xqast.Role]bool{}}
			byVar[owner] = l
			ck.loops = append(ck.loops, l)
		}
		l.owned[r.ID+off] = true
	}
	return ck
}

// observe checks the bindings whose bodies ended since the last call.
func (ck *releaseChecker) observe() {
	for _, l := range ck.loops {
		b, epoch := ck.ev.Binding(l.slot)
		if l.cur != nil && (b != l.cur || epoch != l.epoch) {
			ck.check(l)
			l.cur = nil
		}
		if b != nil {
			l.cur, l.epoch, l.stamp, l.finished = b, epoch, b.Stamp(), b.Finished()
		}
	}
}

func (ck *releaseChecker) check(l *loopVar) {
	b := l.cur
	if b.Unlinked() || (l.finished && b.Stamp() != l.stamp) {
		return
	}
	ck.checked++
	var walk func(n *buffer.Node)
	walk = func(n *buffer.Node) {
		for _, r := range roleIDs(ck.buf.RolesString(n)) {
			if l.owned[r] && len(ck.violations) < 5 {
				ck.violations = append(ck.violations, fmt.Sprintf("$%s's body ended with r%d still on a node below its binding:\n%s", l.name, r, ck.buf.Dump()))
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSib {
			walk(c)
		}
	}
	walk(b)
}

// roleIDs parses RolesString's "{r2,r3,r3}".
func roleIDs(s string) []xqast.Role {
	var ids []xqast.Role
	for _, f := range strings.Split(strings.Trim(s, "{}"), ",") {
		if id, err := strconv.Atoi(strings.TrimPrefix(f, "r")); err == nil {
			ids = append(ids, xqast.Role(id))
		}
	}
	return ids
}

// checkRelease runs members as one pass over doc — the pass's chain, fed
// 64 tokens a round, or one Step for a lone member — with a checker on
// every evaluator, and returns the bindings checked and the violations.
func checkRelease(t *testing.T, members []*engine.Compiled, doc []byte) (int, []string) {
	t.Helper()
	trees := make([]*projtree.Tree, len(members))
	qs := make([]*xqast.Query, len(members))
	for i, m := range members {
		trees[i], qs[i] = m.MatchTree, m.Analysis.Query
	}
	tree, offsets := trees[0], []xqast.Role{0}
	if len(members) > 1 {
		tree, offsets = static.MergeTrees(trees)
	}
	agg := make([]bool, len(tree.Roles))
	for i, r := range tree.Roles {
		agg[i] = i > 0 && r.Aggregate
	}
	buf := buffer.New(xmlstream.NewSymTab(), len(tree.Roles)-1, agg)
	tok := xmlstream.NewTokenizerOptions(nil, xmlstream.DefaultOptions())
	pr := proj.New(tok, buf, tree, proj.Options{AggregateRoles: members[0].Analysis.Opts.AggregateRoles})
	buf.Reset()
	tok.Reset(bytes.NewReader(doc))
	pr.Reset()
	evs := eval.NewEvaluators(buf, xmlstream.NewWriters(len(members), 4096), qs)
	cks := make([]*releaseChecker, len(members))
	live := make([]int, len(members))
	for i := range evs {
		ck := newReleaseChecker(members[i], offsets[i], buf, &evs[i])
		cks[i], live[i] = ck, i
		evs[i].Reset(eval.Options{ExecuteSignOffs: true, RoleOffset: offsets[i],
			OnSignOff: func(xqast.SignOff) { ck.observe() }})
		evs[i].Start(qs[i])
	}
	pr.Observe(func(xmlstream.Token) {
		for _, ck := range cks {
			ck.observe()
		}
	})
	var fed error
	for len(live) > 0 {
		next := live[:0]
		for _, i := range live {
			done, err := evs[i].Resume(fed)
			if err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
			if !done {
				next = append(next, i)
			}
		}
		if live = next; len(live) == 1 && len(members) == 1 {
			_, fed = pr.Step()
		} else if len(live) > 0 {
			_, _, fed = pr.StepN(64)
		}
	}
	checked, violations := 0, []string(nil)
	for _, ck := range cks {
		ck.observe()
		checked += ck.checked
		violations = append(violations, ck.violations...)
	}
	if err := buf.CheckBalance(); err != nil {
		t.Fatal(err)
	}
	return checked, violations
}

// TestRolesReleasedAtTheirLoop holds the release invariant on the
// catalog at three XMark sizes under every combination of the Section 6
// options, and on queries.Variants(64) as one pass.
func TestRolesReleasedAtTheirLoop(t *testing.T) {
	var optsets []static.Options
	for mask := range 8 {
		optsets = append(optsets, static.Options{EarlyUpdates: mask&1 != 0, AggregateRoles: mask&2 != 0, EliminateRedundantRoles: mask&4 != 0})
	}
	checked := 0
	fail := func(what string, violations []string) {
		if len(violations) > 0 {
			t.Fatalf("%s: %d violations, the first:\n%s", what, len(violations), violations[0])
		}
	}
	for _, size := range []int64{16 << 10, 64 << 10, 256 << 10} {
		var doc bytes.Buffer
		if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(size), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries.AllIncludingExtended() {
			for i := range optsets {
				c, err := engine.Compile(q.Text, engine.Config{Static: &optsets[i]})
				if err != nil {
					t.Fatal(err)
				}
				n, violations := checkRelease(t, []*engine.Compiled{c}, doc.Bytes())
				fail(fmt.Sprintf("%s over %d KB, options %+v", q.Name, size>>10, optsets[i]), violations)
				checked += n
			}
		}
	}
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(128 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var members []*engine.Compiled
	for _, src := range queries.Variants(64) {
		c, err := engine.Compile(src, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, c)
	}
	n, violations := checkRelease(t, members, doc.Bytes())
	fail("queries.Variants(64) as one pass", violations)
	t.Logf("%d bindings checked solo, %d in the pass", checked, n)
	if checked == 0 || n == 0 {
		t.Fatal("no binding was checked: the checker sees no loop")
	}
}
