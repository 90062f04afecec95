package engine

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/eval"
	"gcx/internal/xqast"
)

// The probe table (internal/eval, join.go) must be unobservable: with it
// and with every join loop rewritten to the nested loop (nestedLoops),
// every run gives the same bytes, the same deterministic stats (tokens,
// peaks, purges, signOffs), the same signOffs per member and, in a shared
// pass, the same scheduler handoffs.

// nestedLoops makes the members run every join loop as the nested loop:
// it clears For.Join throughout each member's query and sets Query.Joins
// to 0, so the evaluators built for the first run have no tables. Call it
// before that run. It keeps every other field, For.Slot among them, which
// is why it is not an xqast.Rewrite: that drops Slot and Join.
func nestedLoops(members ...*Compiled) {
	var unjoin func(xqast.Expr) xqast.Expr
	unjoin = func(e xqast.Expr) xqast.Expr {
		switch v := e.(type) {
		case xqast.Sequence:
			items := make([]xqast.Expr, len(v.Items))
			for i, item := range v.Items {
				items[i] = unjoin(item)
			}
			v.Items = items
			return v
		case xqast.Element:
			v.Child = unjoin(v.Child)
			return v
		case xqast.For:
			v.Join, v.Return = nil, unjoin(v.Return)
			return v
		case xqast.If:
			v.Then, v.Else = unjoin(v.Then), unjoin(v.Else)
			return v
		}
		return e
	}
	for _, m := range members {
		q := m.Analysis.Query
		q.Root.Child = unjoin(q.Root.Child)
		q.Joins = 0
	}
}

// probeVals are key and id values: one number spelled three ways, NaN,
// the empty text, -0 against 0, text that overflows, and plain text.
var probeVals = []string{"7", "7.0", " 7 ", "NaN", "", "a", "b", "-0", "0", "1e999", "Inf"}

// probeDoc: persons with 0–2 ids (and sometimes one more below <x>, for
// $p//id); items with 0–2 keys, some wrapped in <g> (only //t reaches
// them); a second relation for the nested join; and <w> regions whose
// own <ts> is a join's context. The regions come in random order, so a
// join's region is finished at its first execution or not.
func probeDoc(r *rand.Rand) string {
	val := func() string { return probeVals[r.Intn(len(probeVals))] }
	keys := func() string {
		var b strings.Builder
		for n := r.Intn(3); n > 0; n-- {
			b.WriteString("<k>" + val() + "</k>")
		}
		return b.String()
	}
	var ps, ts, us, ws strings.Builder
	ps.WriteString("<ps>")
	for n := 3 + r.Intn(4); n > 0; n-- {
		ps.WriteString("<p>")
		for m := r.Intn(3); m > 0; m-- {
			ps.WriteString("<id>" + val() + "</id>")
		}
		if r.Intn(3) == 0 {
			ps.WriteString("<x><id>" + val() + "</id></x>")
		}
		ps.WriteString("</p>")
	}
	ps.WriteString("</ps>")
	ts.WriteString("<ts>")
	for n := r.Intn(7); n > 0; n-- {
		if r.Intn(3) == 0 {
			ts.WriteString("<g><t>" + keys() + "</t></g>")
		} else {
			ts.WriteString("<t>" + keys() + "</t>")
		}
	}
	ts.WriteString("</ts>")
	us.WriteString("<us>")
	for n := r.Intn(4); n > 0; n-- {
		us.WriteString("<u><k>" + val() + "</k></u>")
	}
	us.WriteString("</us>")
	ws.WriteString("<ws>")
	for n := 1 + r.Intn(3); n > 0; n-- {
		ws.WriteString("<w>")
		if r.Intn(2) == 0 {
			ws.WriteString("<h>" + val() + "</h>")
		}
		ws.WriteString("<ts>")
		for m := r.Intn(4); m > 0; m-- {
			ws.WriteString("<t>" + keys() + "</t>")
		}
		ws.WriteString("</ts></w>")
	}
	ws.WriteString("</ws>")
	regions := []string{ps.String(), ts.String(), us.String(), ws.String()}
	r.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	return "<r>" + strings.Join(regions, "") + "</r>"
}

// probeQuery draws a join: the probe a path, a multi-valued path or a
// literal, written on either side; a child- or descendant-axis inner
// loop, or one over each <w>'s own region; and, as controls that keep
// the nested loop, !=, <, not(...), a collected operand written first, a
// then-branch that iterates (and so signs off) and one that holds a
// nested join.
func probeQuery(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	probe := pick(`$p/id`, `$p//id`, `"7"`, `"a"`)
	cond := pick(
		`$t/k = `+probe, `$t/k = `+probe, probe+` = $t/k`,
		`$t/k != `+probe, `$t/k < `+probe, `not($t/k = `+probe+`)`)
	then := pick(`<m/>`, `<m/>`, `$t`,
		`(for $k in $t/k return $k)`,
		`<m>{ for $u in /r/us/u return if ($u/k = $t/k) then <n/> else () }</m>`)
	inner := func(src string) string {
		return fmt.Sprintf(`for $t in %s return if (%s) then %s else ()`, src, cond, then)
	}
	switch r.Intn(3) {
	case 0:
		return `<o>{ for $p in /r/ps/p return <i>{ ` + inner(`/r/ts/t`) + ` }</i> }</o>`
	case 1:
		return `<o>{ for $p in /r/ps/p return <i>{ ` + inner(`/r/ts//t`) + ` }</i> }</o>`
	default:
		return `<o>{ for $w in /r/ws/w return ($w/h, for $p in /r/ps/p return <i>{ ` + inner(`$w/ts/t`) + ` }</i>) }</o>`
	}
}

// probeResult is everything one run lets the outside observe.
type probeResult struct {
	outs     []string
	stats    Stats // timing zeroed
	signOffs []int64
	// resumes and skips are the shared pass's scheduler handoffs.
	resumes, skips int64
	// progress is each evaluator's state after the run: its work counts
	// differ between the two ways by design, and show the table was used.
	progress []eval.Progress
}

func probeRun(t *testing.T, p *Pass, in io.Reader) probeResult {
	t.Helper()
	bufs := make([]*strings.Builder, p.Len())
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	st, rs := p.run(context.Background(), in, toIOWriters(bufs), nil)
	defer p.release(rs)
	st.TTFRNanos, st.WallNanos = 0, 0
	res := probeResult{stats: st}
	for i, task := range rs.tasks {
		if task.err != nil {
			t.Fatalf("member %d: %v", i, task.err)
		}
		res.outs = append(res.outs, bufs[i].String())
		res.signOffs = append(res.signOffs, task.ev.SignOffs())
		res.progress = append(res.progress, task.ev.Progress())
	}
	if rs.sched != nil {
		res.resumes, res.skips = rs.sched.resumes, rs.sched.skips
	}
	if p.Mode == ModeGCX {
		if err := rs.buf.CheckBalance(); err != nil {
			t.Fatal(err)
		}
		if err := rs.buf.CheckResidue(); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// probeRuns compiles srcs (each alone, and all as one pass reading one
// token per round) and runs doc through every form at every refill
// window. Under nested, every join loop is the nested loop.
func probeRuns(t *testing.T, srcs []string, doc string, cfg Config, nested bool) []probeResult {
	t.Helper()
	passes := make([]*Pass, 0, len(srcs)+1)
	for _, src := range srcs {
		passes = append(passes, compile(t, src, cfg).solo)
	}
	if len(srcs) > 1 {
		p, err := CompilePass(srcs, cfg, 1) // a member wakes after every token: the most handoffs to hold equal
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, p)
	}
	if nested {
		for _, p := range passes {
			nestedLoops(p.Members...)
		}
	}
	var out []probeResult
	for _, k := range []int{1, 7, 64, 0} {
		for _, p := range passes {
			var in io.Reader = strings.NewReader(doc)
			if k > 0 {
				in = &chunkReader{data: doc, k: k}
			}
			out = append(out, probeRun(t, p, in))
		}
	}
	return out
}

// checkProbeEquivalence runs srcs over doc both ways in every mode (under
// schema, if not nil) and reports how many member runs the table changed
// the work of.
func checkProbeEquivalence(t *testing.T, srcs []string, doc string, schema *dtd.Schema) (tabled int) {
	t.Helper()
	for _, mode := range []Mode{ModeGCX, ModeStaticOnly, ModeFullBuffer} {
		cfg := Config{Mode: mode, Schema: schema}
		nested := probeRuns(t, srcs, doc, cfg, true)
		table := probeRuns(t, srcs, doc, cfg, false)
		for i := range nested {
			n, tb := nested[i], table[i]
			for m := range n.outs {
				if n.outs[m] != tb.outs[m] {
					t.Fatalf("%s run %d member %d: output differs\nqueries: %q\ndoc: %s\nnested %s\ntable  %s",
						mode, i, m, srcs, doc, n.outs[m], tb.outs[m])
				}
				if n.signOffs[m] != tb.signOffs[m] {
					t.Fatalf("%s run %d member %d: %d signOffs nested, %d with the table", mode, i, m, n.signOffs[m], tb.signOffs[m])
				}
				if n.progress[m].Work != tb.progress[m].Work {
					tabled++
				}
			}
			if n.stats != tb.stats {
				t.Fatalf("%s run %d: stats differ\nqueries: %q\ndoc: %s\nnested %+v\ntable  %+v", mode, i, srcs, doc, n.stats, tb.stats)
			}
			if n.resumes != tb.resumes || n.skips != tb.skips {
				t.Fatalf("%s run %d: handoffs differ: nested %d resumes + %d skips, table %d + %d",
					mode, i, n.resumes, n.skips, tb.resumes, tb.skips)
			}
		}
	}
	return tabled
}

// TestProbeTableMatchesNestedLoop: random joins and controls, solo and as
// members of one pass, in every mode and at refill windows {1, 7, 64, ∞},
// on the poisoned text slab (a key that outlived its text would read
// 0xFF and miss).
func TestProbeTableMatchesNestedLoop(t *testing.T) {
	defer buffer.SetTextDebug(256)()
	n := 40
	if testing.Short() {
		n = 8
	}
	tabled := 0
	for seed := int64(0); seed < int64(n); seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := probeDoc(r)
		tabled += checkProbeEquivalence(t, []string{probeQuery(r), probeQuery(r), probeQuery(r)}, doc, nil)
	}
	if tabled == 0 {
		t.Fatal("no run answered a join from a probe table: the suite no longer exercises it")
	}
	t.Logf("%d member runs answered from a probe table", tabled)
}

// TestProbeTableRebuildsForRecycledRegion: the join's region is the
// outer loop's <ts>. Under a DTD no cursor reads past the <ts> it is in,
// so the first <ts> is reclaimed as the empty second one is bound (whose
// join never runs: it has no <q>), and the arena hands its slot to the
// third. Same shape, so the same child links and roles: only the stamp,
// carried forward by recycling, tells the table that the third region is
// not the one it was built over. A table taken for the old region would
// miss person 1's "d".
func TestProbeTableRebuildsForRecycledRegion(t *testing.T) {
	defer buffer.SetTextDebug(256)()
	schema, err := dtd.Parse(`
<!ELEMENT r (ps, ws)>
<!ELEMENT ps (p*)>
<!ELEMENT p (id)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT ws (ts*)>
<!ELEMENT ts (q?, t*)>
<!ELEMENT q (#PCDATA)>
<!ELEMENT t (k)>
<!ELEMENT k (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	src := `<o>{ for $x in /r/ws/ts return for $q in $x/q return for $p in /r/ps/p return <i>{
	    for $t in $x/t return if ($t/k = $p/id) then <m/> else () }</i> }</o>`
	doc := `<r><ps><p><id>a</id></p><p><id>d</id></p><p><id>b</id></p></ps><ws>` +
		`<ts><q></q><t><k>a</k></t><t><k>b</k></t></ts><ts></ts>` +
		`<ts><q></q><t><k>c</k></t><t><k>d</k></t></ts></ws></r>`
	want := `<o><i><m></m></i><i></i><i><m></m></i><i></i><i><m></m></i><i></i></o>`
	if got, _ := runQuery(t, src, doc, Config{Mode: ModeGCX, Schema: schema}); got != want {
		t.Fatalf("got %s\nwant %s", got, want)
	}
	if checkProbeEquivalence(t, []string{src}, doc, schema) == 0 {
		t.Fatal("the join was never answered from a probe table")
	}
}

// TestResolveMarksJoinLoops: which loops of the rewritten query Resolve
// hands to the probe table. If-pushdown (rule FOR) leaves no loop inside
// a then-branch, so a nested join ends up as a loop whose body tests the
// outer condition first, and keeps its nested loop.
func TestResolveMarksJoinLoops(t *testing.T) {
	outer := `<o>{ for $p in /r/ps/p return <i>{ for $t in %s return if (%s) then %s else () }</i> }</o>`
	for _, tc := range []struct {
		src, cond, then string
		joins           int
	}{
		{`/r/ts/t`, `$t/k = $p/id`, `<m/>`, 1},
		{`/r/ts//t`, `$t/k = $p//id`, `$t`, 1},
		{`/r/ts/t`, `$t/k = "7"`, `<m/>`, 1},
		{`/r/ts/t`, `"7" = $t/k`, `<m/>`, 1},
		{`/r/ts/t`, `$p/id = $t/k`, `<m/>`, 0}, // the outer operand would stream
		{`/r/ts/t`, `$t/k != $p/id`, `<m/>`, 0},
		{`/r/ts/t`, `$t/k < $p/id`, `<m/>`, 0},
		{`/r/ts/t`, `not($t/k = $p/id)`, `<m/>`, 0},
		{`/r/ts/t`, `$t/k = $p/id and $t/k = "7"`, `<m/>`, 0},
		{`/r/ts/t`, `$t/k = $p/id`, `(for $k in $t/k return $k)`, 0},
		{`/r/ts/t`, `$t/k = $p/id`, `<m>{ for $u in /r/us/u return if ($u/k = $t/k) then <n/> else () }</m>`, 0},
	} {
		src := fmt.Sprintf(outer, tc.src, tc.cond, tc.then)
		q := compile(t, src, Config{}).Analysis.Query
		marked := 0
		xqast.Walk(q.Root, func(e xqast.Expr) bool {
			if f, ok := e.(xqast.For); ok && f.Join != nil {
				marked++
			}
			return true
		})
		if marked != tc.joins || q.Joins != tc.joins {
			t.Errorf("%s: %d loops marked, Query.Joins %d, want %d", src, marked, q.Joins, tc.joins)
		}
	}
}
