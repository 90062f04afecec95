package engine

import (
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// toIOWriters adapts a slice of builders to the Run signature.
func toIOWriters(bufs []*strings.Builder) []io.Writer {
	ws := make([]io.Writer, len(bufs))
	for i, b := range bufs {
		ws[i] = b
	}
	return ws
}

var testQueries = []string{
	`<r1>{ for $b in /bib/book return if (exists($b/price)) then $b/title else () }</r1>`,
	`<r2>{ for $b in /bib/book return $b/author }</r2>`,
	`<r3>{ for $p in /bib/book/price return <p>{ $p/text() }</p> }</r3>`,
}

const testDoc = `<bib>
<book><title>T1</title><author>A1</author><price>10</price></book>
<book><title>T2</title><author>A2</author></book>
<book><title>T3</title><author>A3</author><price>30</price></book>
</bib>`

// soloRun evaluates one query alone and returns output and stats.
func soloRun(t *testing.T, src, doc string, mode Mode) (string, Stats) {
	t.Helper()
	c, err := Compile(src, Config{Mode: mode})
	if err != nil {
		t.Fatalf("solo compile: %v", err)
	}
	var out strings.Builder
	st, err := c.Run(strings.NewReader(doc), &out)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return out.String(), st
}

func runWorkload(t *testing.T, srcs []string, doc string, mode Mode, batch int) ([]string, Stats, []QueryStats) {
	t.Helper()
	c, err := CompilePass(srcs, Config{Mode: mode}, batch)
	if err != nil {
		t.Fatalf("workload compile: %v", err)
	}
	bufs := make([]*strings.Builder, len(srcs))
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	st, qs, err := c.RunChecked(strings.NewReader(doc), toIOWriters(bufs))
	if err != nil {
		t.Fatalf("workload run: %v", err)
	}
	got := make([]string, len(srcs))
	for i := range bufs {
		got[i] = bufs[i].String()
	}
	return got, st, qs
}

func TestWorkloadMatchesSoloOutputs(t *testing.T) {
	for _, mode := range []Mode{ModeGCX, ModeStaticOnly, ModeFullBuffer} {
		t.Run(mode.String(), func(t *testing.T) {
			var want []string
			var maxTokens int64
			for _, q := range testQueries {
				out, st := soloRun(t, q, testDoc, mode)
				want = append(want, out)
				if st.TokensRead > maxTokens {
					maxTokens = st.TokensRead
				}
			}
			got, st, qs := runWorkload(t, testQueries, testDoc, mode, 1)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("query %d output mismatch:\n got: %s\nwant: %s", i, got[i], want[i])
				}
			}
			if st.TokensRead != maxTokens {
				t.Errorf("shared pass read %d tokens, max solo run read %d", st.TokensRead, maxTokens)
			}
			for i, q := range qs {
				if q.Err != nil {
					t.Errorf("query %d error: %v", i, q.Err)
				}
				if q.OutputBytes != int64(len(want[i])) {
					t.Errorf("query %d output bytes %d, want %d", i, q.OutputBytes, len(want[i]))
				}
				if mode == ModeGCX && q.RoleAssignments != q.RoleRemovals {
					t.Errorf("query %d roles unbalanced: %d assigned, %d removed", i, q.RoleAssignments, q.RoleRemovals)
				}
			}
		})
	}
}

// TestWorkloadPooledReruns: pooled run states must produce identical
// results run after run.
func TestWorkloadPooledReruns(t *testing.T) {
	c, err := CompilePass(testQueries, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for run := 0; run < 5; run++ {
		bufs := make([]*strings.Builder, len(testQueries))
		for i := range bufs {
			bufs[i] = &strings.Builder{}
		}
		_, _, err := c.RunChecked(strings.NewReader(testDoc), toIOWriters(bufs))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			for _, b := range bufs {
				first = append(first, b.String())
			}
			continue
		}
		for i, b := range bufs {
			if b.String() != first[i] {
				t.Fatalf("run %d query %d output changed:\n got: %s\nwant: %s", run, i, b.String(), first[i])
			}
		}
	}
}

// TestRunStateFollowsTheCaller: a run finds the state the previous run
// released even when the pool has nothing for it. sync.Pool keeps a Put
// in a slot private to the P it happened on, so that is what a caller sees
// whose goroutine was moved to another P between two runs (a benchmark
// client, about every other 20 s window); emptying the pool by hand shows
// this goroutine the same.
func TestRunStateFollowsTheCaller(t *testing.T) {
	// A collection may take an idle state; that is the next test's subject.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, err := CompilePass(testQueries, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.acquire()
	for run := 0; run < 10; run++ {
		p.release(rs)
		for p.pool.Get() != nil {
		}
		if got := p.acquire(); got != rs {
			t.Fatalf("run %d built a new run state while the last one (%p) was idle", run, rs)
		}
	}
}

// TestIdleRunStateIsCollectable: Pass.last is a weak pointer and the pool
// drops what sits unused through two collections, so an idle pass pins no
// run state, as with the pool alone; and however a state is reached — the
// pool, last, or a pool reference left behind by a claim through last —
// two runs never hold the same one.
func TestIdleRunStateIsCollectable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, err := CompilePass(testQueries, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.acquire(), p.acquire()
	if a == b {
		t.Fatal("two concurrent runs share a run state")
	}
	p.release(a)
	p.release(b)
	x, y := p.acquire(), p.acquire()
	if x == y || (x != a && x != b) {
		t.Fatalf("acquire after releasing %p and %p: got %p, %p", a, b, x, y)
	}
	p.release(y)
	// Claim x the way acquire does when the pool has nothing on this P,
	// leaving the pool's reference behind, and release it again: the pool
	// now holds it twice.
	p.release(x)
	if !x.idle.CompareAndSwap(true, false) {
		t.Fatal("a released state is not idle")
	}
	p.release(x)
	held := map[*runState]bool{}
	for i := 0; i < 4; i++ {
		rs := p.acquire()
		if held[rs] {
			t.Fatalf("acquire %d handed out %p, which a run still holds", i, rs)
		}
		held[rs] = true
	}
	for rs := range held {
		p.release(rs)
	}
	a, b, x, y, held = nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC() // the pool's victim cache lasts one cycle longer
	if rs := p.last.Load().Value(); rs != nil {
		t.Fatal("an idle run state survived two collections")
	}
	bufs := make([]*strings.Builder, len(testQueries))
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	if _, _, err := p.RunChecked(strings.NewReader(testDoc), toIOWriters(bufs)); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadStreamError: malformed input surfaces through every member
// that was still reading.
func TestWorkloadStreamError(t *testing.T) {
	c, err := CompilePass(testQueries, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]*strings.Builder, len(testQueries))
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	_, qs, err := c.Run(strings.NewReader("<bib><book><title>T</book></bib>"), toIOWriters(bufs))
	if err == nil {
		t.Fatal("expected a stream error")
	}
	for i, q := range qs {
		if q.Err == nil {
			t.Errorf("query %d: expected a per-query error", i)
		}
	}
}

// TestWorkloadTTFRAbsentWithoutOutput: TTFR is a measurement of the
// first result byte; a member (or pass) that never produced one reports
// 0 — "no first result" — not a zero-latency sample. A successful pass
// stamps every member and aggregates the earliest.
func TestWorkloadTTFRAbsentWithoutOutput(t *testing.T) {
	c, err := CompilePass(testQueries, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]*strings.Builder, len(testQueries))
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	// Garbage from byte one: no member emits anything, so no member has a
	// first result.
	st, qs, err := c.Run(strings.NewReader("<"), toIOWriters(bufs))
	if err == nil {
		t.Fatal("expected a stream error")
	}
	if st.TTFRNanos != 0 {
		t.Fatalf("pass with no output reports TTFR %d, want 0 (absent)", st.TTFRNanos)
	}
	for i, q := range qs {
		if q.TimeToFirstResultNanos != 0 {
			t.Errorf("query %d produced no output but reports TTFR %d", i, q.TimeToFirstResultNanos)
		}
	}

	// A clean pass: every member emits at least its wrapper, so every
	// member has a TTFR and the aggregate is the earliest of them.
	for i := range bufs {
		bufs[i] = &strings.Builder{}
	}
	st, qs, err = c.Run(strings.NewReader(testDoc), toIOWriters(bufs))
	if err != nil {
		t.Fatal(err)
	}
	earliest := int64(0)
	for i, q := range qs {
		if q.TimeToFirstResultNanos <= 0 {
			t.Errorf("query %d produced output but reports no TTFR", i)
		}
		if earliest == 0 || q.TimeToFirstResultNanos < earliest {
			earliest = q.TimeToFirstResultNanos
		}
	}
	if st.TTFRNanos != earliest {
		t.Fatalf("aggregate TTFR %d, want earliest member %d", st.TTFRNanos, earliest)
	}
}

func TestWorkloadSingleQueryDegenerate(t *testing.T) {
	want, _ := soloRun(t, testQueries[0], testDoc, ModeGCX)
	got, _, _ := runWorkload(t, testQueries[:1], testDoc, ModeGCX, 0)
	if got[0] != want {
		t.Errorf("single-member workload output mismatch:\n got: %s\nwant: %s", got[0], want)
	}
}
