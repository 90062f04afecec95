package gcx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

func soloOutput(t *testing.T, query, doc string) string {
	t.Helper()
	got, _, err := MustCompile(query).RunString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// bufSink collects every subscription's output into per-id buffers.
type bufSink struct {
	mu   sync.Mutex
	bufs map[string]*bytes.Buffer
}

func newBufSink() *bufSink { return &bufSink{bufs: map[string]*bytes.Buffer{}} }

func (s *bufSink) Writer(sub *Subscription) io.Writer {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &bytes.Buffer{}
	s.bufs[sub.ID()] = b
	return b
}

func (s *bufSink) get(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.bufs[id]; b != nil {
		return b.String()
	}
	return ""
}

// subscribeAll builds a registry with one subscription per text, its id
// the text's position, as cmd/gcx does for its -q flags.
func subscribeAll(t testing.TB, texts []string, opts ...Option) *Registry {
	t.Helper()
	reg, err := NewRegistry(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range texts {
		if _, err := reg.Subscribe(strconv.Itoa(i), text); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// runStrings runs reg over doc and returns each subscription's output, in
// IDs() order.
func runStrings(reg *Registry, doc string) ([]string, RegistryStats, error) {
	sink := newBufSink()
	st, err := reg.Run(strings.NewReader(doc), sink)
	var outs []string
	for _, id := range reg.IDs() {
		outs = append(outs, sink.get(id))
	}
	return outs, st, err
}

func TestRegistrySubscribeRunMatchesSolo(t *testing.T) {
	queries := map[string]string{
		"titles": `<titles>{ for $b in /bib/book return $b/title }</titles>`,
		"cheap":  `<cheap>{ for $b in /bib/book return if ($b/price < 50) then $b/title else () }</cheap>`,
		"all":    `<all>{ for $b in /bib/book return $b }</all>`,
		// Duplicate text under a second id: must join the first group.
		"titles2": `<titles>{ for $b in /bib/book return $b/title }</titles>`,
	}
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"titles", "cheap", "all", "titles2"} {
		if _, err := reg.Subscribe(id, queries[id]); err != nil {
			t.Fatalf("Subscribe(%s): %v", id, err)
		}
	}
	if reg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", reg.Len())
	}
	if reg.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3 (duplicate text must share a group)", reg.Groups())
	}
	sink := newBufSink()
	st, err := reg.Run(strings.NewReader(bibDoc), sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 3 || st.Subscriptions != 4 {
		t.Fatalf("stats groups/subs = %d/%d, want 3/4", st.Groups, st.Subscriptions)
	}
	if st.Aggregate.TokensRead == 0 {
		t.Fatal("aggregate stats not populated")
	}
	for id, q := range queries {
		want := soloOutput(t, q, bibDoc)
		if got := sink.get(id); got != want {
			t.Fatalf("%s: got %q, want solo output %q", id, got, want)
		}
		sub, ok := reg.Subscription(id)
		if !ok {
			t.Fatalf("Subscription(%s) missing", id)
		}
		ss := sub.Stats()
		if ss.Runs != 1 || ss.OutputBytes != int64(len(want)) || ss.LastErr != nil {
			t.Fatalf("%s stats = %+v, want 1 run / %d bytes / nil err", id, ss, len(want))
		}
	}
}

// TestRegistryPassIgnoresSubscriberCount: what a shared pass costs is set
// by the distinct texts, not by how many subscribers each has. 64 and
// 10,000 subscriptions over the same 64 texts read the same tokens, form
// the same groups, reach the same buffer peaks and execute the same
// signOffs group by group — every work count the pass reports, exactly;
// the only thing that grows is the fan-out, which is checked too.
func TestRegistryPassIgnoresSubscriberCount(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(128 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	texts := queries.Variants(64)
	// A real (discarding) writer per subscriber, so the fan-out loop runs.
	sink := SinkFunc(func(*Subscription) io.Writer { return io.Discard })
	run := func(subs int) (RegistryStats, int64) {
		reg := MustNewRegistry()
		for i := 0; i < subs; i++ {
			reg.MustSubscribe(fmt.Sprintf("sub-%d", i), texts[i%len(texts)])
		}
		st, err := reg.Run(bytes.NewReader(doc.Bytes()), sink)
		if err != nil {
			t.Fatalf("%d subscriptions: %v", subs, err)
		}
		var delivered int64
		for _, id := range reg.IDs() {
			sub, _ := reg.Subscription(id)
			delivered += sub.Stats().OutputBytes
		}
		// Wall-clock fields are the only ones allowed to differ.
		st.Aggregate.TimeToFirstResultNanos, st.Aggregate.EvalWallNanos = 0, 0
		for i := range st.Queries {
			st.Queries[i].TimeToFirstResultNanos, st.Queries[i].EvalWallNanos = 0, 0
		}
		return st, delivered
	}
	small, smallBytes := run(64)
	large, largeBytes := run(10000)

	if small.Groups != 64 || large.Groups != 64 || large.Subscriptions != 10000 {
		t.Fatalf("groups %d and %d (want 64 both), %d subscriptions served (want 10000)", small.Groups, large.Groups, large.Subscriptions)
	}
	if small.Aggregate != large.Aggregate {
		t.Errorf("aggregate stats differ:\n    64 subscriptions: %+v\n 10000 subscriptions: %+v", small.Aggregate, large.Aggregate)
	}
	if small.Aggregate.TokensRead == 0 || small.Aggregate.PeakBufferBytes == 0 {
		t.Fatalf("degenerate pass: %+v", small.Aggregate)
	}
	for i := range small.Queries {
		if small.Queries[i] != large.Queries[i] {
			t.Errorf("group %d differs:\n    64 subscriptions: %+v\n 10000 subscriptions: %+v", i, small.Queries[i], large.Queries[i])
		}
	}
	// Every subscriber gets its group's whole output.
	var want int64
	for i := 0; i < 10000; i++ {
		want += small.Queries[i%len(texts)].OutputBytes
	}
	if smallBytes != small.Aggregate.OutputBytes || largeBytes != want {
		t.Errorf("delivered %d bytes to 64 subscribers (want %d) and %d to 10000 (want %d)", smallBytes, small.Aggregate.OutputBytes, largeBytes, want)
	}
}

func TestRegistrySubscribeErrors(t *testing.T) {
	reg := MustNewRegistry()
	if _, err := reg.Subscribe("", `<q/>`); err == nil {
		t.Fatal("empty id must be rejected")
	}
	if _, err := reg.Subscribe("a", `<q>{ for $b in`); err == nil {
		t.Fatal("want compile error")
	} else {
		var qe *QueryError
		if !errors.As(err, &qe) || qe.ID != "a" {
			t.Fatalf("want *QueryError with ID \"a\", got %v", err)
		}
		if qe.Line == 0 {
			t.Fatalf("syntax error should carry a position: %+v", qe)
		}
	}
	if reg.Len() != 0 {
		t.Fatalf("failed Subscribe must not register: Len = %d", reg.Len())
	}
	reg.MustSubscribe("a", `<q/>`)
	if _, err := reg.Subscribe("a", `<r/>`); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if _, err := reg.Run(strings.NewReader(bibDoc), nil); err != nil {
		t.Fatalf("nil sink must discard, got %v", err)
	}
	empty := MustNewRegistry()
	if _, err := empty.Run(strings.NewReader(bibDoc), nil); err == nil {
		t.Fatal("empty registry Run must error")
	}
}

func TestRegistryUnsubscribe(t *testing.T) {
	reg := MustNewRegistry()
	q := `<titles>{ for $b in /bib/book return $b/title }</titles>`
	reg.MustSubscribe("a", q)
	reg.MustSubscribe("b", q)
	if reg.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1", reg.Groups())
	}
	if !reg.Unsubscribe("a") {
		t.Fatal("Unsubscribe(a) = false")
	}
	if reg.Unsubscribe("a") {
		t.Fatal("double Unsubscribe must report false")
	}
	// The group survives through b; the run serves only b.
	sink := newBufSink()
	if _, err := reg.Run(strings.NewReader(bibDoc), sink); err != nil {
		t.Fatal(err)
	}
	if sink.get("a") != "" {
		t.Fatal("unsubscribed id received output")
	}
	if want := soloOutput(t, q, bibDoc); sink.get("b") != want {
		t.Fatalf("survivor output %q, want %q", sink.get("b"), want)
	}
	if !reg.Unsubscribe("b") || reg.Len() != 0 || reg.Groups() != 0 {
		t.Fatalf("registry not empty after last unsubscribe: len %d groups %d", reg.Len(), reg.Groups())
	}
}

// TestRegistryChurnRacesRuns drives concurrent Subscribe/Unsubscribe
// against active Runs and verifies — under -race — that every run
// delivers byte-identical solo output to every subscription it served.
func TestRegistryChurnRacesRuns(t *testing.T) {
	queries := []string{
		`<titles>{ for $b in /bib/book return $b/title }</titles>`,
		`<authors>{ for $b in /bib/book return $b/author }</authors>`,
		`<all>{ for $b in /bib/book return $b }</all>`,
		`<cheap>{ for $b in /bib/book return if ($b/price < 50) then $b/title else () }</cheap>`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = soloOutput(t, q, bibDoc)
	}
	reg := MustNewRegistry()
	// A stable core that is never unsubscribed, so every run has work.
	reg.MustSubscribe("core", queries[0])

	const runners = 4
	const churners = 3
	const iters = 25
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sink := newBufSink()
				if _, err := reg.Run(strings.NewReader(bibDoc), sink); err != nil {
					t.Errorf("run: %v", err)
					return
				}
				// Every id that got output must match its solo run exactly;
				// the snapshot decides who was served, bytes decide it was
				// served correctly.
				sink.mu.Lock()
				for id, buf := range sink.bufs {
					got := buf.String()
					if got == "" {
						continue // unsubscribed mid-run: delivery stops, never corrupts
					}
					qi := 0
					if id != "core" {
						fmt.Sscanf(id, "churn-%d", &qi)
						qi = qi % len(queries)
					}
					if got != want[qi] {
						t.Errorf("%s: output diverged from solo run", id)
					}
				}
				sink.mu.Unlock()
			}
		}()
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("churn-%d", c*iters+i)
				sub, err := reg.Subscribe(id, queries[(c*iters+i)%len(queries)])
				if err != nil {
					t.Errorf("subscribe %s: %v", id, err)
					return
				}
				_ = sub
				if i%2 == 0 {
					reg.Unsubscribe(id)
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestRegistryFanoutIsolatesFailingSubscriber(t *testing.T) {
	reg := MustNewRegistry()
	q := `<titles>{ for $b in /bib/book return $b/title }</titles>`
	reg.MustSubscribe("good", q)
	reg.MustSubscribe("bad", q)
	want := soloOutput(t, q, bibDoc)

	var good bytes.Buffer
	boom := errors.New("boom")
	sink := SinkFunc(func(sub *Subscription) io.Writer {
		if sub.ID() == "bad" {
			return failWriter{err: boom}
		}
		return &good
	})
	if _, err := reg.Run(strings.NewReader(bibDoc), sink); err != nil {
		t.Fatalf("a failing subscriber must not fail the pass: %v", err)
	}
	if good.String() != want {
		t.Fatalf("sibling output corrupted: %q", good.String())
	}
	bad, _ := reg.Subscription("bad")
	if !errors.Is(bad.Stats().LastErr, boom) {
		t.Fatalf("bad.LastErr = %v, want boom", bad.Stats().LastErr)
	}
	goodSub, _ := reg.Subscription("good")
	if goodSub.Stats().LastErr != nil {
		t.Fatalf("good.LastErr = %v, want nil", goodSub.Stats().LastErr)
	}

	// The next run with a healthy sink clears the error.
	if _, err := reg.Run(strings.NewReader(bibDoc), nil); err != nil {
		t.Fatal(err)
	}
	if bad.Stats().LastErr != nil {
		t.Fatalf("LastErr not cleared on clean run: %v", bad.Stats().LastErr)
	}
}

// TestRegistryScratchPinsNoWriter: the fan-out wiring a run returns to its
// snapshot holds the subscriptions (the snapshot's own) and nothing of the
// run — no subscriber's writer, no broken flag for the next run to
// inherit — and the next run reuses it.
func TestRegistryScratchPinsNoWriter(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	reg := MustNewRegistry()
	q := `<titles>{ for $b in /bib/book return $b/title }</titles>`
	reg.MustSubscribe("good", q)
	reg.MustSubscribe("bad", q)
	reg.MustSubscribe("other", `<a>{ for $b in /bib/book return $b/author }</a>`)
	sink := SinkFunc(func(sub *Subscription) io.Writer {
		if sub.ID() == "bad" {
			return failWriter{err: errors.New("boom")}
		}
		return io.Discard
	})
	if _, err := reg.Run(strings.NewReader(bibDoc), sink); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := snap.scratch.Get().(*fanScratch)
	if sc == nil {
		t.Fatal("the run did not return its scratch to the snapshot")
	}
	if len(sc.outs) != 2 || len(sc.targets) != 3 {
		t.Fatalf("scratch has %d outs and %d targets, want 2 and 3", len(sc.outs), len(sc.targets))
	}
	for i, tg := range sc.targets {
		if tg.w != nil || tg.broken || tg.sub == nil {
			t.Errorf("idle target %d: writer %v, broken %v, sub %v", i, tg.w, tg.broken, tg.sub)
		}
	}
	snap.scratch.Put(sc)
	if _, err := reg.Run(strings.NewReader(bibDoc), sink); err != nil {
		t.Fatal(err)
	}
	if again, _ := snap.scratch.Get().(*fanScratch); again != sc {
		t.Fatal("the second run built new wiring instead of reusing the snapshot's")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write(p []byte) (int, error) { return 0, f.err }

// TestRegistryCompiledReuse: churn that only adds and removes subscribers
// of EXISTING texts must not invalidate the merged snapshot, and
// re-subscribing a removed text compiles only that text.
func TestRegistryCompiledReuse(t *testing.T) {
	reg := MustNewRegistry()
	qa := `<a>{ for $b in /bib/book return $b/title }</a>`
	qb := `<b>{ for $b in /bib/book return $b/author }</b>`
	reg.MustSubscribe("a1", qa)
	reg.MustSubscribe("b1", qb)
	if _, err := reg.Run(strings.NewReader(bibDoc), nil); err != nil {
		t.Fatal(err)
	}
	snap1, err := reg.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Fanout-only churn: same group set, snapshot must be reused.
	reg.MustSubscribe("a2", qa)
	reg.Unsubscribe("a2")
	snap2, err := reg.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap1.pass != snap2.pass {
		t.Fatal("fanout-only churn recompiled the merged workload")
	}
	// Group churn invalidates.
	reg.Unsubscribe("b1")
	snap3, err := reg.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap3.pass == snap2.pass {
		t.Fatal("group removal must rebuild the merged workload")
	}
}

func TestRegistryRunContextCancel(t *testing.T) {
	reg := MustNewRegistry()
	reg.MustSubscribe("a", `<a>{ for $b in /bib/book return $b/title }</a>`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := reg.RunContext(ctx, strings.NewReader(bibDoc), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled cause to remain matchable", err)
	}
}

// TestRegistryLateJoinIsServed: a Subscribe of an ALREADY-GROUPED text
// made after a snapshot exists must be served by the next Run. (The
// frozen fanout lists used to be refreshed on Unsubscribe only, so the
// late joiner received nothing until unrelated churn rebuilt them.)
func TestRegistryLateJoinIsServed(t *testing.T) {
	reg := MustNewRegistry()
	q := `<titles>{ for $b in /bib/book return $b/title }</titles>`
	reg.MustSubscribe("first", q)
	if _, err := reg.Run(strings.NewReader(bibDoc), nil); err != nil {
		t.Fatal(err)
	}
	late := reg.MustSubscribe("late", q)
	sink := newBufSink()
	st, err := reg.Run(strings.NewReader(bibDoc), sink)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloOutput(t, q, bibDoc); sink.get("late") != want {
		t.Fatalf("late joiner got %q, want %q", sink.get("late"), want)
	}
	if st.Groups != 1 || st.Subscriptions != 2 {
		t.Fatalf("stats groups/subs = %d/%d, want 1/2", st.Groups, st.Subscriptions)
	}
	if runs := late.Stats().Runs; runs != 1 {
		t.Fatalf("late.Runs = %d, want 1", runs)
	}
}

// TestRegistryStatsQueryIsPerRun: a run's per-text stats and errors come
// back in ITS return value, keyed by subscription — not read back from
// the shared Subscription counters another run may have overwritten.
func TestRegistryStatsQueryIsPerRun(t *testing.T) {
	reg := MustNewRegistry()
	qa := `<a>{ for $b in /bib/book return $b/title }</a>`
	a1 := reg.MustSubscribe("a1", qa)
	a2 := reg.MustSubscribe("a2", qa)
	b := reg.MustSubscribe("b", `<b>{ for $b in /bib/book return $b/author }</b>`)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	failed, err := reg.RunContext(ctx, strings.NewReader(bibDoc), nil)
	if err == nil {
		t.Fatal("canceled run must fail")
	}
	clean, err := reg.Run(strings.NewReader(bibDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	late := reg.MustSubscribe("late", qa)

	if len(clean.Queries) != 2 {
		t.Fatalf("Queries has %d entries, want one per distinct text (2)", len(clean.Queries))
	}
	for _, sub := range []*Subscription{a1, a2, b} {
		fq, ok := failed.Query(sub)
		if !ok || !errors.Is(fq.Err, ErrCanceled) {
			t.Fatalf("%s: failed run reports (%v, %t), want its own ErrCanceled", sub.ID(), fq.Err, ok)
		}
		cq, ok := clean.Query(sub)
		if !ok || cq.Err != nil || cq.OutputBytes == 0 || cq.TimeToFirstResultNanos == 0 {
			t.Fatalf("%s: clean run reports %+v (%t), want output, a TTFR and no error", sub.ID(), cq, ok)
		}
	}
	qa1, _ := clean.Query(a1)
	qa2, _ := clean.Query(a2)
	if qa1 != qa2 {
		t.Fatal("subscribers of one text must share one QueryStats")
	}
	if _, ok := clean.Query(late); ok {
		t.Fatal("a subscription made after the run must not be found in its stats")
	}
}
