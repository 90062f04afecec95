package gcx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

const bibDoc = `<bib>
  <book><title>Streams</title><author>S. One</author></book>
  <book><title>Buffers</title><price>30</price></book>
</bib>`

func TestQuickstart(t *testing.T) {
	eng := MustCompile(`<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then $b/title else ()
	}</out>`)
	got, st, err := eng.RunString(bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	if got != `<out><title>Buffers</title></out>` {
		t.Fatalf("got %s", got)
	}
	if st.PeakBufferNodes <= 0 || st.SignOffs == 0 || st.PurgedTotal == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestStrategiesAgree(t *testing.T) {
	query := `<out>{ for $b in /bib/book return <t>{ $b/title }</t> }</out>`
	var outs []string
	for _, s := range []Strategy{GCX, StaticOnly, FullBuffer} {
		eng := MustCompile(query, WithStrategy(s))
		got, _, err := eng.RunString(bibDoc)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		outs = append(outs, got)
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("strategies disagree: %v", outs)
	}
}

func TestAblationOptions(t *testing.T) {
	query := `<out>{ for $b in /bib/book return $b }</out>`
	for _, opt := range [][]Option{
		{WithoutEarlyUpdates()},
		{WithoutAggregateRoles()},
		{WithoutRedundantRoleElimination()},
		{WithoutOptimizations()},
	} {
		eng := MustCompile(query, opt...)
		got, _, err := eng.RunString(bibDoc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got, "<title>Streams</title>") {
			t.Fatalf("got %s", got)
		}
	}
}

func TestExplain(t *testing.T) {
	eng := MustCompile(`<out>{ for $b in /bib/book return $b/title }</out>`)
	ex := eng.Explain()
	for _, want := range []string{"projection tree", "signOff", "variable tree"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q", want)
		}
	}
}

func TestTrace(t *testing.T) {
	eng := MustCompile(`<out>{ for $b in /bib/book return $b/title }</out>`,
		WithoutOptimizations())
	var out strings.Builder
	trace, err := eng.Trace(context.Background(), strings.NewReader(bibDoc), &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) == 0 {
		t.Fatal("no trace steps recorded")
	}
	var sawSignoff bool
	for _, s := range trace.Steps {
		if strings.HasPrefix(s.Event, "signOff(") {
			sawSignoff = true
		}
	}
	if !sawSignoff {
		t.Fatal("trace must include signOff events")
	}
}

// TestTraceLog covers the one traced call's contract: limit ≤ 0 records
// every step, a positive limit keeps that many and marks the log
// truncated without touching the result, a canceled context matches
// ErrCanceled, and the log renders and marshals in the sidecar's shape.
func TestTraceLog(t *testing.T) {
	eng := MustCompile(`<out>{ for $b in /bib/book return $b/title }</out>`)
	trace := func(ctx context.Context, limit int) (string, TraceLog, error) {
		var out strings.Builder
		tl, err := eng.Trace(ctx, strings.NewReader(bibDoc), &out, limit)
		return out.String(), tl, err
	}
	want, _, _ := eng.RunString(bibDoc)

	out, full, err := trace(context.Background(), 0)
	if err != nil || out != want || full.Truncated || full.Stats.TokensRead == 0 {
		t.Fatalf("unbounded: %v, output %q, truncated %v, stats %+v", err, out, full.Truncated, full.Stats)
	}
	if _, neg, _ := trace(context.Background(), -1); len(neg.Steps) != len(full.Steps) || neg.Truncated {
		t.Fatalf("limit -1 recorded %d of %d steps (truncated %v)", len(neg.Steps), len(full.Steps), neg.Truncated)
	}
	out, short, err := trace(context.Background(), 3)
	if err != nil || out != want || !short.Truncated || !slices.Equal(short.Steps, full.Steps[:3]) {
		t.Fatalf("limit 3: %v, output %q, truncated %v, %d steps", err, out, short.Truncated, len(short.Steps))
	}
	if s := short.String(); !strings.HasPrefix(s, "step 1: read <bib>\n  | bib") || strings.Count(s, "step ") != 3 {
		t.Fatalf("String:\n%s", s)
	}
	b, err := json.Marshal(short)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"steps":[{"event":`) || !strings.Contains(string(b), `],"truncated":true,"stats":{"peak_buffer_nodes":`) {
		t.Fatalf("JSON %s", b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := trace(ctx, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled trace: err = %v, want ErrCanceled", err)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile(`<out>{ $undefined }</out>`); err == nil {
		t.Fatal("want compile error")
	}
	if _, err := Compile(`not a query`); err == nil {
		t.Fatal("want parse error")
	}
}

func TestRepeatedRuns(t *testing.T) {
	eng := MustCompile(`<out>{ for $b in /bib/book return $b/title }</out>`)
	a, _, err := eng.RunString(bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := eng.RunString(bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("compiled engines must be reusable")
	}
}

func TestWorkloadPublicAPI(t *testing.T) {
	queries := []string{
		`<titles>{ for $b in /bib/book return $b/title }</titles>`,
		`<cheap>{ for $b in /bib/book return if ($b/price < 50) then $b/title else () }</cheap>`,
		`<all>{ for $b in /bib/book return $b }</all>`,
	}
	reg := subscribeAll(t, queries)
	if reg.Len() != len(queries) {
		t.Fatalf("Len = %d, want %d", reg.Len(), len(queries))
	}
	results, st, err := runStrings(reg, bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		solo, _, err := MustCompile(q).RunString(bibDoc)
		if err != nil {
			t.Fatalf("query %d solo: %v", i, err)
		}
		if results[i] != solo {
			t.Errorf("query %d: workload output %q differs from solo %q", i, results[i], solo)
		}
	}
	// The shared pass reads the input once: the aggregate token count must
	// be the document's, not one per member query. The scheduler feeds
	// 64-token batches, so on this short document the pass reads every
	// token and the EOF token after them (a solo run stops at </bib>).
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(bibDoc), xmlstream.DefaultOptions())
	docTokens := int64(1) // EOF
	for tk, err := tok.Next(); tk.Kind != xmlstream.EOF; tk, err = tok.Next() {
		if err != nil {
			t.Fatal(err)
		}
		docTokens++
	}
	if st.Aggregate.TokensRead != docTokens {
		t.Errorf("workload read %d tokens, the document has %d", st.Aggregate.TokensRead, docTokens)
	}
	if len(st.Queries) != len(queries) {
		t.Fatalf("per-query stats: got %d entries", len(st.Queries))
	}
	var sum int64
	for i, q := range st.Queries {
		if q.Err != nil {
			t.Errorf("query %d: %v", i, q.Err)
		}
		if q.RoleAssignments != q.RoleRemovals {
			t.Errorf("query %d roles unbalanced: %d/%d", i, q.RoleAssignments, q.RoleRemovals)
		}
		if q.OutputBytes != int64(len(results[i])) {
			t.Errorf("query %d OutputBytes = %d, want %d", i, q.OutputBytes, len(results[i]))
		}
		sum += q.OutputBytes
	}
	if st.Aggregate.OutputBytes != sum {
		t.Errorf("aggregate OutputBytes %d != per-query sum %d", st.Aggregate.OutputBytes, sum)
	}
}

func TestWorkloadStrategiesAgree(t *testing.T) {
	queries := []string{
		`<t>{ for $b in /bib/book return $b/title }</t>`,
		`<p>{ for $b in /bib/book return if (exists($b/price)) then $b/price else () }</p>`,
	}
	var want []string
	for _, s := range []Strategy{GCX, StaticOnly, FullBuffer} {
		got, _, err := runStrings(subscribeAll(t, queries, WithStrategy(s)), bibDoc)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v query %d: %q != %q", s, i, got[i], want[i])
			}
		}
	}
}

func TestWorkloadConcurrentRuns(t *testing.T) {
	reg := subscribeAll(t, []string{
		`<t>{ for $b in /bib/book return $b/title }</t>`,
		`<a>{ for $b in /bib/book return $b/author }</a>`,
	})
	want, _, err := runStrings(reg, bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				got, _, err := runStrings(reg, bibDoc)
				if err != nil {
					done <- err
					return
				}
				for j := range got {
					if got[j] != want[j] {
						done <- fmt.Errorf("query %d: got %q want %q", j, got[j], want[j])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
