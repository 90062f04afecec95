package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Randomized workload equivalence (the shared-stream analogue of the
// engine's TestTheorem1Equivalence): for random documents and random SETS
// of XQ queries, every member's output from one shared pass is
// byte-identical to its solo run, under all three buffering strategies,
// and the shared pass consumes exactly as many tokens as the most
// demanding solo run (with Batch=1, which reproduces the solo demand
// schedule token-exactly).

func TestWorkloadEquivalence(t *testing.T) {
	modes := []Mode{ModeGCX, ModeStaticOnly, ModeFullBuffer}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &queryGen{r: r}
		n := 2 + r.Intn(3)
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = g.query()
		}
		doc := randDoc(r)

		for _, mode := range modes {
			want := make([]string, n)
			var maxTokens int64
			for i, src := range srcs {
				c, err := Compile(src, Config{Mode: mode})
				if err != nil {
					t.Logf("seed %d: solo compile: %v\n%s", seed, err, src)
					return false
				}
				var out strings.Builder
				st, err := c.Run(strings.NewReader(doc), &out)
				if err != nil {
					t.Logf("seed %d %s: solo run: %v\n%s\ndoc: %s", seed, mode, err, src, doc)
					return false
				}
				want[i] = out.String()
				if st.TokensRead > maxTokens {
					maxTokens = st.TokensRead
				}
			}

			w, err := CompilePass(srcs, Config{Mode: mode}, 1)
			if err != nil {
				t.Logf("seed %d %s: workload compile: %v", seed, mode, err)
				return false
			}
			bufs := make([]*strings.Builder, n)
			for i := range bufs {
				bufs[i] = &strings.Builder{}
			}
			st, qs, err := w.RunChecked(strings.NewReader(doc), toIOWriters(bufs))
			if err != nil {
				t.Logf("seed %d %s: workload run: %v\nqueries:\n%s\ndoc: %s",
					seed, mode, err, strings.Join(srcs, "\n---\n"), doc)
				return false
			}
			for i := range bufs {
				if bufs[i].String() != want[i] {
					t.Logf("seed %d %s: query %d mismatch\nquery:\n%s\ndoc: %s\nshared: %s\nsolo:   %s",
						seed, mode, i, srcs[i], doc, bufs[i].String(), want[i])
					return false
				}
			}
			if st.TokensRead != maxTokens {
				t.Logf("seed %d %s: shared pass read %d tokens, max solo %d\nqueries:\n%s\ndoc: %s",
					seed, mode, st.TokensRead, maxTokens, strings.Join(srcs, "\n---\n"), doc)
				return false
			}
			if mode == ModeGCX {
				for i, q := range qs {
					if q.RoleAssignments != q.RoleRemovals {
						t.Logf("seed %d: query %d unbalanced: %d/%d", seed, i, q.RoleAssignments, q.RoleRemovals)
						return false
					}
				}
			}
		}
		return true
	}
	n := 120
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadEquivalenceBatched: with the default batch size the outputs
// are still byte-identical; only the token-demand schedule may overshoot
// (bounded by one batch past the most demanding solo run).
func TestWorkloadEquivalenceBatched(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &queryGen{r: r}
		n := 2 + r.Intn(3)
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = g.query()
		}
		doc := randDoc(r)

		want := make([]string, n)
		var maxTokens int64
		for i, src := range srcs {
			c, err := Compile(src, Config{Mode: ModeGCX})
			if err != nil {
				return false
			}
			var out strings.Builder
			st, err := c.Run(strings.NewReader(doc), &out)
			if err != nil {
				t.Logf("seed %d: solo run: %v\n%s\ndoc: %s", seed, err, src, doc)
				return false
			}
			want[i] = out.String()
			if st.TokensRead > maxTokens {
				maxTokens = st.TokensRead
			}
		}
		w, err := CompilePass(srcs, Config{Mode: ModeGCX}, 0)
		if err != nil {
			return false
		}
		bufs := make([]*strings.Builder, n)
		for i := range bufs {
			bufs[i] = &strings.Builder{}
		}
		st, _, err := w.RunChecked(strings.NewReader(doc), toIOWriters(bufs))
		if err != nil {
			t.Logf("seed %d: workload run: %v", seed, err)
			return false
		}
		for i := range bufs {
			if bufs[i].String() != want[i] {
				t.Logf("seed %d: query %d mismatch\nquery:\n%s\ndoc: %s\nshared: %s\nsolo:   %s",
					seed, i, srcs[i], doc, bufs[i].String(), want[i])
				return false
			}
		}
		if st.TokensRead < maxTokens || st.TokensRead > maxTokens+defaultBatch {
			t.Logf("seed %d: shared pass read %d tokens, solo max %d (batch %d)",
				seed, st.TokensRead, maxTokens, defaultBatch)
			return false
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}
