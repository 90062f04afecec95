package engine_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcx"
	"gcx/internal/engine"
)

// TestOneMemberFormsEqualSolo: a Registry of one subscription is the solo
// engine — same bytes, and Stats equal field for field (peak nodes/bytes,
// buffered/purged totals, signOffs, tokens read), its one QueryStats
// included, because a one-member pass has no scheduler to run it a batch
// ahead of its demand and no merge to change its projection tree. Over
// random queries and documents, under all three strategies.
func TestOneMemberFormsEqualSolo(t *testing.T) {
	strategies := []gcx.Strategy{gcx.GCX, gcx.StaticOnly, gcx.FullBuffer}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, doc := engine.RandQuery(r), engine.RandDoc(r)
		for _, s := range strategies {
			eng, err := gcx.Compile(src, gcx.WithStrategy(s))
			if err != nil {
				t.Logf("seed %d %v: compile: %v\n%s", seed, s, err, src)
				return false
			}
			want, soloStats, err := eng.RunString(doc)
			if err != nil {
				t.Logf("seed %d %v: solo run: %v\n%s\ndoc: %s", seed, s, err, src, doc)
				return false
			}

			reg := gcx.MustNewRegistry(gcx.WithStrategy(s))
			reg.MustSubscribe("only", src)
			var out strings.Builder
			rs, err := reg.Run(strings.NewReader(doc), gcx.SinkFunc(func(*gcx.Subscription) io.Writer { return &out }))
			if err != nil || out.String() != want || rs.Aggregate.Deterministic() != soloStats.Deterministic() {
				t.Logf("seed %d %v: one-subscription registry differs from solo (err %v)\nquery:\n%s\ndoc: %s\n got: %s\nwant: %s\n got: %+v\nwant: %+v",
					seed, s, err, src, doc, out.String(), want, rs.Aggregate, soloStats)
				return false
			}
			if q := rs.Queries[0]; q.SignOffs != soloStats.SignOffs || q.TokensAtDone != soloStats.TokensRead || q.OutputBytes != soloStats.OutputBytes {
				t.Logf("seed %d %v: member stats %+v disagree with the pass %+v", seed, s, q, soloStats)
				return false
			}
		}
		return true
	}
	n := 100
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}
