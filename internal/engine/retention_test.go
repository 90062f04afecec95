package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gcx/internal/static"
	"gcx/internal/xmark"
)

// retentionRow is one input that makes a run state grow: docs run one
// after another on the same Pass, then normal does, on that Pass and on
// a fresh Compiled of the same query.
type retentionRow struct {
	name   string
	query  string
	cfg    Config
	docs   func() []string
	normal string
}

// chain is a document nested depth <a> elements deep.
func chain(depth int) string {
	return "<site>" + strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth) + "</site>"
}

// loopNest is a query of depth for-loops, each over the <a> children
// of the one around it: at the chain's bottom every loop holds a cursor
// open.
func loopNest(depth int) string {
	var b strings.Builder
	b.WriteString("<r>{ for $a1 in /site/a return ")
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&b, "for $a%d in $a%d/a return ", i, i-1)
	}
	b.WriteString("<hit/> }</r>")
	return b.String()
}

// names is a document of n empty elements under <r>, each with a name of
// its own; run tells apart the vocabularies of different documents.
func names(run, n int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<t%d-%d/>", run, i)
	}
	b.WriteString("</r>")
	return b.String()
}

// retentionRows are the inputs that grow each pooled component: the
// buffer's node and block slabs, text chunks and signOff resolution
// scratch; the tokenizer's scratch, queue, stack and symbol table; the
// projector's frames; the writer's element stack; the evaluator's cursor
// chunks, operand scratch and probe table.
func retentionRows() []retentionRow {
	gcx := Config{Mode: ModeGCX}
	full := Config{Mode: ModeFullBuffer}
	noAgg := static.AllOptimizations()
	noAgg.AggregateRoles = false
	return []retentionRow{
		{
			// Every item is buffered with the roles of both loops until the
			// second loop runs: a node slab and an overflow block apiece.
			name:  "50,000 items, two roles each",
			query: `<o>{ (for $i in /doc/item return <a/>, for $i in /doc/item return <b/>) }</o>`,
			cfg:   gcx,
			docs: func() []string {
				return []string{"<doc>" + strings.Repeat("<item/>", 50_000) + "</doc>"}
			},
			normal: "<doc><item/><item/></doc>",
		},
		{
			name:  "512 KB of short texts and an oversized one, fully buffered",
			query: `<o>{ for $x in /doc return $x }</o>`,
			cfg:   full,
			docs: func() []string {
				line := "<t>" + strings.Repeat("x", 1<<10) + "</t>"
				return []string{"<doc>" + strings.Repeat(line, 512) + "<t>" + strings.Repeat("y", 64<<10) + "</t></doc>"}
			},
			normal: "<doc><t>a</t><t>b</t></doc>",
		},
		{
			name:   "2,500-deep chain, every level matched",
			query:  `<r>{ for $a in //a return <hit/> }</r>`,
			cfg:    gcx,
			docs:   func() []string { return []string{chain(2_500)} },
			normal: chain(3),
		},
		{
			name:   "1,100-deep chain, a scope extension per level",
			query:  `<r>{ for $a in //a return if (exists($a//b)) then <hit/> else () }</r>`,
			cfg:    gcx,
			docs:   func() []string { return []string{chain(1_100)} },
			normal: "<site><a><a><b/></a></a></site>",
		},
		{
			name:   "100 nested loops, a cursor open at each",
			query:  loopNest(100),
			cfg:    gcx,
			docs:   func() []string { return []string{chain(100)} },
			normal: chain(2),
		},
		{
			name:   "probe table over 17,000 auctions",
			query:  joinQuery,
			cfg:    gcx,
			docs:   func() []string { return []string{joinDoc(3, 17_000)} },
			normal: joinDoc(5, 40),
		},
		{
			name:   "256-value operands",
			query:  joinQuery,
			cfg:    gcx,
			docs:   func() []string { return []string{wideJoinDoc(3, 256)} },
			normal: joinDoc(5, 40),
		},
		{
			name:  "three documents of 4,096 names of their own",
			query: `<o>{ for $x in /r/* return <j/> }</o>`,
			cfg:   gcx,
			docs: func() []string {
				return []string{names(0, 4096), names(1, 4096), names(2, 4096)}
			},
			normal: "<r><a/><b/></r>",
		},
		{
			name:   "4,097 names of their own, fully buffered",
			query:  `<o>{ for $x in /r return $x }</o>`,
			cfg:    full,
			docs:   func() []string { return []string{floodDoc(hoistCases()[0].doc, 4097)} },
			normal: hoistCases()[0].doc,
		},
		{
			name:  "long attribute value and text run",
			query: `<o>{ for $x in /r return $x }</o>`,
			cfg:   gcx,
			docs: func() []string {
				return []string{`<r a="` + strings.Repeat("v", 64<<10+1) + `">` + strings.Repeat("x", 128<<10) + `</r>`}
			},
			normal: `<r a="1">x</r>`,
		},
		{
			name:  "20,000 attributes",
			query: `<o>{ for $x in /r/a7 return $x }</o>`,
			cfg:   gcx,
			docs: func() []string {
				var b strings.Builder
				b.WriteString("<r")
				for i := range 20_000 {
					fmt.Fprintf(&b, ` a%d="v%d"`, i, i)
				}
				b.WriteString("/>")
				return []string{b.String()}
			},
			normal: `<r a7="x" b="y"/>`,
		},
		{
			name:   "5,000-deep document, nothing matched",
			query:  `<o>{ for $x in /a/b return $x }</o>`,
			cfg:    gcx,
			docs:   func() []string { return []string{strings.Repeat("<a>", 5_000) + strings.Repeat("</a>", 5_000)} },
			normal: "<a><b>1</b><c/></a>",
		},
		{
			name:   "2,500-deep copy",
			query:  `<o>{ for $x in /site return $x }</o>`,
			cfg:    gcx,
			docs:   func() []string { return []string{chain(2_500)} },
			normal: chain(3),
		},
		{
			name:  "regions copy without aggregate roles",
			query: `<r>{ for $s in /site/regions return $s }</r>`,
			cfg:   Config{Mode: ModeGCX, Static: &noAgg},
			docs: func() []string {
				var doc bytes.Buffer
				if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(1 << 20), Seed: 1}); err != nil {
					panic(err)
				}
				return []string{doc.String()}
			},
			normal: "<site><regions><africa><item>1</item></africa></regions></site>",
		},
	}
}

// joinQuery is a join loop: once the auctions are finished, the third
// person builds a probe table over them.
const joinQuery = `<out>{
  for $p in /site/people/person return
    <item>{
      ($p/name,
       for $t in /site/closed_auctions/closed_auction return
         if ($t/buyer = $p/id) then <bought/> else ())
    }</item>
}</out>`

// joinDoc has p persons and t auctions; auction j was bought by person
// j mod p.
func joinDoc(p, t int) string {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < p; i++ {
		fmt.Fprintf(&b, "<person><id>person%d</id><name>n%d</name></person>", i, i)
	}
	b.WriteString("</people><closed_auctions>")
	for j := 0; j < t; j++ {
		fmt.Fprintf(&b, "<closed_auction><buyer>person%d</buyer></closed_auction>", j%p)
	}
	b.WriteString("</closed_auctions></site>")
	return b.String()
}

// wideJoinDoc is joinDoc's shape with n ids per person and n buyers per
// auction, so the probe value and an auction's keys hold n values each.
func wideJoinDoc(persons, n int) string {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < persons; i++ {
		b.WriteString("<person>")
		for k := 0; k < n; k++ {
			fmt.Fprintf(&b, "<id>person%d-%d</id>", i, k)
		}
		fmt.Fprintf(&b, "<name>n%d</name></person>", i)
	}
	b.WriteString("</people><closed_auctions>")
	for j := 0; j < persons; j++ {
		b.WriteString("<closed_auction>")
		for k := n - 1; k >= 0; k-- {
			fmt.Fprintf(&b, "<buyer>person%d-%d</buyer>", j, k)
		}
		fmt.Fprintf(&b, "<price>%d</price></closed_auction>", j)
	}
	b.WriteString("</closed_auctions></site>")
	return b.String()
}

// deterministic is st without its timings.
func deterministic(st Stats) Stats {
	st.TTFRNanos, st.WallNanos = 0, 0
	return st
}

// keptHeap is the heap an idle run state keeps: HeapAlloc with rs
// reachable, minus HeapAlloc once it is dropped, each after collections
// that also empty every sync.Pool.
func keptHeap(rs *runState) int64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(rs)
	rs = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	return int64(with.HeapAlloc) - int64(without.HeapAlloc)
}

// TestIdleRetentionBudget: maxIdleBytes is the one retention rule of a
// pooled run state, and the components report what it counts. For every
// input that grows a component —
//
//	(a) no state the pool hands out afterwards reports more than the
//	    budget;
//	(b) a normal document run next on the same Pass gives the bytes and
//	    the deterministic stats of a fresh Compiled's run;
//	(c) where the state keeps more than 1 MB, what it reports is within
//	    0.75–1.25 of the heap it actually keeps once scrubbed.
//
// Then every row runs again from 8 goroutines on one Pass.
func TestIdleRetentionBudget(t *testing.T) {
	for _, row := range retentionRows() {
		t.Run(row.name, func(t *testing.T) {
			fresh := compile(t, row.query, row.cfg)
			var want strings.Builder
			wantSt, err := fresh.Run(strings.NewReader(row.normal), &want)
			if err != nil {
				t.Fatal(err)
			}
			docs := row.docs()
			c := compile(t, row.query, row.cfg)
			wants := make([]string, len(docs))
			for i, doc := range docs {
				var out strings.Builder
				if _, err := c.Run(strings.NewReader(doc), &out); err != nil {
					t.Fatalf("document %d: %v", i, err)
				}
				wants[i] = out.String()
			}
			checkNormal := func() {
				var got strings.Builder
				st, err := c.Run(strings.NewReader(row.normal), &got)
				if err != nil {
					t.Error(err)
					return
				}
				if got.String() != want.String() || deterministic(st) != deterministic(wantSt) {
					t.Errorf("normal run after the row's:\n%s\n%+v\nfresh:\n%s\n%+v", got.String(), deterministic(st), want.String(), deterministic(wantSt))
				}
			}
			checkNormal() // on the state the documents grew, if it was kept
			checkPooled(t, c.solo)

			// (c): the last document's state, scrubbed as release does but
			// measured before release may drop it.
			outs := []io.Writer{io.Discard}
			_, rs := c.solo.run(context.Background(), strings.NewReader(docs[len(docs)-1]), outs, nil)
			reported := rs.retained()
			rs.scrub()
			heap := keptHeap(rs)
			t.Logf("retained %d bytes, heap %d bytes", reported, heap)
			if reported > 1<<20 && (float64(reported) < 0.75*float64(heap) || float64(reported) > 1.25*float64(heap)) {
				t.Errorf("the state reports %d bytes but keeps %d of heap (%.2f)", reported, heap, float64(reported)/float64(heap))
			}

			var wg sync.WaitGroup
			for range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, doc := range docs {
						var out strings.Builder
						if _, err := c.Run(strings.NewReader(doc), &out); err != nil {
							t.Errorf("document %d: %v", i, err)
						} else if out.String() != wants[i] {
							t.Errorf("document %d from 8 goroutines: %d bytes, want %d", i, out.Len(), len(wants[i]))
						}
					}
					checkNormal()
				}()
			}
			wg.Wait()
			checkPooled(t, c.solo)
		})
	}
}

// checkPooled fails if a state the pool hands out reports more than
// maxIdleBytes, and puts every one it drew back, the first last.
func checkPooled(t *testing.T, p *Pass) {
	t.Helper()
	var drawn []*runState
	for range 8 {
		rs := p.acquire()
		if r := rs.retained(); r > maxIdleBytes {
			t.Errorf("the pool handed out a state of %d bytes, over the budget of %d", r, maxIdleBytes)
		}
		drawn = append(drawn, rs)
	}
	for i := len(drawn) - 1; i >= 0; i-- {
		p.release(drawn[i])
	}
}
