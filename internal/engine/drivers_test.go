package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/eval"
	"gcx/internal/obs"
	"gcx/internal/proj"
	"gcx/internal/queries"
	"gcx/internal/static"
	"gcx/internal/xmark"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// driverRun is what one evaluation left behind, for comparing drivers.
type driverRun struct {
	out    string
	err    error
	tokens int64
	stats  buffer.Stats
	// signOffs lists each executed signOff with the evaluator's progress
	// at that moment (its wait node left out: the two runs buffer into
	// buffers of their own); end is the progress after the run.
	signOffs []string
	end      eval.Progress
}

// signOffLog returns an OnSignOff hook recording into r.
func (r *driverRun) signOffLog(ev **eval.Evaluator) func(xqast.SignOff) {
	return func(s xqast.SignOff) {
		pg := (*ev).Progress()
		pg.On = nil
		r.signOffs = append(r.signOffs, fmt.Sprintf("signOff(%s, r%d) %+v", s.Path, s.Role, pg))
	}
}

// runPulled evaluates c over doc with Evaluator.Run pulling its own
// projector: the chain newRunState builds and runState.reset resets,
// without the scheduler.
func runPulled(c *Compiled, doc string) driverRun {
	p := c.solo
	var r driverRun
	buf := buffer.New(xmlstream.NewSymTab(), len(p.Tree.Roles)-1, p.agg)
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	pr := proj.New(tok, buf, p.Tree, proj.Options{AggregateRoles: p.aggMatch, Schema: p.schema})
	// Reset as runState.reset does: a node's change stamp counts its
	// slot's recycling too, so the stamps the waits record agree only
	// between buffers with the same history.
	buf.Reset()
	tok.Reset(strings.NewReader(doc))
	pr.Reset()
	var out strings.Builder
	w := xmlstream.NewWriter(&out)
	var ev *eval.Evaluator
	ev = eval.New(buf, pr, w, eval.Options{
		ExecuteSignOffs: p.Mode == ModeGCX,
		Schema:          p.schema,
		OnSignOff:       r.signOffLog(&ev),
	})
	r.err = ev.Run(c.Analysis.Query)
	r.out, r.tokens, r.stats, r.end = out.String(), pr.TokensRead(), buf.Stats(), ev.Progress()
	return r
}

// runScheduled evaluates c over doc as its one-member pass, scheduled.
func runScheduled(c *Compiled, doc string) driverRun {
	p := c.solo
	var r driverRun
	var out strings.Builder
	rs := p.acquire()
	defer p.release(rs)
	rs.reset(context.Background(), p, obs.Now(), strings.NewReader(doc), []io.Writer{&out}, nil)
	ev := rs.tasks[0].ev
	ev.Reset(eval.Options{ // rs.reset's options, with the log
		ExecuteSignOffs: p.Mode == ModeGCX,
		Schema:          p.schema,
		OnSignOff:       r.signOffLog(&ev),
	})
	ev.Start(c.Analysis.Query)
	r.err = rs.runSolo()
	r.out, r.tokens, r.stats, r.end = out.String(), rs.proj.TokensRead(), rs.buf.Stats(), ev.Progress()
	return r
}

// diffDrivers reports how the two drivers' runs of c over doc differ.
func diffDrivers(c *Compiled, doc string) error {
	a, b := runPulled(c, doc), runScheduled(c, doc)
	switch {
	case a.out != b.out || fmt.Sprint(a.err) != fmt.Sprint(b.err):
		return fmt.Errorf("output\npulled    %q (%v)\nscheduled %q (%v)", a.out, a.err, b.out, b.err)
	case a.tokens != b.tokens:
		return fmt.Errorf("tokens read: pulled %d, scheduled %d", a.tokens, b.tokens)
	case a.stats != b.stats:
		return fmt.Errorf("buffer stats\npulled    %+v\nscheduled %+v", a.stats, b.stats)
	case a.end != b.end:
		return fmt.Errorf("progress\npulled    %+v\nscheduled %+v", a.end, b.end)
	case !slices.Equal(a.signOffs, b.signOffs):
		i := 0
		for i < min(len(a.signOffs), len(b.signOffs)) && a.signOffs[i] == b.signOffs[i] {
			i++
		}
		return fmt.Errorf("signOffs: %d pulled, %d scheduled, first difference at %d", len(a.signOffs), len(b.signOffs), i)
	}
	return nil
}

// TestDriversAgree: a one-member pass, which the scheduler drives one
// projector Step per round and wakes only when the evaluator's wait was
// touched, evaluates exactly as Evaluator.Run pulling the projector at
// every park (the path the benchmark ladder's R3e rung times): the same
// output bytes, tokens read, buffer stats, signOffs in the same order
// with the same progress at each, and the same progress at the end. On
// the property generator's fixed seeds under every Section 6 option set,
// and on stream-select's five queries and Q8 over 64 KB of XMark in all
// three modes.
func TestDriversAgree(t *testing.T) {
	optsets := []static.Options{
		{},
		{AggregateRoles: true},
		{EarlyUpdates: true},
		{EliminateRedundantRoles: true},
		static.AllOptimizations(),
	}
	for _, seed := range fixedSeeds {
		r := rand.New(rand.NewSource(seed))
		src := (&queryGen{r: r}).query()
		doc := randDoc(r)
		for i := range optsets {
			c, err := Compile(src, Config{Mode: ModeGCX, Static: &optsets[i]})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := diffDrivers(c, doc); err != nil {
				t.Fatalf("seed %d, options %+v: %v\nquery:\n%s\ndoc: %s", seed, optsets[i], err, src, doc)
			}
		}
	}

	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(64 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srcs := []string{queries.Q1.Text, queries.Q6.Text, queries.Q13.Text, queries.Q20.Text,
		`<sel>{ for $i in /site/regions/africa/item return <n>{ $i/name }</n> }</sel>`, queries.Q8.Text}
	for _, src := range srcs {
		for _, mode := range []Mode{ModeGCX, ModeStaticOnly, ModeFullBuffer} {
			c, err := Compile(src, Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := diffDrivers(c, doc.String()); err != nil {
				t.Fatalf("%s, %s: %v", mode, src, err)
			}
		}
	}
}
