package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"gcx"
	"gcx/internal/buffer"
	"gcx/internal/engine"
	"gcx/internal/eval"
	"gcx/internal/proj"
	"gcx/internal/xmlstream"
)

// The rung ladder pushes a workload's own (document, query) pairs through
// the Figure 11 chain one layer at a time, each rung a separately timed
// execution through exported functions only:
//
//	R1  xmlstream.StructIndex.Build + Next walk, per 64 KB window
//	R2  xmlstream.Tokenizer.Next drain (BorrowText, as the engine sets it)
//	R3  tokenizer + proj.Projector.Step drained into a buffer.Buffer,
//	    no evaluator (what engine.newRunState wires, minus eval)
//	R3e eval.Evaluator.Run over that filled buffer, signOffs executed
//	R4  engine.Compiled.Run to io.Discard
//	R5  gcx.Engine.Run through the benchmark's source and verifying sink
//	R6  the same request through gcxd over loopback (gcxd-copy's own op)
//
// A layer's self time is its rung minus the rung below. Rungs are
// separate executions: R3 fills without purging, so its memory behaviour
// is StaticOnly's, and differences between rungs are good to about
// +-1 ns/byte on a noisy machine.

// cell holds one pair's rung times (median ns per execution over all of
// the pair's documents) and the exact counts the drains produce.
type cell struct {
	bytes                   int64
	r1, r2, r3, r3e, r4, r5 float64
	structural, tokens      int64
	fillPeak                int64  // buffer.Stats().PeakBytes after R3's fill
	r4Allocs                uint64 // mallocs per R4 execution
}

type ladder struct {
	cells []cell
}

// timeRung repeats f until the budget is spent (at least three times) and
// returns the median duration in ns.
func timeRung(budget time.Duration, f func() error) (float64, error) {
	var d []int64
	start := time.Now()
	for len(d) < 3 || time.Since(start) < budget {
		t0 := nanos()
		if err := f(); err != nil {
			return 0, err
		}
		d = append(d, nanos()-t0)
	}
	return percentile(d, 0.5), nil
}

// indexWindow is the tokenizer's lookahead window: the engine classifies
// the input one such window at a time.
const indexWindow = 64 << 10

func runLadder(ps []*pair, budget time.Duration) (*ladder, error) {
	lad := &ladder{cells: make([]cell, len(ps))}
	per := budget / time.Duration(6*len(ps))
	for i, p := range ps {
		c := &lad.cells[i]
		c.bytes = p.bytes()
		// R1 and R2 do not depend on the query: reuse them for a pair
		// over the same documents (stream-select, registry-fleet).
		if i > 0 && &ps[0].docs[0][0] == &p.docs[0][0] {
			c0 := lad.cells[0]
			c.r1, c.r2, c.structural, c.tokens = c0.r1, c0.r2, c0.structural, c0.tokens
		} else if err := c.scanRungs(p, per); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		comp, err := engine.Compile(p.query, engine.Config{Mode: engine.ModeGCX})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if err := c.fillRungs(p, comp, per); err != nil {
			return nil, fmt.Errorf("%s R3: %w", p.name, err)
		}
		if err := c.engineRungs(p, comp, per); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return lad, nil
}

// scanRungs measures R1 and R2.
func (c *cell) scanRungs(p *pair, budget time.Duration) error {
	var ix xmlstream.StructIndex
	var err error
	c.r1, err = timeRung(budget, func() error {
		c.structural = 0
		for _, doc := range p.docs {
			for len(doc) > 0 {
				win := doc[:min(len(doc), indexWindow)]
				doc = doc[len(win):]
				ix.Build(win)
				for at := ix.Next(0); at >= 0; at = ix.Next(at + 1) {
					c.structural++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	var rd bytes.Reader
	c.r2, err = timeRung(budget, func() error {
		c.tokens = 0
		for _, doc := range p.docs {
			rd.Reset(doc)
			tok.Reset(&rd)
			for {
				tk, err := tok.Next()
				if err != nil {
					return err
				}
				if tk.Kind == xmlstream.EOF {
					break
				}
				c.tokens++
			}
		}
		return nil
	})
	return err
}

// fillRungs measures R3 and R3e: the chain engine.newRunState wires,
// driven in two halves — project the whole document into the buffer,
// then evaluate over the filled buffer. The first execution checks the
// split run against the reference and the buffer's safety invariants.
func (c *cell) fillRungs(p *pair, comp *engine.Compiled, budget time.Duration) error {
	roles := comp.MatchTree.Roles
	agg := make([]bool, len(roles))
	for i, r := range roles {
		agg[i] = i > 0 && r.Aggregate
	}
	syms := xmlstream.NewSymTab()
	buf := buffer.New(syms, len(roles)-1, agg)
	tokOpts := xmlstream.DefaultOptions()
	tokOpts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, tokOpts)
	pr := proj.New(tok, buf, comp.MatchTree, proj.Options{AggregateRoles: comp.Analysis.Opts.AggregateRoles, BorrowedText: true})
	out := xmlstream.NewWriter(io.Discard)
	ev := eval.New(buf, pr, out, eval.Options{})

	var rd bytes.Reader
	var check sink
	var fill, evaluate []int64
	start := time.Now()
	for reps := 0; reps < 3 || time.Since(start) < 2*budget; reps++ {
		var fillNs, evalNs int64
		for d, doc := range p.docs {
			rd.Reset(doc)
			tok.Reset(&rd)
			buf.Reset()
			pr.Reset()
			if reps == 0 {
				check.reset(p.refs[d], opCtx{})
				out.Reset(&check)
			} else {
				out.Reset(io.Discard)
			}
			ev.Reset(eval.Options{ExecuteSignOffs: true})

			t0 := nanos()
			for {
				more, err := pr.Step()
				if err != nil {
					return err
				}
				if !more {
					break
				}
			}
			t1 := nanos()
			c.fillPeak = max(c.fillPeak, buf.Stats().PeakBytes)
			if err := ev.Run(comp.Analysis.Query); err != nil {
				return err
			}
			t2 := nanos()
			fillNs += t1 - t0
			evalNs += t2 - t1
			if reps == 0 {
				if !check.ok() {
					return errMismatch
				}
				if err := buf.CheckBalance(); err != nil {
					return err
				}
				if err := buf.CheckResidue(); err != nil {
					return err
				}
			}
		}
		fill = append(fill, fillNs)
		evaluate = append(evaluate, evalNs)
	}
	c.r3 = percentile(fill, 0.5)
	c.r3e = percentile(evaluate, 0.5)
	return nil
}

// engineRungs measures R4 and R5.
func (c *cell) engineRungs(p *pair, comp *engine.Compiled, budget time.Duration) error {
	var err error
	var rd bytes.Reader
	runs := 0
	r4 := func() error {
		runs++
		for _, doc := range p.docs {
			rd.Reset(doc)
			if _, err := comp.Run(&rd, io.Discard); err != nil {
				return err
			}
		}
		return nil
	}
	if err := r4(); err != nil { // fill the run-state pool before counting allocations
		return fmt.Errorf("R4: %w", err)
	}
	runs = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if c.r4, err = timeRung(budget, r4); err != nil {
		return fmt.Errorf("R4: %w", err)
	}
	runtime.ReadMemStats(&after)
	c.r4Allocs = (after.Mallocs - before.Mallocs) / uint64(runs)

	eng, err := gcx.Compile(p.query)
	if err != nil {
		return err
	}
	var src source
	var snk sink
	c.r5, err = timeRung(budget, func() error {
		for d, doc := range p.docs {
			src.reset(doc, opCtx{})
			snk.reset(p.refs[d], opCtx{})
			if _, err := eng.Run(&src, &snk); err != nil {
				return err
			}
			if !snk.ok() {
				return errMismatch
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("R5: %w", err)
	}
	return nil
}

// engineRunNs is R4 for one document and query: the median ns of one
// engine.Compiled.Run.
func engineRunNs(query string, doc []byte, budget time.Duration) (float64, error) {
	comp, err := engine.Compile(query, engine.Config{Mode: engine.ModeGCX})
	if err != nil {
		return 0, err
	}
	var rd bytes.Reader
	return timeRung(budget, func() error {
		rd.Reset(doc)
		_, err := comp.Run(&rd, io.Discard)
		return err
	})
}

// report turns the cells into the ladder's per-layer metrics. Times are
// summed over the pairs — one op's worth of work — and divided by the
// bytes the pairs cover.
func (l *ladder) report(c collector) {
	var t cell
	for _, x := range l.cells {
		t.bytes += x.bytes
		t.r1 += x.r1
		t.r2 += x.r2
		t.r3 += x.r3
		t.r3e += x.r3e
		t.r4 += x.r4
		t.r5 += x.r5
		t.structural += x.structural
		t.tokens += x.tokens
		t.fillPeak = max(t.fillPeak, x.fillPeak)
		t.r4Allocs += x.r4Allocs
	}
	b := float64(t.bytes)
	c["xmlstream.index_ns_per_byte"] = t.r1 / b
	c["xmlstream.tokenize_self_ns_per_byte"] = (t.r2 - t.r1) / b
	c["xmlstream.tokens_per_op"] = float64(t.tokens)
	c["xmlstream.structural_bytes_per_op"] = float64(t.structural)
	c["proj.project_self_ns_per_byte"] = (t.r3 - t.r2) / b
	c["buffer.fill_peak_bytes"] = float64(t.fillPeak)
	c["eval.run_self_ms"] = t.r3e * msPerNs
	c["eval.share"] = (t.r4 - t.r3) / t.r4
	c["engine.run_ns_per_byte"] = t.r4 / b
	c["engine.allocs_per_op"] = float64(t.r4Allocs)
	c["gcx.api_overhead_ns_per_byte"] = (t.r5 - t.r4) / b
}

// r5Ms is the median wall time of one pass of the pairs through
// gcx.Engine.Run, in ms.
func (l *ladder) r5Ms() float64 {
	var ns float64
	for _, x := range l.cells {
		ns += x.r5
	}
	return ns * msPerNs
}
