// Package engine wires the GCX components together (the architecture of
// Figure 11): query compilation (parser, normalizer, if-pushdown, static
// analysis) and the pull-based runtime chain
//
//	query evaluator ⇄ buffer manager ⇄ stream pre-projector ⇄ tokenizer.
//
// The package owns the only pass runtime (pass.go): a Pass evaluates N
// compiled queries over one pass of a document from one pooled run state.
// A solo query is the one-member Pass; one scheduler (sched.go) drives
// every pass's evaluators on the caller's goroutine. Everything above
// (gcx.Engine, Registry, Bulk, gcxd) runs through it.
//
// Besides the full GCX mode it provides the two baselines used by the
// benchmark harness as stand-ins for the systems of Table 1:
//
//   - StaticOnly: stream projection with roles assigned but signOffs
//     ignored — "static analysis alone", the projection-based strategy of
//     Galax [13]. Memory grows with the projected document size.
//   - FullBuffer: no projection at all — the whole document is buffered,
//     like naive in-memory engines. Memory grows with the document size.
package engine

import (
	"context"
	"fmt"
	"io"

	"gcx/internal/buffer"
	"gcx/internal/dtd"
	"gcx/internal/ifpush"
	"gcx/internal/normalize"
	"gcx/internal/projtree"
	"gcx/internal/static"
	"gcx/internal/xqast"
	"gcx/internal/xqparser"
)

// Mode selects the buffer management strategy.
type Mode int

const (
	// ModeGCX is the paper's system: projection + active garbage
	// collection.
	ModeGCX Mode = iota
	// ModeStaticOnly projects but never purges (no signOff execution).
	ModeStaticOnly
	// ModeFullBuffer buffers the entire document (no projection, no
	// purging).
	ModeFullBuffer
)

// String names the mode as used in reports.
func (m Mode) String() string {
	switch m {
	case ModeGCX:
		return "GCX"
	case ModeStaticOnly:
		return "StaticOnly"
	case ModeFullBuffer:
		return "FullBuffer"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls compilation.
type Config struct {
	Mode Mode
	// Static selects the Section 6 optimizations; ignored for
	// ModeFullBuffer. If nil, static.AllOptimizations() is used.
	Static *static.Options
	// Schema enables schema-aware early region termination (the
	// capability of the schema-based FluX system [11] the paper compares
	// against). Supplying it asserts the input is valid against the DTD.
	Schema *dtd.Schema
}

// Compiled is a query prepared for execution. All exported fields are
// immutable after Compile, and so is the query's one-member pass that
// serves its runs, so a single Compiled may serve many goroutines at once.
type Compiled struct {
	Source   string
	Mode     Mode
	Analysis *static.Analysis
	// MatchTree is the projection tree the projector runs with: the
	// analysis tree in GCX/StaticOnly modes, the keep-everything tree in
	// FullBuffer mode.
	MatchTree *projtree.Tree
	schema    *dtd.Schema
	// solo is the one-member pass Run goes through.
	solo *Pass
}

// Compile parses, normalizes, rewrites, and statically analyzes a query.
func Compile(src string, cfg Config) (*Compiled, error) {
	q, err := xqparser.Parse(src)
	if err != nil {
		return nil, err
	}
	n, err := normalize.Normalize(q)
	if err != nil {
		return nil, err
	}
	pushed := ifpush.Push(n)

	opts := static.AllOptimizations()
	if cfg.Static != nil {
		opts = *cfg.Static
	}
	a, err := static.Analyze(pushed, opts)
	if err != nil {
		return nil, err
	}
	// Last step: variables, tag names and comparison sites become indexes;
	// the evaluator runs only this form.
	a.Query = xqast.Resolve(a.Query)

	c := &Compiled{
		Source:    src,
		Mode:      cfg.Mode,
		Analysis:  a,
		MatchTree: a.Tree,
		schema:    cfg.Schema,
	}
	if cfg.Mode == ModeFullBuffer {
		c.MatchTree = fullBufferTree()
	}
	c.solo, err = NewPass([]*Compiled{c})
	return c, err
}

// fullBufferTree returns the keep-everything projection tree: a single
// aggregate dos::node() capture below the root.
func fullBufferTree() *projtree.Tree {
	t := projtree.New()
	leaf := t.AddNode(t.Root, xqast.Step{Axis: xqast.DescendantOrSelf, Test: xqast.NodeKindTest()})
	r := t.AddRole(leaf, projtree.RoleOutput, xqast.RootVar, true, "full-buffer capture")
	leaf.ChainRole = r.ID
	return t
}

// Stats aggregates the measurements of one run.
type Stats struct {
	Buffer buffer.Stats
	// TokensRead counts stream tokens consumed (the run may stop early if
	// the query needs only a prefix of the input).
	TokensRead int64
	// OutputBytes counts serialized output.
	OutputBytes int64
	// TTFRNanos is the time from run start to the first result byte
	// entering the output writer (0 when the run produced no output) —
	// the serving-tier latency metric: how long the projection/buffering
	// pipeline holds output back before results start to flow.
	TTFRNanos int64
	// WallNanos is the run's evaluation wall time.
	WallNanos int64
}

// Run executes the compiled query over the XML input, writing the result
// to out: one run of the query's own one-member pass. A Compiled is safe
// for concurrent use (see Pass.Run).
func (c *Compiled) Run(in io.Reader, out io.Writer) (Stats, error) {
	return c.Trace(context.Background(), in, out, nil)
}

// Trace is Run bounded by ctx, with tr recording a buffer snapshot after
// every consumed token and executed signOff (the paper's Figure 2); a nil
// tr records nothing. Unless ctx is nil, context.Background or
// context.TODO, the input is read through the run state's corpus.Guard,
// whose next read after ctx is done fails with an error matching
// corpus.ErrCanceled.
func (c *Compiled) Trace(ctx context.Context, in io.Reader, out io.Writer, tr *Tracer) (Stats, error) {
	outs := [1]io.Writer{out}
	st, rs := c.solo.run(ctx, in, outs[:], tr)
	err := rs.tasks[0].err
	c.solo.release(rs)
	return st, err
}

// RunChecked is Run followed by the buffer invariant checks of
// Pass.RunChecked.
func (c *Compiled) RunChecked(in io.Reader, out io.Writer) (Stats, error) {
	st, qs, err := c.solo.RunChecked(in, []io.Writer{out})
	if qs[0].Err != nil {
		// The query's own error, without the per-member wrapping.
		err = qs[0].Err
	}
	return st, err
}

// Explain renders the compilation diagnostics: variable tree,
// dependencies, projection tree, role table, and the rewritten query.
func (c *Compiled) Explain() string {
	a := c.Analysis
	return "mode: " + c.Mode.String() + "\n\n" +
		"variable tree:\n" + a.FormatVariableTree() + "\n" +
		"dependencies:\n" + a.FormatDeps() + "\n" +
		"projection tree:\n" + a.Tree.Format() + "\n" +
		"roles:\n" + a.Tree.FormatRoles() + "\n" +
		"rewritten query:\n" + xqast.Format(a.Query)
}
