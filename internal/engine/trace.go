package engine

import (
	"fmt"
	"strings"

	"gcx/internal/buffer"
	"gcx/internal/proj"
	"gcx/internal/xmlstream"
	"gcx/internal/xqast"
)

// Tracer records a step-by-step log of query evaluation: after every
// consumed input token and every executed signOff statement it snapshots
// the buffer contents. This regenerates the paper's Figure 2 ("Active
// garbage collection") for arbitrary queries and inputs.
type Tracer struct {
	Steps []TraceStep
	// Limit bounds the number of recorded steps (≤ 0 = unbounded).
	// Evaluation continues past the bound — tracing is an observer, never
	// a governor — but further events are dropped and Truncated is set.
	// Servers use this so a deep trace over an arbitrarily large document
	// holds a bounded number of buffer snapshots.
	Limit int
	// Truncated reports whether the Limit dropped at least one event.
	Truncated bool
}

// full reports (and records) that the step bound is exhausted. Checked
// before building a step: buffer dumps are expensive, and past the limit
// they would be thrown away.
func (t *Tracer) full() bool {
	if t.Limit > 0 && len(t.Steps) >= t.Limit {
		t.Truncated = true
		return true
	}
	return false
}

// TraceStep is one event of a traced run (gcx.TraceStep is this type).
type TraceStep struct {
	// Event describes the trigger: `read <tag>` or `signOff($x, rN)`.
	Event string `json:"event"`
	// Buffer is the buffer tree with role annotations after the event,
	// in the notation of the paper's Figure 2.
	Buffer string `json:"buffer"`
}

// install wires t into one run: the projector's observer records every
// token it reads, formatted on the spot (the token borrows the tokenizer's
// window), and the returned hook every signOff an evaluator executes.
func (t *Tracer) install(buf *buffer.Buffer, p *proj.Projector) func(xqast.SignOff) {
	p.Observe(func(tk xmlstream.Token) {
		if !t.full() {
			t.Steps = append(t.Steps, TraceStep{Event: "read " + tk.String(), Buffer: buf.Dump()})
		}
	})
	return func(s xqast.SignOff) {
		if !t.full() {
			t.Steps = append(t.Steps, TraceStep{Event: fmt.Sprintf("signOff(%s, r%d)", s.Path, s.Role), Buffer: buf.Dump()})
		}
	}
}

// FormatSteps renders a trace as a two-column table in the spirit of
// Figure 2: each event, then the buffer after it.
func FormatSteps(steps []TraceStep) string {
	var b strings.Builder
	for i, s := range steps {
		fmt.Fprintf(&b, "step %d: %s\n", i+1, s.Event)
		if s.Buffer == "" {
			b.WriteString("  (buffer empty)\n")
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(s.Buffer, "\n"), "\n") {
			b.WriteString("  | " + line + "\n")
		}
	}
	return b.String()
}
