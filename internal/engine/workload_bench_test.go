package engine_test

import (
	"bytes"
	"io"
	"testing"

	"gcx/internal/engine"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// BenchmarkWorkload compares one shared-stream pass of 8 XMark queries
// (the Table 1 five plus the extended corpus) against 8 sequential solo
// passes over the same document. Both cases process one document per
// iteration (SetBytes reports input bytes per workload completion), so
// the MB/s figures are directly comparable: the shared pass tokenizes and
// projects the input once instead of 8 times.
//
// The document is 1MB: the speedup measures the linear scan work the
// shared pass eliminates. Q8's join costs the same evaluator work in both
// settings — linear in the document since its inner loop probes a key
// table, quadratic before — and is the Amdahl floor of the ratio (the
// shared pass still wins by the full scan cost of the other seven
// queries).
func BenchmarkWorkload(b *testing.B) {
	qs := queries.AllIncludingExtended()
	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.Text
	}

	var docBuf bytes.Buffer
	if _, err := xmark.Generate(&docBuf, xmark.Config{Factor: xmark.FactorForSize(1 << 20), Seed: 1}); err != nil {
		b.Fatal(err)
	}
	doc := docBuf.Bytes()

	b.Run("shared", func(b *testing.B) {
		w, err := engine.CompilePass(texts, engine.Config{Mode: engine.ModeGCX}, 0)
		if err != nil {
			b.Fatal(err)
		}
		outs := make([]io.Writer, len(texts))
		for i := range outs {
			outs[i] = io.Discard
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Run(bytes.NewReader(doc), outs); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("sequential", func(b *testing.B) {
		engines := make([]*engine.Compiled, len(texts))
		for i, t := range texts {
			c, err := engine.Compile(t, engine.Config{Mode: engine.ModeGCX})
			if err != nil {
				b.Fatal(err)
			}
			engines[i] = c
		}
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range engines {
				if _, err := c.Run(bytes.NewReader(doc), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestWorkloadSinglePassEquivalence is the acceptance check behind the
// benchmark: over an XMark document, the shared pass reads the input
// exactly once (aggregate TokensRead equals one solo full pass) and every
// member's output is byte-identical to its solo run.
func TestWorkloadSinglePassEquivalence(t *testing.T) {
	qs := queries.AllIncludingExtended()
	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.Text
	}
	var docBuf bytes.Buffer
	if _, err := xmark.Generate(&docBuf, xmark.Config{Factor: xmark.FactorForSize(256 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	doc := docBuf.Bytes()

	want := make([]string, len(texts))
	var maxTokens int64
	for i, text := range texts {
		c, err := engine.Compile(text, engine.Config{Mode: engine.ModeGCX})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		st, err := c.Run(bytes.NewReader(doc), &out)
		if err != nil {
			t.Fatalf("%s solo: %v", qs[i].Name, err)
		}
		want[i] = out.String()
		if st.TokensRead > maxTokens {
			maxTokens = st.TokensRead
		}
	}

	// Batch 1 reproduces the solo token-demand schedule exactly; the
	// default batch may overshoot the last demand by up to one batch.
	w, err := engine.CompilePass(texts, engine.Config{Mode: engine.ModeGCX}, 1)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]io.Writer, len(texts))
	bufs := make([]bytes.Buffer, len(texts))
	for i := range outs {
		outs[i] = &bufs[i]
	}
	st, _, err := w.RunChecked(bytes.NewReader(doc), outs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if bufs[i].String() != want[i] {
			t.Errorf("%s: shared output differs from solo run", qs[i].Name)
		}
	}
	if st.TokensRead != maxTokens {
		t.Errorf("shared pass read %d tokens, one solo pass reads %d", st.TokensRead, maxTokens)
	}
}
