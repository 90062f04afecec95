package xmlstream

import (
	"strings"
	"testing"
)

// FuzzTokenizer feeds arbitrary bytes to the tokenizer and checks the
// engine-facing invariants: no panic, well-nested tags on success, and —
// the round-trip property — serializing the accepted token stream and
// re-tokenizing it yields the same stream. Accepted documents are exactly
// the attribute-free three-token-kind model the engine consumes, so the
// round trip must be lossless (attributes have already been converted to
// subelements, entities resolved, CDATA folded into text).
//
// It also differentially cross-checks the chunked Tokenizer against the
// retained per-byte Reference scanner at refill boundary sizes 1, 2, 7,
// 63/64/65 (the structural index's 64-byte block edges), and 4096 (every
// run-scanning fast path must behave identically whether or not the run
// straddles a refill or a bitmap block boundary), in both owning and
// BorrowText modes. The seeds include CR-bearing documents, so the two
// scanners' end-of-line handling is cross-checked at every window too.
func FuzzTokenizer(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<bib><book year="1994"><title>TCP/IP</title></book></bib>`,
		`<a>x&amp;y&#65;<![CDATA[<raw>]]></a>`,
		`<?xml version="1.0"?><!DOCTYPE a><a><!-- c --><b/>t</a>`,
		`<a><b>1</b> <b>2</b></a>`,
		`<a>&#x10FFFF;</a>`,
		`<q><w e="r"/></q><junk`,
	}
	seeds = append(seeds, terminatorEdgeCorpus()...)
	seeds = append(seeds, eolSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Differential: chunked vs reference at every boundary size, on
		// malformed inputs too (errors must agree, not just successes).
		for _, w := range []int{1, 2, 7, 63, 64, 65, 4096} {
			diffOne(t, []byte(src), w, DefaultOptions())
			engineMode := DefaultOptions()
			engineMode.BorrowText = true
			diffOne(t, []byte(src), w, engineMode)
		}

		toks, err := collectTokens(strings.NewReader(src))
		if err != nil {
			return // malformed input must be reported, not panic — done
		}
		var out strings.Builder
		w := NewWriter(&out)
		for _, tok := range toks {
			w.WriteToken(tok)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("serializing accepted stream: %v\ninput: %q", err, src)
		}
		again, err := collectTokens(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-tokenizing serialized stream: %v\ninput: %q\nserialized: %q", err, src, out.String())
		}
		if len(toks) != len(again) {
			t.Fatalf("round trip changed token count %d -> %d\ninput: %q\nserialized: %q", len(toks), len(again), src, out.String())
		}
		for i := range toks {
			if toks[i] != again[i] {
				t.Fatalf("round trip changed token %d: %v -> %v\ninput: %q\nserialized: %q",
					i, toks[i], again[i], src, out.String())
			}
		}
	})
}

// collectTokens drains a document into a coalesced token list: adjacent
// text tokens are merged, since the tokenizer is free to split character
// data at buffer and entity boundaries.
func collectTokens(r *strings.Reader) ([]Token, error) {
	tok := NewTokenizer(r)
	var out []Token
	for {
		tk, err := tok.Next()
		if err != nil {
			return nil, err
		}
		if tk.Kind == EOF {
			return out, nil
		}
		if tk.Kind == Text && len(out) > 0 && out[len(out)-1].Kind == Text {
			out[len(out)-1].Data += tk.Data
			continue
		}
		out = append(out, tk)
	}
}
