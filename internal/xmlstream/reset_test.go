package xmlstream

import (
	"fmt"
	"strings"
	"testing"
)

// TestCharRefValidation: numeric character references must denote XML
// Chars. Surrogates, NUL, #xFFFE/#xFFFF, and values above #x10FFFF used
// to slip through ParseUint+appendRune and corrupt downstream UTF-8.
func TestCharRefValidation(t *testing.T) {
	bad := []struct {
		name  string
		input string
	}{
		{"NUL", `<a>&#0;</a>`},
		{"control", `<a>&#x1F;</a>`},
		{"high surrogate", `<a>&#xD83D;</a>`},
		{"low surrogate", `<a>&#xDE00;</a>`},
		{"FFFE", `<a>&#xFFFE;</a>`},
		{"FFFF", `<a>&#xFFFF;</a>`},
		{"above max", `<a>&#x110000;</a>`},
		{"way above max", `<a>&#4294967295;</a>`},
		{"in attribute", `<a x="&#xD800;"/>`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := collectErr(tc.input, DefaultOptions())
			if err == nil {
				t.Fatalf("input %q: want *SyntaxError, got none", tc.input)
			}
			if _, ok := err.(*SyntaxError); !ok {
				t.Fatalf("input %q: want *SyntaxError, got %T: %v", tc.input, err, err)
			}
		})
	}

	good := []struct {
		input string
		want  string
	}{
		{`<a>&#x9;</a>`, "\t"},
		{`<a>&#65;</a>`, "A"},
		{`<a>&#xD7FF;</a>`, "퟿"},
		{`<a>&#xE000;</a>`, ""},
		{`<a>&#x10FFFF;</a>`, "\U0010FFFF"},
	}
	for _, tc := range good {
		toks := collect(t, tc.input, DefaultOptions())
		if len(toks) != 3 || toks[1].Data != tc.want {
			t.Fatalf("input %q: got %v, want text %q", tc.input, toks, tc.want)
		}
	}
}

// TestTokenizerReset: a reset tokenizer must behave exactly like a fresh
// one, including after a mid-document error.
func TestTokenizerReset(t *testing.T) {
	const doc = `<bib><book id="7"><title>A &amp; B</title></book></bib>`
	tok := NewTokenizerOptions(nil, DefaultOptions())

	var runs [][]Token
	for i := 0; i < 3; i++ {
		tok.Reset(strings.NewReader(doc))
		var toks []Token
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if tk.Kind == EOF {
				break
			}
			toks = append(toks, tk)
		}
		runs = append(runs, toks)
	}
	if !tokensEqual(runs[0], runs[1]) || !tokensEqual(runs[1], runs[2]) {
		t.Fatalf("reset runs diverge: %v vs %v vs %v", runs[0], runs[1], runs[2])
	}

	// An aborted, erroring document must not poison the next run.
	tok.Reset(strings.NewReader(`<a><b></a>`))
	for {
		if _, err := tok.Next(); err != nil {
			break
		}
	}
	tok.Reset(strings.NewReader(doc))
	var toks []Token
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatalf("after error reset: %v", err)
		}
		if tk.Kind == EOF {
			break
		}
		toks = append(toks, tk)
	}
	if !tokensEqual(toks, runs[0]) {
		t.Fatalf("post-error reset diverges: %v vs %v", toks, runs[0])
	}
}

// TestBorrowText: under BorrowText, Text data is valid until the pending
// queue drains, and a copy made at delivery time must match what an
// owning tokenizer produces.
func TestBorrowText(t *testing.T) {
	const doc = `<bib><book id="x&amp;y" lang="de">text one<note/>text &#x42;</book></bib>`
	opts := DefaultOptions()
	owned := collect(t, doc, opts)

	opts.BorrowText = true
	tok := NewTokenizerOptions(strings.NewReader(doc), opts)
	var borrowed []Token
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tk.Kind == EOF {
			break
		}
		if tk.Kind == Text {
			tk.Data = strings.Clone(tk.Data)
		}
		borrowed = append(borrowed, tk)
	}
	if !tokensEqual(owned, borrowed) {
		t.Fatalf("borrowed stream diverges:\n owned    %v\n borrowed %v", owned, borrowed)
	}
}

// TestInterningBounded: pooled tokenizers and symbol tables must not
// accumulate high-cardinality name vocabularies across Resets.
func TestInterningBounded(t *testing.T) {
	tok := NewTokenizerOptions(nil, DefaultOptions())
	for run := 0; run < 3; run++ {
		var doc strings.Builder
		doc.WriteString("<r>")
		for i := 0; i < maxRetainedSyms; i++ {
			fmt.Fprintf(&doc, "<t%d-%d/>", run, i)
		}
		doc.WriteString("</r>")
		tok.Reset(strings.NewReader(doc.String()))
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tk.Kind == EOF {
				break
			}
		}
	}
	// Each run exceeds the cap on its own, so Reset must have dropped the
	// previous vocabularies instead of stacking all three.
	if tok.syms.Len() > maxRetainedSyms+2 {
		t.Fatalf("interned names grew unboundedly: %d > cap %d", tok.syms.Len(), maxRetainedSyms)
	}

	s := NewSymTab()
	s.Intern("a")
	s.Intern("b")
	s.Reset()
	if s.Len() != 0 || s.byName["a"] != NoSym || s.cache != [symCacheSize]symSlot{} {
		t.Fatal("SymTab.Reset must drop all names and empty the cache")
	}
	if got := s.Intern("c"); got != 1 || s.Name(got) != "c" {
		t.Fatalf("post-reset intern broken: sym %d", got)
	}
}

// TestTokenizerSteadyStateAllocs: after warm-up, tokenizing a document
// through a reset tokenizer in borrow mode must not allocate — the
// regression guard for the pooled run-state design.
func TestTokenizerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 50; i++ {
		doc.WriteString(`<book id="42" lang="en"><title>Streaming &amp; Buffering</title><price>19.99</price></book>`)
	}
	doc.WriteString("</bib>")
	data := doc.String()

	opts := DefaultOptions()
	opts.BorrowText = true
	tok := NewTokenizerOptions(nil, opts)
	r := strings.NewReader(data)

	drain := func() {
		r.Reset(data)
		tok.Reset(r)
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tk.Kind == EOF {
				return
			}
		}
	}
	drain() // warm up buffers and the name table

	if allocs := testing.AllocsPerRun(20, drain); allocs > 0 {
		t.Fatalf("steady-state tokenization allocates: %.1f allocs/run, want 0", allocs)
	}
}
