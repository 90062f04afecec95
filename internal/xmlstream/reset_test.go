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
			t.Fatalf("input %q: got %s, want text %q", tc.input, render(toks), tc.want)
		}
	}
}

// TestTokenizerReset: a reset tokenizer must behave exactly like a fresh
// one, including after a mid-document error.
func TestTokenizerReset(t *testing.T) {
	const doc = `<bib><book id="7"><title>A &amp; B</title></book></bib>`
	tok := newTestTokenizer(nil, DefaultOptions())

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
			toks = append(toks, *tk)
		}
		runs = append(runs, toks)
	}
	if !tokensEqual(runs[0], runs[1]) || !tokensEqual(runs[1], runs[2]) {
		t.Fatalf("reset runs diverge: %s vs %s vs %s", render(runs[0]), render(runs[1]), render(runs[2]))
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
		toks = append(toks, *tk)
	}
	if !tokensEqual(toks, runs[0]) {
		t.Fatalf("post-error reset diverges: %s vs %s", render(toks), render(runs[0]))
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
	tok := newTestTokenizer(strings.NewReader(doc), opts)
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
		borrowed = append(borrowed, *tk)
	}
	if !tokensEqual(owned, borrowed) {
		t.Fatalf("borrowed stream diverges:\n owned    %s\n borrowed %s", render(owned), render(borrowed))
	}
}

// TestInterningIsCounted: a pooled tokenizer's symbol table keeps every
// name across Resets — a Sym stays valid as long as the table — and its
// Retained grows by at least each new name's bytes and not at all for a
// name seen before, so the owner of a pooled run state sees what a
// high-cardinality vocabulary has made the table keep.
func TestInterningIsCounted(t *testing.T) {
	const names = 4096
	tok := NewTokenizerOptions(nil, DefaultOptions())
	drain := func(doc string) {
		tok.Reset(strings.NewReader(doc))
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
	var last int64
	for run := 0; run < 3; run++ {
		var doc strings.Builder
		doc.WriteString("<r>")
		nameBytes := 0
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("t%d-%d", run, i)
			nameBytes += len(name)
			fmt.Fprintf(&doc, "<%s/>", name)
		}
		doc.WriteString("</r>")
		drain(doc.String())
		if got := tok.syms.Len(); got != 1+(run+1)*names {
			t.Fatalf("run %d: the table holds %d names, want every one of the %d runs' and <r>", run, got, run+1)
		}
		syms := tok.syms.Retained()
		if syms-last < int64(nameBytes) {
			t.Errorf("run %d: %d new names of %d bytes grew Retained by %d", run, names, nameBytes, syms-last)
		}
		if tok.Retained() < syms {
			t.Errorf("run %d: the tokenizer reports %d, less than its table's %d", run, tok.Retained(), syms)
		}
		last = syms
		drain(doc.String())
		if tok.syms.Retained() != last {
			t.Errorf("run %d: names seen before grew Retained from %d to %d", run, last, tok.syms.Retained())
		}
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
