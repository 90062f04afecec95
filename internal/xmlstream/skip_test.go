package xmlstream

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcx/internal/xmark"
)

// skipWindows are the refill sizes the skip is held to Next at; 0 reads
// as much as the window takes.
var skipWindows = []int{1, 7, 63, 64, 65, 4096, 0}

// skipBudgets are the budgets every dead subtree is read under: 1 to 8
// tokens a step, and no budget.
var skipBudgets = []int64{1, 2, 3, 4, 5, 6, 7, 8, math.MaxInt64}

// skipSubtree reads the open subtree's tokens, at most budget of them,
// through the end tag that closes its root, as the projector reads a
// dead one: SkipContent where it reads, Next for what it hands back. dead
// is the number of elements open in the subtree; counted adds up the
// tokens SkipContent counted.
func skipSubtree(tok *Tokenizer, budget int64, dead *int, counted *int64) (int64, error) {
	n := int64(0)
	for n < budget && *dead > 0 {
		k, open, err := tok.SkipContent(budget - n)
		n += k
		*counted += k
		*dead += open
		if err != nil || n == budget {
			return n, err
		}
		tk, err := tok.Next()
		if err != nil {
			return n, err
		}
		n++
		switch tk.Kind {
		case StartElement:
			*dead++
		case EndElement:
			*dead--
		}
	}
	return n, nil
}

// nextSubtree is skipSubtree with Next alone: the tokens the tokenizer
// builds there.
func nextSubtree(tok *Tokenizer, budget int64, dead *int) (int64, error) {
	n := int64(0)
	for n < budget && *dead > 0 {
		tk, err := tok.Next()
		if err != nil {
			return n, err
		}
		n++
		switch tk.Kind {
		case StartElement:
			*dead++
		case EndElement:
			*dead--
		}
	}
	return n, nil
}

// diffSkip holds SkipContent to Next on src, read window bytes at a
// time: for every depth, one tokenizer skips each element that starts at
// that depth, the other reads it with Next, both under budget, and the
// two must agree on every step's count, every error with its offset, and
// every token outside the skipped subtrees. It returns the number of
// subtrees it skipped, the tokens in them, and how many of those
// SkipContent counted.
func diffSkip(t *testing.T, src []byte, window int, budget int64) (skipped int, tokens, counted int64) {
	t.Helper()
	for level := 1; ; level++ {
		skip := newTestTokenizer(&chunkReader{data: src, k: window}, Options{BorrowText: true})
		next := newTestTokenizer(&chunkReader{data: src, k: window}, Options{BorrowText: true})
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("window %d, budget %d, level %d: %s\n input: %q", window, budget, level, fmt.Sprintf(format, args...), truncate(src))
		}
		depth, reached := 0, false
	stream:
		for {
			stk, serr := skip.Next()
			ntk, nerr := next.Next()
			if errString(serr) != errString(nerr) {
				fail("Next after skipping: %s, want %s", errString(serr), errString(nerr))
			}
			if serr != nil {
				break
			}
			if *stk != *ntk {
				fail("token %s (Sym %d) after skipping, want %s (Sym %d)", stk.Render(testSyms), stk.Sym, ntk.Render(testSyms), ntk.Sym)
			}
			if stk.Kind == EOF {
				break
			}
			switch stk.Kind {
			case EndElement:
				depth--
				continue
			case StartElement:
				if depth++; depth != level {
					continue
				}
			default:
				continue
			}
			reached = true
			skipped++
			sdead, ndead := 1, 1
			for steps := 0; ; steps++ {
				sn, serr := skipSubtree(skip, budget, &sdead, &counted)
				nn, nerr := nextSubtree(next, budget, &ndead)
				// A self-closing tag whose tokens straddle the budget is
				// open for Next until its end token, not for the skip: the
				// open counts agree only on whether the subtree is done.
				if sn != nn || errString(serr) != errString(nerr) || (sdead == 0) != (ndead == 0) {
					fail("subtree step %d read %d tokens (%s, %d open), Next %d (%s, %d open)",
						steps, sn, errString(serr), sdead, nn, errString(nerr), ndead)
				}
				tokens += sn
				if serr != nil {
					break stream
				}
				if sdead == 0 {
					break
				}
			}
			if skip.Depth() != next.Depth() {
				fail("depth %d after the subtree, want %d", skip.Depth(), next.Depth())
			}
			depth--
		}
		if !reached {
			return skipped, tokens, counted
		}
	}
}

// skipCorpus is what the scanner corpora lack for the skip: subtrees
// deeper than its arena, a name longer than it, start tags whose tokens
// straddle every budget, and text, CDATA, comments and entities inside
// skipped elements, well formed and not.
var skipCorpus = []string{
	`<r>` + strings.Repeat(`<d>`, arenaDepth+3) + `x` + strings.Repeat(`</d>`, arenaDepth+3) + `<b/></r>`,
	`<r><a><` + strings.Repeat("n", arenaBytes+10) + `>x</` + strings.Repeat("n", arenaBytes+10) + `></a></r>`,
	`<r><a k="" l="1" m=''/><a k="v"><b j="x" i="">t</b></a><c/></r>`,
	`<r><a>one <![CDATA[]]> <![CDATA[two]]><!-- c --><?p i?>&amp;<b/>&#65;</a></r>`,
	`<r><a>  <b>  </b>  &#32;  </a></r>`,
	`<r><a><b k="x&amp;y">t</b></a></r>`,
	`<r><a><b>t</c></a></r>`,
	`<r><a><b>t</b ></a  ></r>`,
	`<r><a><b>t &bogus; u</b></a></r>`,
	`<r><a><b>&#0;</b></a></r>`,
	`<r><a><b k=v/></a></r>`,
	`<r><a><b>x</b><c>`,
	`<r><a><b>x<`,
	`<r><a><b k="v`,
	`<r><a><!-- x`,
	`<r><a><![CDATA[x`,
	`<r><a><?p`,
	`<r><a>` + "\r\n<![CDATA[\r]]>\r" + `</a></r>`,
}

// TestSkipMatchesNext holds SkipContent to Next over the scanner corpora,
// FuzzTokenizer's seeds and committed inputs, the skip's own corpus and
// XMark, at every refill size in skipWindows and every budget in
// skipBudgets.
func TestSkipMatchesNext(t *testing.T) {
	docs := append(append(append([]string{}, differentialCorpus...), blockEdgeCorpus()...), eolSeeds...)
	docs = append(docs, skipCorpus...)
	dir := filepath.Join("testdata", "fuzz", "FuzzTokenizer")
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := loadFuzzCorpusString(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		docs = append(docs, src)
	}
	for i, src := range docs {
		t.Run(fmt.Sprintf("doc%03d", i), func(t *testing.T) {
			for _, w := range skipWindows {
				for _, b := range skipBudgets {
					diffSkip(t, []byte(src), w, b)
				}
			}
		})
	}
	t.Run("xmark", func(t *testing.T) {
		var buf strings.Builder
		if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(64 << 10), Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// The race detector finds nothing in one goroutine's scanning, and
		// the full sweep costs it 20 s: CI's named step runs the sweep.
		windows, budgets := skipWindows, skipBudgets
		if testing.Short() || raceEnabled {
			windows, budgets = []int{7, 0}, []int64{3, math.MaxInt64}
		}
		for _, w := range windows {
			for _, b := range budgets {
				n, tokens, counted := diffSkip(t, []byte(buf.String()), w, b)
				if n < 1000 || counted < tokens*3/4 {
					t.Fatalf("window %d, budget %d: sanity: the skip counted %d of the %d tokens of %d subtrees", w, b, counted, tokens, n)
				}
				t.Logf("window %d, budget %d: the skip counted %d of the %d tokens of %d subtrees", w, b, counted, tokens, n)
			}
		}
	})
}

// TestSkippedTextKeepsTheWindow: a text run of 16 windows, skipped
// through a reader that fills every window, leaves the window at the
// capacity it started with. The run's entities are spaced so that the
// window end cuts each one: the window keeps the entity's bytes, never
// the run before it.
func TestSkippedTextKeepsTheWindow(t *testing.T) {
	// The first window ends two bytes into the first "&amp;"; keeping the
	// rest of it starts the next window one byte past its '&'.
	const prefix = "<r><d>"
	run := strings.Repeat("a", windowSize-2-len(prefix)) +
		strings.Repeat("&amp;"+strings.Repeat("a", windowSize-1-len("&amp;")), 16)
	tok := newTestTokenizer(strings.NewReader(prefix+run+"</d></r>"), Options{})
	for range 2 {
		if _, err := tok.Next(); err != nil {
			t.Fatal(err)
		}
	}
	n, open, err := tok.SkipContent(math.MaxInt64)
	if n != 1 || open != 0 || err != nil {
		t.Fatalf("SkipContent = %d, %d, %v; want one text token", n, open, err)
	}
	if c := len(tok.Buf); c != windowSize {
		t.Errorf("a skipped %d-byte text run left a %d-byte window, want %d", len(run), c, windowSize)
	}
	drainTokens(t, values(tok))
}

// FuzzSkip holds SkipContent to Next on arbitrary input, at a few refill
// sizes and budgets: the differential of TestSkipMatchesNext.
func FuzzSkip(f *testing.F) {
	for _, s := range differentialCorpus[:7] {
		f.Add(s)
	}
	for _, s := range skipCorpus[2:] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, w := range []int{1, 7, 64, 0} {
			for _, b := range []int64{1, 3, math.MaxInt64} {
				diffSkip(t, []byte(src), w, b)
			}
		}
	})
}
