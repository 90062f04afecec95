package proj_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
	"gcx/internal/xmlstream"
)

// chunkReader hands out at most k bytes a Read (0: all it has), so the
// tokenizer's window ends where a tag is cut.
type chunkReader struct {
	data []byte
	k    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data))
	if r.k > 0 {
		n = min(n, r.k)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// stepResult is what one StepN call returned.
type stepResult struct {
	n    int64
	more bool
	err  string
}

// stepAll reads doc with StepN(budget) calls to its end or its error and
// returns every call's result, with the tokens read and the tokens the
// tokenizer counted without building them. With observe set, an
// observer sees every token, which makes the projector read each with
// Next: the reading without the skip.
func stepAll(t *testing.T, src, doc string, window int, budget int64, observe bool) ([]stepResult, int64, int64) {
	t.Helper()
	p, buf, tok := newProjector(t, src)
	buf.Reset()
	tok.Reset(&chunkReader{data: []byte(doc), k: window})
	p.Reset()
	if observe {
		p.Observe(func(xmlstream.Token) {})
	}
	var steps []stepResult
	for {
		n, more, err := p.StepN(budget)
		r := stepResult{n: n, more: more}
		if err != nil {
			r.err = err.Error()
		}
		steps = append(steps, r)
		if !more {
			return steps, p.TokensRead(), p.Skipped()
		}
	}
}

// TestDeadSubtreeBudgets: StepN stays token-exact inside a dead subtree
// that the tokenizer counts without building its tokens. The subtree
// holds attributes, empty and not, self-closing tags, CDATA, a comment,
// entities and, read 7 or 64 bytes at a time, tags the window end cuts;
// the second document also holds an unknown entity. For every budget
// from 1 to 20, each StepN call returns the count, the more flag and the
// error it returns when every token is read with Next.
func TestDeadSubtreeBudgets(t *testing.T) {
	const src = `<q>{ for $b in /a/b return $b }</q>`
	dead := `<c k="" l="v"><d/>x &amp; y<![CDATA[z]]><!-- note --><e m="1" n=''><f/></e>` +
		strings.Repeat("t", 90) + `<g o="w"/>` + strings.Repeat("<h>1</h>", 9) + `</c>`
	for _, doc := range []string{
		`<a>` + dead + `<b>1</b></a>`,
		`<a>` + dead + `<c><d>x &bogus; y</d></c><b>1</b></a>`,
	} {
		for _, window := range []int{0, 7, 64} {
			for budget := int64(1); budget <= 20; budget++ {
				got, tokens, skipped := stepAll(t, src, doc, window, budget, false)
				want, wantTokens, _ := stepAll(t, src, doc, window, budget, true)
				if len(got) != len(want) || tokens != wantTokens {
					t.Fatalf("window %d, budget %d: %d calls, %d tokens; with Next %d calls, %d tokens\n%.80s",
						window, budget, len(got), tokens, len(want), wantTokens, doc)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("window %d, budget %d, call %d: %+v; with Next %+v\n%.80s", window, budget, i+1, got[i], want[i], doc)
					}
				}
				if skipped < tokens/2 {
					t.Fatalf("window %d, budget %d: sanity: the tokenizer counted %d of %d tokens", window, budget, skipped, tokens)
				}
			}
		}
	}
}

// TestSkippedTokenCounts pins the work the skip saves on stream-select's
// five queries over 1 MB of XMark (seed 1), projected without an
// evaluator: of the tokens read, those the tokenizer counted without
// building them, and those Next built. Tokens read are every token of the
// document and its EOF, 50,571, as a Next drain counts them, for every
// query.
func TestSkippedTokenCounts(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(1 << 20), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const tokens = 50571
	drain := xmlstream.NewTokenizerOptions(bytes.NewReader(doc.Bytes()), xmlstream.Options{BorrowText: true})
	drain.SetSymTab(xmlstream.NewSymTab())
	all := int64(0)
	for {
		tk, err := drain.Next()
		if err != nil {
			t.Fatal(err)
		}
		all++
		if tk.Kind == xmlstream.EOF {
			break
		}
	}
	if all != tokens {
		t.Fatalf("a Next drain reads %d tokens, want %d", all, tokens)
	}
	for _, c := range []struct {
		name, src      string
		skipped, built int64
	}{
		{"Q1", queries.Q1.Text, 44554, 6017},
		{"Q6", queries.Q6.Text, 33491, 17080},
		{"Q13", queries.Q13.Text, 49551, 1020},
		{"Q20", queries.Q20.Text, 40921, 9650},
		{"sel-africa", `<sel>{ for $i in /site/regions/africa/item return <n>{ $i/name }</n> }</sel>`, 50324, 247},
	} {
		p, buf, tok := newProjector(t, c.src)
		buf.Reset()
		tok.Reset(bytes.NewReader(doc.Bytes()))
		p.Reset()
		for {
			more, err := p.Step()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !more {
				break
			}
		}
		read, skipped := p.TokensRead(), p.Skipped()
		t.Logf("%-10s read %7d  skipped %7d  built %7d  (%.1f %% skipped)", c.name, read, skipped, read-skipped, 100*float64(skipped)/float64(read))
		if read != all {
			t.Errorf("%s: %d tokens read, want the document's %d", c.name, read, all)
		}
		if skipped != c.skipped || read-skipped != c.built {
			t.Errorf("%s: skipped %d and built %d tokens, want %d and %d", c.name, skipped, read-skipped, c.skipped, c.built)
		}
	}
}
