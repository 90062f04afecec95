package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

// TestMalformedInsideDeadSubtree: the projector reads a dead subtree —
// one no projection path reaches below, here <c> under /a/b queries — in
// one Step, through the same tokenizer, so malformed input inside it
// fails with the error text, offset and tokens read of a FullBuffer run,
// which keeps every element. Checked solo and as a 3-member pass, at
// batch 1 and at the default batch.
func TestMalformedInsideDeadSubtree(t *testing.T) {
	srcs := []string{
		`<q>{ for $b in /a/b return $b }</q>`,
		`<r>{ for $b in /a/b return <hit/> }</r>`,
		`<s>{ for $a in /a return $a/b }</s>`,
	}
	for _, c := range []struct{ name, doc string }{
		{"mismatched end tag", `<a><c><d>x</e></c><b>1</b></a>`},
		{"unknown entity", `<a><c><d>x &bogus; y</d></c><b>1</b></a>`},
		{"bad character reference", `<a><c>&#0;</c><b>1</b></a>`},
		{"unquoted attribute", `<a><c><d k=v/></c><b>1</b></a>`},
		{"unclosed element at EOF", `<a><b>1</b><c><d>x</d>`},
	} {
		ref, err := Compile(srcs[0], Config{Mode: ModeFullBuffer})
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := ref.Run(strings.NewReader(c.doc), io.Discard)
		var syn *xmlstream.SyntaxError
		if !errors.As(wantErr, &syn) {
			t.Fatalf("%s: FullBuffer run: %v, want a syntax error", c.name, wantErr)
		}
		check := func(how string, err error, tokens int64) {
			t.Helper()
			if err == nil || err.Error() != wantErr.Error() || tokens != want.TokensRead {
				t.Errorf("%s, %s: %v after %d tokens; FullBuffer: %v after %d", c.name, how, err, tokens, wantErr, want.TokensRead)
			}
		}
		for _, src := range srcs {
			solo, err := Compile(src, Config{Mode: ModeGCX})
			if err != nil {
				t.Fatal(err)
			}
			st, err := solo.Run(strings.NewReader(c.doc), io.Discard)
			check("solo "+src, err, st.TokensRead)
		}
		for _, batch := range []int{1, 0} {
			p, err := CompilePass(srcs, Config{Mode: ModeGCX}, batch)
			if err != nil {
				t.Fatal(err)
			}
			st, qs, _ := p.Run(strings.NewReader(c.doc), []io.Writer{io.Discard, io.Discard, io.Discard})
			for i, q := range qs {
				check(fmt.Sprintf("pass at batch %d, member %d", batch, i), q.Err, st.TokensRead)
			}
		}
	}
}
