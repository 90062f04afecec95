package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gcx/internal/obs"
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

// TestDeadNamesStayOutOfTheSymTab: the tokenizer counts a dead subtree's
// tokens without interning their names, so a run state reused over a
// document whose dead <junk> holds 4,096 elements with names of their
// own, each with an attribute of its own (8,192 names, over 100 KB, so
// tags straddle the window end), keeps the symbol table of a run without
// them: from the first run on, its Len and Retained do not move, and
// neither document makes the state's Retained grow. A
// hostile vocabulary in a region no query reads does not push a pooled
// state toward the retention budget, as long as its names fit the skip's
// arena (64 open elements, 1 KB of names).
//
// The test records that limit too: a start tag that does not fit is read
// by Next, which interns it and every name still on the arena. A dead
// chain of 70 distinct names interns the first 65; a 1,100-byte name
// under one element interns both names.
func TestDeadNamesStayOutOfTheSymTab(t *testing.T) {
	const names = 4096
	c := compile(t, `<q>{ for $b in /r/b return $b }</q>`, Config{Mode: ModeGCX})
	var junk strings.Builder
	for i := range names {
		fmt.Fprintf(&junk, `<g%d a%d="v">x</g%d>`, i, i, i)
	}
	plain := `<r><junk><g/></junk><b>1</b></r>`
	flood := `<r><junk>` + junk.String() + `</junk><b>1</b></r>`
	if len(flood) < 100<<10 {
		t.Fatalf("sanity: the flood document is %d bytes", len(flood))
	}
	rs := c.solo.newRunState()
	syms := rs.buf.Syms()
	var lens []int
	var symBytes, retained []int64
	for i, doc := range []string{plain, plain, flood, plain, flood} {
		var out strings.Builder
		rs.reset(context.Background(), c.solo, obs.Now(), strings.NewReader(doc), []io.Writer{&out}, nil)
		if err := rs.runSolo(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := out.String(); got != `<q><b>1</b></q>` {
			t.Fatalf("run %d: %s", i, got)
		}
		lens = append(lens, syms.Len())
		symBytes = append(symBytes, syms.Retained())
		retained = append(retained, rs.retained())
	}
	// Every run must leave the state as the first, a run without the
	// names, did.
	for i := 1; i < len(lens); i++ {
		if lens[i] != lens[0] || symBytes[i] != symBytes[0] || retained[i] != retained[0] {
			t.Fatalf("symbol table names, bytes and state Retained per run: %v, %v, %v; want the first run's in every later run", lens, symBytes, retained)
		}
	}

	// Past the arena (xmlstream's arenaDepth and arenaBytes).
	const arenaDepth, arenaBytes = 64, 1024
	var deep strings.Builder
	for i := range arenaDepth + 6 {
		fmt.Fprintf(&deep, `<d%d>`, i)
	}
	for i := arenaDepth + 5; i >= 0; i-- {
		fmt.Fprintf(&deep, `</d%d>`, i)
	}
	long := strings.Repeat("n", arenaBytes+76)
	for _, tc := range []struct {
		name, junk string
		interned   int
	}{
		{"deep", deep.String(), arenaDepth + 1},
		{"long", `<e><` + long + `>x</` + long + `></e>`, 2},
	} {
		before := syms.Len()
		var out strings.Builder
		rs.reset(context.Background(), c.solo, obs.Now(), strings.NewReader(`<r><junk>`+tc.junk+`</junk><b>1</b></r>`), []io.Writer{&out}, nil)
		if err := rs.runSolo(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := out.String(); got != `<q><b>1</b></q>` {
			t.Fatalf("%s: %s", tc.name, got)
		}
		if got := syms.Len() - before; got != tc.interned {
			t.Errorf("%s: the dead region interned %d names, want %d", tc.name, got, tc.interned)
		}
	}
}
