package proj_test

import (
	"strings"
	"testing"

	"gcx/internal/buffer"
	"gcx/internal/ifpush"
	"gcx/internal/normalize"
	"gcx/internal/proj"
	"gcx/internal/static"
	"gcx/internal/xmlstream"
	"gcx/internal/xqparser"
)

// newProjector compiles src and wires a projector over doc with the
// engine's production tokenizer options (BorrowText on).
func newProjector(t *testing.T, src, doc string) *proj.Projector {
	t.Helper()
	q, err := xqparser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := normalize.Normalize(q)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	a, err := static.Analyze(ifpush.Push(n), static.Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	syms := xmlstream.NewSymTab()
	agg := make([]bool, len(a.Tree.Roles))
	buf := buffer.New(syms, len(a.Tree.Roles)-1, agg)
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(doc), opts)
	return proj.New(tok, buf, a.Tree, proj.Options{})
}

// LastToken snapshots must own their bytes. Under BorrowText the
// tokenizer reuses one scratch buffer for every entity-bearing text run,
// so a snapshot that aliased the token (the old implementation stored
// the Token itself) would be rewritten by the next run's bytes.
func TestLastTokenOwnsItsBytes(t *testing.T) {
	const src = "<q>{ for $x in //x return $x }</q>"
	// Both text runs carry an entity, forcing each through the shared
	// textBuf scratch; they have equal length so corruption would be a
	// silent byte swap, not a bounds panic.
	p := newProjector(t, src, `<r>a&amp;b<x>C&amp;D</x></r>`)
	p.TrackLastToken(true)

	var afterFirstText xmlstream.Token
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		last := p.LastToken()
		if last.Kind == xmlstream.Text && last.Data == "a&b" {
			afterFirstText = last
		}
		if !more {
			break
		}
	}
	if afterFirstText.Kind != xmlstream.Text {
		t.Fatal("never observed the first text token")
	}
	if afterFirstText.Data != "a&b" {
		t.Fatalf("retained LastToken corrupted by later scratch reuse: %q", afterFirstText.Data)
	}
}

// Without tracking, LastToken stays zero: production runs must not pay
// for snapshots nobody reads.
func TestLastTokenOffByDefault(t *testing.T) {
	p := newProjector(t, "<q>{ for $x in //x return $x }</q>", `<r>hello</r>`)
	for {
		more, err := p.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !more {
			break
		}
	}
	if got := p.LastToken(); got.Kind != 0 || got.Name != "" || got.Data != "" {
		t.Fatalf("LastToken populated without TrackLastToken: %+v", got)
	}
}
