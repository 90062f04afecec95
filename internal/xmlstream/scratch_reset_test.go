package xmlstream

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// drainTokens runs a tokenizer to EOF, failing the test on syntax errors.
func drainTokens(t *testing.T, next func() (Token, error)) {
	t.Helper()
	for {
		tok, err := next()
		if err != nil {
			t.Fatalf("unexpected tokenizer error: %v", err)
		}
		if tok.Kind == EOF {
			return
		}
	}
}

// A pooled tokenizer must not keep any bytes of the previous document
// reachable after Reset, and what a pathological document grew — a long
// value and text run, a tag with a hundred thousand attributes, a
// document nested two hundred thousand deep — is what Retained reports,
// so the owner of a pooled run state can decide whether to keep it.
func TestTokenizerResetScratchHygiene(t *testing.T) {
	var attrs strings.Builder
	attrs.WriteString("<r")
	for i := range 100_000 {
		fmt.Fprintf(&attrs, ` a%d="v%d"`, i, i)
	}
	attrs.WriteString("/>")
	docs := map[string]string{
		"long value and run": `<r a="` + strings.Repeat("v", 64<<10+1) + `">` +
			strings.Repeat("x", 128<<10) + `</r>`,
		"100,000 attributes": attrs.String(),
		"200,000 deep":       strings.Repeat("<a>", 200_000) + strings.Repeat("</a>", 200_000),
	}
	for name, doc := range docs {
		tok := NewTokenizer(strings.NewReader(doc))
		drainTokens(t, values(tok))

		tok.Reset(strings.NewReader("<r/>"))
		grown := int64(cap(tok.textBuf)+cap(tok.attrBuf)) + int64(cap(tok.pending))*int64(unsafe.Sizeof(Token{})) + int64(cap(tok.stack))*int64(unsafe.Sizeof(Sym(0)))
		if grown < 64<<10 {
			t.Errorf("%s: sanity: the document grew the scratch, queue and stack by only %d bytes", name, grown)
		}
		if got := tok.Retained(); got < grown {
			t.Errorf("%s: Retained reports %d, below the %d bytes the document grew", name, got, grown)
		}
		if len(tok.textBuf) != 0 || len(tok.attrBuf) != 0 {
			t.Errorf("%s: scratch not truncated: text %d, attr %d bytes", name, len(tok.textBuf), len(tok.attrBuf))
		}
		for i, tk := range tok.pending[:cap(tok.pending)] {
			if tk != (Token{}) {
				t.Errorf("%s: pending[%d] still references the previous document: %+v", name, i, tk)
				break
			}
		}
		for i, tk := range tok.stack[:cap(tok.stack)] {
			if tk != NoSym {
				t.Errorf("%s: stack[%d] still references the previous document: %+v", name, i, tk)
				break
			}
		}
		drainTokens(t, values(tok))
	}
}

func TestReferenceResetScratchHygiene(t *testing.T) {
	big := `<r a="` + strings.Repeat("v", 64<<10+1) + `">` +
		strings.Repeat("x", 128<<10) + `</r>`
	tok := NewReference(strings.NewReader(big), DefaultOptions(), NewSymTab())
	drainTokens(t, tok.Next)

	tok.Reset(strings.NewReader("<r/>"))
	if len(tok.textBuf) != 0 || len(tok.attrBuf) != 0 {
		t.Errorf("scratch not truncated: text %d, attr %d bytes", len(tok.textBuf), len(tok.attrBuf))
	}
	for i, a := range tok.attrs[:cap(tok.attrs)] {
		if a != (attr{}) {
			t.Errorf("attrs[%d] still references previous document: %+v", i, a)
		}
	}
	drainTokens(t, tok.Next)
}

// Small documents keep their scratch so a warmed-up pooled
// tokenizer stays allocation-free across Resets.
func TestTokenizerResetRetainsBoundedScratch(t *testing.T) {
	// The entity forces the text through textBuf; entity-free runs borrow
	// the window and never touch the scratch.
	tok := NewTokenizer(strings.NewReader(`<r a="b">he&amp;llo</r>`))
	drainTokens(t, values(tok))
	textCap := cap(tok.textBuf)
	if textCap == 0 {
		t.Fatal("expected text scratch to have grown")
	}
	tok.Reset(strings.NewReader("<r/>"))
	if cap(tok.textBuf) != textCap {
		t.Errorf("bounded text scratch not retained: cap %d -> %d", textCap, cap(tok.textBuf))
	}
	if len(tok.textBuf) != 0 {
		t.Errorf("text scratch not truncated: len=%d", len(tok.textBuf))
	}
}
