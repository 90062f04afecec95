package xmlstream

import (
	"fmt"
	"strings"
	"testing"
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
// reachable after Reset, and a single pathological document must not pin
// oversized scratch buffers, queues or stacks for the life of the pool
// entry: not a long value or text run, not a tag with a hundred thousand
// attributes, not a document nested two hundred thousand deep.
func TestTokenizerResetScratchHygiene(t *testing.T) {
	var attrs strings.Builder
	attrs.WriteString("<r")
	for i := range 100_000 {
		fmt.Fprintf(&attrs, ` a%d="v%d"`, i, i)
	}
	attrs.WriteString("/>")
	docs := map[string]string{
		"long value and run": `<r a="` + strings.Repeat("v", maxRetainedScratch+1) + `">` +
			strings.Repeat("x", 2*maxRetainedScratch) + `</r>`,
		"100,000 attributes": attrs.String(),
		"200,000 deep":       strings.Repeat("<a>", 200_000) + strings.Repeat("</a>", 200_000),
	}
	for name, doc := range docs {
		tok := NewTokenizer(strings.NewReader(doc))
		drainTokens(t, tok.Next)

		tok.Reset(strings.NewReader("<r/>"))
		if tok.textBuf != nil {
			t.Errorf("%s: textBuf retained %d bytes past maxRetainedScratch after Reset", name, cap(tok.textBuf))
		}
		if tok.attrBuf != nil {
			t.Errorf("%s: attrBuf retained %d bytes past maxRetainedScratch after Reset", name, cap(tok.attrBuf))
		}
		if c := cap(tok.pending); c > maxRetainedEntries {
			t.Errorf("%s: pending retained %d entries past maxRetainedEntries after Reset", name, c)
		}
		if c := cap(tok.stack); c > maxRetainedEntries {
			t.Errorf("%s: stack retained %d entries past maxRetainedEntries after Reset", name, c)
		}
		for i, tk := range tok.pending[:cap(tok.pending)] {
			if tk != (Token{}) {
				t.Errorf("%s: pending[%d] still references the previous document: %+v", name, i, tk)
				break
			}
		}
		for i, tk := range tok.stack[:cap(tok.stack)] {
			if tk != (Token{}) {
				t.Errorf("%s: stack[%d] still references the previous document: %+v", name, i, tk)
				break
			}
		}
		drainTokens(t, tok.Next)
	}
}

func TestReferenceResetScratchHygiene(t *testing.T) {
	big := `<r a="` + strings.Repeat("v", maxRetainedScratch+1) + `">` +
		strings.Repeat("x", 2*maxRetainedScratch) + `</r>`
	tok := NewReference(strings.NewReader(big), DefaultOptions())
	drainTokens(t, tok.Next)

	tok.Reset(strings.NewReader("<r/>"))
	if tok.textBuf != nil {
		t.Errorf("textBuf retained %d bytes past maxRetainedScratch after Reset", cap(tok.textBuf))
	}
	if tok.attrBuf != nil {
		t.Errorf("attrBuf retained %d bytes past maxRetainedScratch after Reset", cap(tok.attrBuf))
	}
	for i, a := range tok.attrs[:cap(tok.attrs)] {
		if a.name != "" || a.value != "" {
			t.Errorf("attrs[%d] still references previous document: %+v", i, a)
		}
	}
	drainTokens(t, tok.Next)
}

// Small documents keep their (bounded) scratch so a warmed-up pooled
// tokenizer stays allocation-free across Resets.
func TestTokenizerResetRetainsBoundedScratch(t *testing.T) {
	// The entity forces the text through textBuf; entity-free runs borrow
	// the window and never touch the scratch.
	tok := NewTokenizer(strings.NewReader(`<r a="b">he&amp;llo</r>`))
	drainTokens(t, tok.Next)
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
