package xmlstream

import (
	"strings"
	"testing"
	"testing/iotest"
)

// TestOpaqueRegionsKeepTheWindow: a comment, a PI and a DOCTYPE of 4 MB,
// read one byte at a time, are skipped by sliding the window, never by
// growing it: the window ends the document at the capacity it started
// with.
func TestOpaqueRegionsKeepTheWindow(t *testing.T) {
	interior := strings.Repeat("opaque - ? ] > < \" ' & text ", (4<<20)/28)
	docs := map[string]string{
		"comment": "<r><!--" + interior + "--></r>",
		"PI":      "<r><?pi " + interior + "?></r>",
		"DOCTYPE": `<!DOCTYPE r [<!ENTITY e "` + strings.ReplaceAll(interior, `"`, "") + `">]><r/>`,
	}
	for name, doc := range docs {
		tok := NewTokenizer(iotest.OneByteReader(strings.NewReader(doc)))
		drainTokens(t, tok.Next)
		if c := cap(tok.Buf); c != windowSize {
			t.Errorf("%s: a %d-byte document read a byte at a time left a %d-byte window, want %d", name, len(doc), c, windowSize)
		}
	}
}

// TestLongTagGrowsWindowLinearly: a start tag with a 256 KB attribute
// value, read one byte at a time, grows the window to hold it — each
// read appends a byte and the index classifies just that byte, so the
// index classifies at most twice the document — and Reset gives the
// window back at its starting capacity.
func TestLongTagGrowsWindowLinearly(t *testing.T) {
	value := strings.Repeat("v", 256<<10)
	doc := `<r><b a="` + value + `"/></r>`
	tok := NewTokenizerOptions(iotest.OneByteReader(strings.NewReader(doc)), Options{BorrowText: true})
	var got string
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tk.Kind == EOF {
			break
		}
		if tk.Kind == Text {
			got = strings.Clone(tk.Data)
		}
	}
	if got != value {
		t.Fatalf("attribute value came back as %d bytes, want %d", len(got), len(value))
	}
	if c := cap(tok.Buf); c <= windowSize {
		t.Errorf("the window stayed at %d bytes under a %d-byte tag", c, len(value))
	}
	if c := tok.Idx.classified; c > 2*len(doc) {
		t.Errorf("the index classified %d bytes of a %d-byte document, want at most %d", c, len(doc), 2*len(doc))
	}
	tok.Reset(strings.NewReader("<r/>"))
	if c := cap(tok.Buf); c != windowSize {
		t.Errorf("Reset left a %d-byte window, want %d", c, windowSize)
	}
	drainTokens(t, tok.Next)
}
