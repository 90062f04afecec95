package xmlstream

import (
	"bytes"
	"encoding/xml"
	"io"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// End-of-line handling (XML 1.0 §2.11): both scanners must deliver
// "\r\n" and a lone '\r' of character data, CDATA and attribute values
// as '\n', wherever the read boundaries fall, and must leave a '\r' a
// character reference writes alone. The reading they are held to is
// encoding/xml's, which shares no code with either.

// eolSeeds are short well-formed documents that carry '\r': pairs, lone
// ones, runs of both, next to entities, character references, comments
// and CDATA, in every place that keeps character data. FuzzTokenizer
// seeds with them.
var eolSeeds = []string{
	"<r>a\r\nb</r>",
	"<r>a\rb</r>",
	"<r>a\r\r\nb\n\r</r>",
	"<r>\r\n</r>",
	"<r>\r\n<b>x\r</b>\r</r>",
	"<r>x\r<!-- \r\n -->\ny</r>",
	"<r>a\r&amp;\nb\r&#10;c</r>",
	"<r>a&#13;\nb&#xD;&#xA;c</r>",
	"<r k=\"x\r\ny\rz\"><b k=\"&#13;\r\n\"/></r>",
	"<r k=\"a\r&amp;\nb\"/>",
	"<r><![CDATA[x\r\ny\r]]></r>",
	"<r><![CDATA[\r\n]]>\r\n<![CDATA[\r]]]></r>",
	"<?xml version=\"1.0\"?>\r\n<!DOCTYPE r [\r\n<!ELEMENT r ANY>\r\n]>\r\n<r>\r\n<?pi \r\n?>t\r\n</r>\r\n",
}

// eolCorpus is eolSeeds, a whitespace-only attribute value (which the
// fuzzer's round trip cannot keep: its text token is dropped when read
// back as character data), and documents long enough to cross the
// tokenizer's own window.
func eolCorpus() []string {
	return append(eolSeeds[:len(eolSeeds):len(eolSeeds)],
		"<r j='\r\n' k=\"\r\"/>",
		"<r>"+strings.Repeat("line\r\n", 12000)+"</r>",
		"<r>"+strings.Repeat("ab\r", 30000)+"</r>",
		"<r>"+strings.Repeat("<b k=\"v\r\nw\">t\r</b>\r\n", 4000)+"</r>",
	)
}

// xmlTokens reads doc with encoding/xml (Strict, RawToken) into this
// package's token model, names interned into testSyms: each attribute
// becomes a leading subelement, whitespace-only character data outside
// CDATA is dropped, comments, PIs and declarations are skipped.
func xmlTokens(doc []byte) ([]Token, error) {
	d := xml.NewDecoder(bytes.NewReader(doc))
	d.Strict = true
	var out []Token
	name := func(n xml.Name) Sym {
		if n.Space != "" {
			return testSyms.Intern(n.Space + ":" + n.Local)
		}
		return testSyms.Intern(n.Local)
	}
	for {
		at := d.InputOffset()
		tok, err := d.RawToken()
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			out = append(out, Token{Kind: StartElement, Sym: name(tok.Name)})
			for _, a := range tok.Attr {
				out = append(out, Token{Kind: StartElement, Sym: name(a.Name)})
				if a.Value != "" {
					out = append(out, Token{Kind: Text, Data: a.Value})
				}
				out = append(out, Token{Kind: EndElement, Sym: name(a.Name)})
			}
		case xml.EndElement:
			out = append(out, Token{Kind: EndElement, Sym: name(tok.Name)})
		case xml.CharData:
			cdata := bytes.HasPrefix(doc[at:], []byte("<![CDATA["))
			if len(tok) > 0 && (cdata || len(bytes.Trim(tok, " \t\r\n")) > 0) {
				out = append(out, Token{Kind: Text, Data: string(tok)})
			}
		}
	}
}

// TestEndOfLineMatchesEncodingXML: on every CR-bearing document, at
// refill windows {1, 7, 64, ∞} and in both option sets, Tokenizer and
// Reference give encoding/xml's tokens.
func TestEndOfLineMatchesEncodingXML(t *testing.T) {
	for i, src := range eolCorpus() {
		want, err := xmlTokens([]byte(src))
		if err != nil {
			t.Fatalf("case %d: encoding/xml: %v", i, err)
		}
		for _, w := range []int{1, 7, 64, 0} {
			for _, opts := range diffOptionSets {
				scanners := map[string]func() (Token, error){
					"Tokenizer": values(newTestTokenizer(&chunkReader{data: []byte(src), k: w}, opts)),
					"Reference": NewReference(&chunkReader{data: []byte(src), k: w}, opts, testSyms).Next,
				}
				for name, next := range scanners {
					got, err := drainCloned(next)
					if err != nil {
						t.Fatalf("case %d, %s, window %d: %v", i, name, w, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("case %d, %s, window %d, opts %+v:\n got %s\nwant %s", i, name, w, opts, render(got), render(want))
					}
				}
			}
		}
	}
}

// TestTextWithoutCRIsAView: a run that holds no '\r' is still handed out
// as a view of the window under BorrowText; one that holds a '\r' is not
// (it is normalized into scratch).
func TestTextWithoutCRIsAView(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		view bool
	}{{"<r>plain text</r>", true}, {"<r>two\r\nlines</r>", false}, {"<r k=\"plain\"/>", true}, {"<r k=\"a\rb\"/>", false}} {
		tok := NewTokenizerOptions(strings.NewReader(tc.doc), Options{BorrowText: true})
		for {
			tk, err := tok.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tk.Kind == EOF {
				t.Fatalf("%q: no text token", tc.doc)
			}
			if tk.Kind != Text {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(tk.Data)))
			lo := uintptr(unsafe.Pointer(&tok.Buf[0]))
			if inWindow := p >= lo && p < lo+uintptr(tok.N); inWindow != tc.view {
				t.Fatalf("%q: text %q in the window = %v, want %v", tc.doc, tk.Data, inWindow, tc.view)
			}
			if strings.IndexByte(tk.Data, '\r') >= 0 {
				t.Fatalf("%q: text %q keeps a '\\r'", tc.doc, tk.Data)
			}
			break
		}
	}
}
