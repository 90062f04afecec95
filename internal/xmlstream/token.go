// Package xmlstream provides a streaming XML tokenizer and serializer for
// the attribute-free XML data model used by the GCX engine.
//
// The paper (Section 2) considers XML without attributes: "attributes can be
// handled in the same way as children of a node". Accordingly, the tokenizer
// can convert attributes to leading subelements on the fly (the adaptation
// the paper applied to all benchmark inputs, Section 7), so the rest of the
// engine only ever sees three token kinds: opening tags, closing tags, and
// character data.
//
// The tokenizer is deliberately hand-written rather than based on
// encoding/xml: the engine's pre-projector sits directly on the token
// stream and per-token overhead dominates streaming performance.
package xmlstream

import "fmt"

// Kind identifies the type of a stream token.
type Kind uint8

const (
	// StartElement is an opening tag <a>. Self-closing tags <a/> are
	// reported as a StartElement immediately followed by an EndElement.
	StartElement Kind = iota + 1
	// EndElement is a closing tag </a>.
	EndElement
	// Text is character data between tags. Entity references amp, lt, gt,
	// apos, quot and numeric character references are resolved.
	Text
	// EOF is reported once the input is exhausted.
	EOF
)

// String returns a readable name for the token kind.
func (k Kind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	case EOF:
		return "EOF"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Token is a single event from the XML stream.
//
// For StartElement and EndElement tokens, Sym is the tag name's symbol in
// the tokenizer's symbol table and Name the table's string for it, which
// the caller may keep. For Text tokens, Data holds the (unescaped)
// character data; under BorrowText it is only valid until the next call
// to the tokenizer.
type Token struct {
	Kind Kind
	Sym  Sym    // tag name symbol for StartElement/EndElement
	Name string // tag name for StartElement/EndElement
	Data string // character data for Text
}

// String renders the token in the stream notation used by the paper,
// e.g. <bib>, </book>, or "text".
func (t Token) String() string {
	switch t.Kind {
	case StartElement:
		return "<" + t.Name + ">"
	case EndElement:
		return "</" + t.Name + ">"
	case Text:
		return fmt.Sprintf("%q", t.Data)
	case EOF:
		return "EOF"
	default:
		return "invalid token"
	}
}
