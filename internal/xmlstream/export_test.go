package xmlstream

import "io"

// NewTokenizer returns a tokenizer reading from r with default options.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewTokenizerOptions(r, DefaultOptions())
}

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

// WriteToken dispatches a token to the matching method. EOF is ignored.
func (w *Writer) WriteToken(t Token) {
	switch t.Kind {
	case StartElement:
		w.StartElement(t.Name)
	case EndElement:
		w.EndElement(t.Name)
	case Text:
		w.Text(t.Data)
	}
}
