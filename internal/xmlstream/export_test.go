package xmlstream

import "io"

// NewTokenizer returns a tokenizer reading from r with default options.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewTokenizerOptions(r, DefaultOptions())
}

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) + t.arena.depth }

// WriteToken dispatches a token to the matching method, reading tag names
// from syms. EOF is ignored.
func (w *Writer) WriteToken(t Token, syms *SymTab) {
	switch t.Kind {
	case StartElement:
		w.StartElement(syms.Name(t.Sym))
	case EndElement:
		w.EndElement(syms.Name(t.Sym))
	case Text:
		w.Text(t.Data)
	}
}
