// Package xmlstream is a miniature stand-in for the real tokenizer: its
// import-path suffix matches internal/xmlstream, so borrowcheck treats
// the *Token returned by Next as a borrowed window subslice.
package xmlstream

type Kind int

const (
	StartElement Kind = iota
	EndElement
	Text
)

type Sym int32

type Token struct {
	Kind Kind
	Sym  Sym
	Data string
}

type Tokenizer struct {
	doc string
	tok Token
}

// Next hands out the tokenizer's own slot, as the real one does.
func (t *Tokenizer) Next() (*Token, error) {
	t.tok = Token{Kind: Text, Data: t.doc}
	return &t.tok, nil
}
