// Package borrowok exercises the sanctioned ways of consuming borrowed
// tokenizer windows; borrowcheck must stay silent here.
package borrowok

import (
	"strings"

	"gcxtest/internal/xmlstream"
)

type sink struct {
	last  string
	owned []byte
	str   string
	all   []string
	b     byte
	dbg   string
	kind  xmlstream.Kind
}

// cloneBeforeStore is the canonical fix: strings.Clone kills the taint.
func (s *sink) cloneBeforeStore(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.last = strings.Clone(tk.Data)
}

// cloneAppend appends an owned copy of the slot's Data to a slice.
func (s *sink) cloneAppend(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.all = append(s.all, strings.Clone(tk.Data))
}

// appendSpread copies the bytes out of the window.
func (s *sink) appendSpread(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.owned = append(s.owned[:0], tk.Data...)
}

// conversions between string and []byte copy.
func (s *sink) convert(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.owned = []byte(tk.Data)
	s.str = string(s.owned)
}

// guardedClone is the projector's idiom: the conditional clone kills the
// taint for every later use in source order.
func (s *sink) guardedClone(t *xmlstream.Tokenizer, borrowed bool) {
	tk, _ := t.Next()
	data := tk.Data
	if borrowed {
		data = strings.Clone(data)
	}
	s.last = data
}

// peek is annotated: callers may hand it borrowed windows, and its own
// body is checked with the parameter treated as borrowed.
//
//gcxlint:borrowed
func peek(data string) byte {
	if len(data) == 0 {
		return 0
	}
	return data[0]
}

func (s *sink) forward(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.b = peek(tk.Data)
}

// localCopy keeps a Token copy in a stack-local struct; nothing escapes.
func (s *sink) localCopy(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	cp := *tk
	cp.Data = tk.Data
	if len(cp.Data) > 0 {
		s.b = cp.Data[0]
	}
}

// byteReads index out scalar bytes, which cannot retain the window.
func (s *sink) byteReads(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	if len(tk.Data) > 0 {
		s.b = tk.Data[0]
	}
}

// reassignment of the token kills its taint.
func (s *sink) reassigned(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	tk = &xmlstream.Token{Data: "owned"}
	s.last = tk.Data
}

// suppressed documents a store the author has proven safe.
func (s *sink) suppressed(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.dbg = tk.Data //gcxlint:borrowok consumed by the same statement's caller before the next Next
}

// scalarField stores only the token's numeric kind: no window bytes can
// be retained through a non-string field.
func (s *sink) scalarField(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.kind = tk.Kind
}

// node and slab mirror the buffer's text path: the slab's copy kills the
// taint, so what it returns may be stored.
type node struct{ text string }

type slab struct{ buf []byte }

//gcxlint:borrowcopy
func (s *slab) keep(text string) string {
	s.buf = append(s.buf[:0], text...)
	return string(s.buf)
}

//gcxlint:borrowed
func appendText(n *node, s *slab, text string) {
	n.text = s.keep(text)
}
