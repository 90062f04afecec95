// Package borrowbad seeds one violation of each borrowcheck rule.
package borrowbad

import (
	"gcxtest/internal/xmlstream"
)

type sink struct {
	last string
	tok  xmlstream.Token
	all  []string
	x    string
}

var global string

// fieldStore retains the raw window in a struct field — the PR-5 bug
// class this analyzer exists for.
func (s *sink) fieldStore(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.last = tk.Data // want `stores borrowed tokenizer bytes in a struct field`
}

// wholeToken retains the Token value, Data included.
func (s *sink) wholeToken(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.tok = tk // want `stores borrowed tokenizer bytes in a struct field`
}

// mapStore retains the window in a map.
func mapStore(t *xmlstream.Tokenizer, m map[string]string) {
	tk, _ := t.Next()
	m["k"] = tk.Data // want `stores borrowed tokenizer bytes in a map or slice element`
}

// appendHeader retains the string header even though append copies the
// slice spine.
func (s *sink) appendHeader(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	s.all = append(s.all, tk.Data) // want `stores borrowed tokenizer bytes in a struct field`
}

// capture lets a closure observe the window after it may have been
// overwritten.
func capture(t *xmlstream.Tokenizer, run func(func())) {
	tk, _ := t.Next()
	run(func() {
		global = tk.Data // want `closure captures borrowed tokenizer bytes \(tk\)` `stores borrowed tokenizer bytes in global`
	})
}

// leak returns the window from an unannotated function.
func leak(t *xmlstream.Tokenizer) string {
	tk, _ := t.Next()
	return tk.Data // want `returns borrowed tokenizer bytes`
}

// send pushes the window through a channel.
func send(t *xmlstream.Tokenizer, ch chan string) {
	tk, _ := t.Next()
	ch <- tk.Data // want `sends borrowed tokenizer bytes over a channel`
}

// unannotatedCallee might retain its argument for all the analyzer knows.
func swallow(data string) { _ = data }

func forward(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	swallow(tk.Data) // want `passes borrowed tokenizer bytes to swallow`
}

// packageVar stores the window in a package variable.
func packageVar(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	global = tk.Data // want `stores borrowed tokenizer bytes in global`
}

// missingReason uses the escape hatch without justifying it.
func (s *sink) missingReason(t *xmlstream.Tokenizer) {
	tk, _ := t.Next()
	//gcxlint:borrowok
	s.x = tk.Data // want `//gcxlint:borrowok requires a reason`
}

// node and slab mirror the buffer: kept text enters node.text through
// the slab's copy and nothing else.
type node struct{ text string }

type slab struct{ buf []byte }

//gcxlint:borrowcopy
func (s *slab) keep(text string) string {
	s.buf = append(s.buf[:0], text...)
	return string(s.buf)
}

// appendText stores borrowed token text in the node without passing it
// through the slab.
//
//gcxlint:borrowed
func appendText(n *node, s *slab, text string) {
	n.text = text // want `stores borrowed tokenizer bytes in a struct field`
}

// lazyKeep claims to copy and hands its parameter back.
//
//gcxlint:borrowcopy
func lazyKeep(text string) string {
	return text // want `returns borrowed tokenizer bytes`
}
