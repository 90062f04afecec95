// Package dtd parses Document Type Definitions and derives the
// child-ordering facts that enable schema-aware early region termination.
//
// The paper's main competitor, the FluXQuery engine [11], exploits DTD
// knowledge to schedule evaluation ("schema-based scheduling"); the paper
// notes GCX needs no schema but "for a large class of queries, we can even
// outperform query engines which exploit schema information". This package
// makes the comparison concrete in the other direction: when a DTD is
// supplied, GCX's blocking cursors can terminate a region as soon as the
// content model proves that no further match can arrive — e.g. for XMark's
//
//	<!ELEMENT site (regions, categories, catgraph, people,
//	                open_auctions, closed_auctions)>
//
// a loop over /site/people can stop when <open_auctions> opens instead of
// scanning to the end of the document.
//
// Facts are derived with the classic Glushkov (position automaton)
// construction over content models: for each declared element and each
// child tag d, NoMoreAfter(elem, d) lists the child tags that cannot occur
// after an occurrence of d in any word of the model. Undeclared elements,
// ANY content, and unknown child tags yield no facts (the engine then
// behaves exactly as without a schema — the facts are purely an
// optimization and never affect results).
package dtd

import (
	"fmt"
	"strings"

	"gcx/internal/xmlstream"
)

// Schema holds the parsed element declarations and derived facts.
type Schema struct {
	elements map[string]*elementInfo
}

type elementInfo struct {
	name string
	// any is true for ANY content (no facts derivable).
	any bool
	// empty is true for EMPTY content (the element can have no content at
	// all; its region is complete the moment it opens).
	empty bool
	// tags lists the child element tags that can occur.
	tags map[string]bool
	// noMoreAfter maps a seen child tag to the child tags that can no
	// longer occur afterwards.
	noMoreAfter map[string][]string
	// mandatory holds the child tags that occur in EVERY word of the
	// content model — an existence check for such a child is true the
	// moment the parent's start tag is read.
	mandatory map[string]bool
	// complete holds the child tags whose occurrence finishes the content
	// model: after such a child, no further child can arrive, so the
	// parent's region is complete before its end tag (schema-based
	// scheduling, Koch/Scherzinger cs/0406016).
	complete map[string]bool
}

// Parse reads a DTD (internal subset syntax: a sequence of <!ELEMENT ...>
// declarations; <!ATTLIST ...>, <!ENTITY ...>, comments, and processing
// instructions are skipped).
func Parse(src string) (*Schema, error) {
	p := &parser{src: src}
	s := &Schema{elements: map[string]*elementInfo{}}
	for {
		p.skipMisc()
		if p.eof() {
			return s, nil
		}
		if !p.consume("<!ELEMENT") {
			return nil, p.errf("expected <!ELEMENT declaration")
		}
		p.skipSpace()
		name := p.name()
		if name == "" {
			return nil, p.errf("expected element name")
		}
		p.skipSpace()
		m, err := p.contentSpec()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(">") {
			return nil, p.errf("expected '>' closing <!ELEMENT %s", name)
		}
		if _, dup := s.elements[name]; dup {
			return nil, fmt.Errorf("dtd: element %s declared twice", name)
		}
		s.elements[name] = analyze(name, m)
	}
}

// MustParse is Parse panicking on error, for compiled-in schemas.
func MustParse(src string) *Schema {
	s, err := Parse(src)
	if err != nil {
		panic("dtd: " + err.Error())
	}
	return s
}

// CanContain reports whether child can occur as a direct child of elem.
// known is false when the schema has nothing to say (undeclared element or
// ANY content); callers must then assume true.
func (s *Schema) CanContain(elem, child string) (can, known bool) {
	info := s.elements[elem]
	if info == nil || info.any {
		return true, false
	}
	return info.tags[child], true
}

// MustContain reports whether every valid document places at least one
// child with the given tag under every elem element. False for
// undeclared elements and ANY content (no guarantee derivable) — the
// fact is purely an optimization license, so "don't know" and "no" need
// no distinction.
func (s *Schema) MustContain(elem, child string) bool {
	info := s.elements[elem]
	if info == nil || info.any {
		return false
	}
	return info.mandatory[child]
}

// NoMoreAfter returns the child tags of elem that cannot occur after a
// child with tag seen has occurred. The slice is shared; callers must not
// modify it.
func (s *Schema) NoMoreAfter(elem, seen string) []string {
	info := s.elements[elem]
	if info == nil {
		return nil
	}
	return info.noMoreAfter[seen]
}

// ContentComplete reports whether elem's content is provably complete
// once a child with tag seen has closed: in every word of the content
// model, an occurrence of seen is final, so no further child can arrive
// before elem's end tag. False for undeclared elements, ANY, and mixed
// content (whose global repetition means nothing is ever final) — like
// the other facts it is purely an optimization license.
func (s *Schema) ContentComplete(elem, seen string) bool {
	info := s.elements[elem]
	if info == nil || info.any {
		return false
	}
	return info.complete[seen]
}

// EmptyElement reports whether elem is declared EMPTY: it can have no
// content at all (not even whitespace), so its region is complete the
// moment its start tag is read.
func (s *Schema) EmptyElement(elem string) bool {
	info := s.elements[elem]
	return info != nil && info.empty
}

// Len returns the number of declared elements.
func (s *Schema) Len() int { return len(s.elements) }

// --- content model AST ---

type model interface{ isModel() }

type mName struct{ tag string }
type mSeq struct{ items []model }
type mChoice struct{ items []model }

// mRep wraps a model with a repetition modifier: optional (?), star (*),
// or plus (+).
type mRep struct {
	item   model
	min0   bool // may be absent
	repeat bool // may repeat
}
type mPCData struct{}
type mEmpty struct{}
type mAny struct{}

func (mName) isModel()   {}
func (mSeq) isModel()    {}
func (mChoice) isModel() {}
func (mRep) isModel()    {}
func (mPCData) isModel() {}
func (mEmpty) isModel()  {}
func (mAny) isModel()    {}

// --- DTD parser ---

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("dtd: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for !p.eof() && xmlstream.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

// skipMisc skips whitespace, comments, PIs, and non-ELEMENT declarations.
func (p *parser) skipMisc() {
	for {
		p.skipSpace()
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
				continue
			}
			p.pos = len(p.src)
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
				continue
			}
			p.pos = len(p.src)
		case strings.HasPrefix(p.src[p.pos:], "<!ATTLIST"),
			strings.HasPrefix(p.src[p.pos:], "<!ENTITY"),
			strings.HasPrefix(p.src[p.pos:], "<!NOTATION"):
			if i := strings.IndexByte(p.src[p.pos:], '>'); i >= 0 {
				p.pos += i + 1
				continue
			}
			p.pos = len(p.src)
		default:
			return
		}
	}
}

func (p *parser) consume(lit string) bool {
	if strings.HasPrefix(p.src[p.pos:], lit) {
		p.pos += len(lit)
		return true
	}
	return false
}

// name reads a name as the tokenizer does (xmlstream.IsNameStart,
// IsNameByte), or returns "" where none starts.
func (p *parser) name() string {
	start := p.pos
	if p.eof() || !xmlstream.IsNameStart(p.src[p.pos]) {
		return ""
	}
	for p.pos++; !p.eof() && xmlstream.IsNameByte(p.src[p.pos]); p.pos++ {
	}
	return p.src[start:p.pos]
}

// contentSpec parses EMPTY | ANY | mixed | children.
func (p *parser) contentSpec() (model, error) {
	switch {
	case p.consume("EMPTY"):
		return mEmpty{}, nil
	case p.consume("ANY"):
		return mAny{}, nil
	}
	if !p.consume("(") {
		return nil, p.errf("expected '(' in content model")
	}
	p.skipSpace()
	if p.consume("#PCDATA") {
		// Mixed content: (#PCDATA) or (#PCDATA | a | b)*.
		var items []model
		for {
			p.skipSpace()
			if p.consume(")") {
				if p.consume("*") || len(items) == 0 {
					if len(items) == 0 {
						return mPCData{}, nil
					}
					// (#PCDATA|a|b)*: tags may occur in any order, any
					// number of times.
					return mRep{item: mChoice{items: items}, min0: true, repeat: true}, nil
				}
				return nil, p.errf("mixed content with elements requires ')*'")
			}
			if !p.consume("|") {
				return nil, p.errf("expected '|' or ')' in mixed content")
			}
			p.skipSpace()
			n := p.name()
			if n == "" {
				return nil, p.errf("expected name in mixed content")
			}
			items = append(items, mName{tag: n})
		}
	}
	// children content: back up the '(' and parse a choice/seq expression.
	p.pos--
	return p.cp()
}

// cp parses one content particle: (expr)[?*+] | name[?*+].
func (p *parser) cp() (model, error) {
	p.skipSpace()
	var m model
	if p.consume("(") {
		inner, err := p.group()
		if err != nil {
			return nil, err
		}
		m = inner
	} else {
		n := p.name()
		if n == "" {
			return nil, p.errf("expected name or '(' in content model")
		}
		m = mName{tag: n}
	}
	switch {
	case p.consume("?"):
		m = mRep{item: m, min0: true}
	case p.consume("*"):
		m = mRep{item: m, min0: true, repeat: true}
	case p.consume("+"):
		m = mRep{item: m, repeat: true}
	}
	return m, nil
}

// group parses the inside of '(...)': a sequence or a choice.
func (p *parser) group() (model, error) {
	first, err := p.cp()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	switch {
	case p.consume(")"):
		return first, nil
	case p.consume(","):
		items := []model{first}
		for {
			m, err := p.cp()
			if err != nil {
				return nil, err
			}
			items = append(items, m)
			p.skipSpace()
			if p.consume(")") {
				return mSeq{items: items}, nil
			}
			if !p.consume(",") {
				return nil, p.errf("expected ',' or ')' in sequence")
			}
		}
	case p.consume("|"):
		items := []model{first}
		for {
			m, err := p.cp()
			if err != nil {
				return nil, err
			}
			items = append(items, m)
			p.skipSpace()
			if p.consume(")") {
				return mChoice{items: items}, nil
			}
			if !p.consume("|") {
				return nil, p.errf("expected '|' or ')' in choice")
			}
		}
	default:
		return nil, p.errf("expected ',', '|' or ')' in content model")
	}
}
