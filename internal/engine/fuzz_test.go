package engine_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"

	"gcx/internal/engine"
	"gcx/internal/queries"
)

// siteDoc is a small XMark-shaped document the catalog queries find
// matches in: people with ids, names, profiles and homepages, items under
// two regions, and closed auctions whose buyers join with the people.
const siteDoc = `<site><regions><africa><item><name>i1</name><description><text>d1</text></description></item></africa>` +
	`<australia><item><name>i2</name><description><text>d2</text></description></item><item><name>i3</name></item></australia></regions>` +
	`<people><person><id>person0</id><name>ann</name><profile><income>120000</income></profile></person>` +
	`<person><id>person1</id><name>bob</name><homepage>h</homepage><profile><income>40000</income></profile></person>` +
	`<person><id>person2</id><name>cy</name></person></people>` +
	`<closed_auctions><closed_auction><buyer><person>person1</person></buyer><price>50</price>` +
	`<annotation><description><text>t1</text></description></annotation></closed_auction>` +
	`<closed_auction><buyer><person>person0</person></buyer><price>12</price></closed_auction></closed_auctions></site>`

// FuzzCompile compiles arbitrary query texts and runs each one the parser
// accepts over arbitrary well-formed documents. Compile must not panic;
// the GCX run must be balanced with an empty buffer at the end
// (RunChecked) and write FullBuffer's bytes; and a pass of three members
// of the same compiled query — every projection node of its merged tree
// then carries three role lanes, where the solo tree's carry one — must
// be balanced too and give every member those bytes.
//
// Only documents that encoding/xml reads strictly as one well-formed root
// are run: on malformed input a pass member can fail where the solo run
// stopped reading before the fault (DESIGN.md, "Concurrency contract").
func FuzzCompile(f *testing.F) {
	for _, q := range queries.AllIncludingExtended() {
		f.Add(q.Text, siteDoc)
	}
	shapes := []string{
		`<q>{ for $x in //a return $x//b }</q>`,
		`<q>{ for $x in //a return for $y in $x//b return $y }</q>`,
		`<q>{ for $x in /r/a return if (exists($x//a//b)) then <hit/> else () }</q>`,
		`<q>{ for $y in /r/x return if ($y//a//b/c = "v1") then <hit/> else <miss/> }</q>`,
		`<q>{ for $x in //a return for $y in $x//b return if (exists($x/e)) then (if ($y/c = "v1") then <hit/> else <miss/>) else (if ($y/c = "v2") then <hit/> else <miss/>) }</q>`,
		`<q>{ for $x in //a return for $y in $x//b return if (exists($x/e)) then (if ($y//d//f/c = "v1") then <hit/> else <miss/>) else (if ($y//d//f/c = "v2") then <hit/> else <miss/>) }</q>`,
		`<q>{ for $v in $root//*//* return text { "t" } }</q>`,
	}
	docs := []string{
		`<r><a><a><b/></a><b><c>v1</c></b></a></r>`,
		`<r><x><a><a><b><c>v1</c><c>v2</c></b></a></a></x></r>`,
		`<r><a><e/><a><b><c>v1</c><c>v2</c></b></a></a></r>`,
		`<r><a><e/><a><b><d><d><f><c>v1</c><c>v2</c></f></d></d></b></a></a></r>`,
	}
	for _, q := range shapes {
		for _, d := range docs {
			f.Add(q, d)
		}
	}
	f.Fuzz(func(t *testing.T, src, doc string) {
		if len(src) > 1<<10 || len(doc) > 4<<10 {
			return // keep one execution short; size finds nothing new here
		}
		c, err := engine.Compile(src, engine.Config{Mode: engine.ModeGCX})
		if err != nil || !oneWellFormedRoot(doc) {
			return
		}
		ref, err := engine.Compile(src, engine.Config{Mode: engine.ModeFullBuffer})
		if err != nil {
			t.Fatalf("GCX compiles but FullBuffer does not: %v\nquery: %q", err, src)
		}
		var want strings.Builder
		if _, err := ref.Run(strings.NewReader(doc), &want); err != nil {
			return // the tokenizer's own verdict; FuzzTokenizer covers it
		}
		var got strings.Builder
		if _, err := c.RunChecked(strings.NewReader(doc), &got); err != nil {
			t.Fatalf("solo run: %v\nquery: %q\ndoc: %q", err, src, doc)
		}
		if got.String() != want.String() {
			t.Fatalf("solo bytes differ from FullBuffer\nquery: %q\ndoc: %q\n got: %s\nwant: %s", src, doc, got.String(), want.String())
		}

		p, err := engine.NewPass([]*engine.Compiled{c, c, c})
		if err != nil {
			t.Fatalf("pass: %v", err)
		}
		outs := []*strings.Builder{{}, {}, {}}
		_, qs, err := p.RunChecked(strings.NewReader(doc), []io.Writer{outs[0], outs[1], outs[2]})
		if err != nil {
			t.Fatalf("3-member pass: %v\nquery: %q\ndoc: %q", err, src, doc)
		}
		for i, out := range outs {
			if qs[i].Err != nil || out.String() != want.String() {
				t.Fatalf("member %d (err %v) differs from solo\nquery: %q\ndoc: %q\n got: %s\nwant: %s", i, qs[i].Err, src, doc, out.String(), want.String())
			}
		}
	})
}

// oneWellFormedRoot reports whether encoding/xml, in strict mode, reads
// doc as exactly one root element with nothing but whitespace, comments
// and processing instructions around it.
func oneWellFormedRoot(doc string) bool {
	d := xml.NewDecoder(strings.NewReader(doc))
	d.Strict = true
	depth, roots := 0, 0
	for {
		tok, err := d.Token()
		if errors.Is(err, io.EOF) {
			return roots == 1 && depth == 0
		}
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				roots++
			}
			depth++
		case xml.EndElement:
			depth--
		case xml.CharData:
			if depth == 0 && len(bytes.TrimSpace(tok)) > 0 {
				return false
			}
		case xml.Directive:
			return false
		}
	}
}
