package corpus

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"gcx/internal/xmark"
)

// The states referenceSplit steps through, one byte at a time.
const (
	spText        = iota // character data (inside or outside the root)
	spLT                 // just consumed '<'
	spBang               // "<!"
	spBangSeq            // matching the tail of "<!--" or "<![CDATA["
	spComment            // inside a comment, matching "-->"
	spPI                 // inside a PI / XML declaration, matching "?>"
	spCDATA              // inside CDATA, matching "]]>"
	spDecl               // inside a DOCTYPE/markup declaration, depth-counted
	spDeclQuote          // inside a quoted literal of a declaration
	spDeclComment        // inside a comment within an internal subset
	spDeclPI             // inside a PI within an internal subset
	spTag                // inside a start or end tag
	spTagQuote           // inside a quoted attribute value
)

var (
	seqComment = "-"      // after "<!-": one more '-' completes "<!--"
	seqCDATA   = "CDATA[" // after "<![": the rest of "<![CDATA["
)

// splitAll drains the splitter, returning the documents and the
// terminating error (io.EOF for a clean end). Per-document
// *DocTooLargeError failures are recorded as empty-string slots.
func splitAll(t *testing.T, input string, maxDoc int64) ([]string, error) {
	t.Helper()
	sp := NewSplitter(strings.NewReader(input))
	sp.SetMaxDocBytes(maxDoc)
	var docs []string
	var buf []byte
	for {
		d, err := sp.Next(buf)
		var tooBig *DocTooLargeError
		if errors.As(err, &tooBig) {
			docs = append(docs, "")
			continue
		}
		if err != nil {
			return docs, err
		}
		docs = append(docs, string(d))
		buf = d
	}
}

// boundaryCases are TestSplitterBoundaries' streams with the framing each
// must get.
var boundaryCases = []struct {
	name  string
	input string
	want  []string
}{
	{"empty", "", nil},
	{"whitespace only", " \n\t ", nil},
	{"single", "<a><b>x</b></a>", []string{"<a><b>x</b></a>"}},
	{"two adjacent", "<a/><b/>", []string{"<a/>", "<b/>"}},
	{"newline separated", "<a>1</a>\n<b>2</b>\n", []string{"<a>1</a>", "<b>2</b>"}},
	{"prolog attribution", `<?xml version="1.0"?><a/><?xml version="1.0"?><b/>`,
		[]string{`<?xml version="1.0"?><a/>`, `<?xml version="1.0"?><b/>`}},
	{"comment between docs joins the next", "<a/><!-- note --><b/>",
		[]string{"<a/>", "<!-- note --><b/>"}},
	{"trailing comment discarded", "<a/><!-- bye -->", []string{"<a/>"}},
	{"trailing PI discarded", "<a/><?pi data?>", []string{"<a/>"}},
	{"doctype prolog", "<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/><b/>",
		[]string{"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>", "<b/>"}},
	{"doctype entity value with angle brackets", `<!DOCTYPE a [<!ENTITY lt "<">]><a/><b/><c/>`,
		[]string{`<!DOCTYPE a [<!ENTITY lt "<">]><a/>`, "<b/>", "<c/>"}},
	{"doctype subset comment with apostrophe", "<!DOCTYPE a [<!-- don't -->]><a/><b/>",
		[]string{"<!DOCTYPE a [<!-- don't -->]><a/>", "<b/>"}},
	{"doctype subset comment with brackets", "<!DOCTYPE a [<!-- <x> \" > -->]><a/><b/>",
		[]string{"<!DOCTYPE a [<!-- <x> \" > -->]><a/>", "<b/>"}},
	{"doctype subset pi with quote", "<!DOCTYPE a [<?p don't ?>]><a/><b/>",
		[]string{"<!DOCTYPE a [<?p don't ?>]><a/>", "<b/>"}},
	{"gt inside attribute value", `<a x="1>2"><c/></a><b/>`,
		[]string{`<a x="1>2"><c/></a>`, "<b/>"}},
	{"gt inside single-quoted attr", `<a x='>'/><b/>`, []string{`<a x='>'/>`, "<b/>"}},
	{"fake close tag inside comment", "<a><!-- </a> --></a><b/>",
		[]string{"<a><!-- </a> --></a>", "<b/>"}},
	{"fake tags inside CDATA", "<a><![CDATA[</a><z>]]></a><b/>",
		[]string{"<a><![CDATA[</a><z>]]></a>", "<b/>"}},
	{"cdata bracket edges", "<a><![CDATA[x]]]]><![CDATA[>y]]></a><b/>",
		[]string{"<a><![CDATA[x]]]]><![CDATA[>y]]></a>", "<b/>"}},
	{"bom between docs", "\xEF\xBB\xBF<a/>\n\xEF\xBB\xBF<b/>", []string{"<a/>", "<b/>"}},
	{"truncated final doc", "<a/><b><c>", []string{"<a/>", "<b><c>"}},
	{"truncated mid tag", "<a/><b", []string{"<a/>", "<b"}},
	{"truncated comment surfaces", "<a/><!--oops", []string{"<a/>", "<!--oops"}},
	{"junk tail surfaces", "<a/>junk", []string{"<a/>", "junk"}},
	{"self-closing root with attrs", `<a x="1" y='2'/><b/>`,
		[]string{`<a x="1" y='2'/>`, "<b/>"}},
	{"nested same-name elements", "<a><a></a></a><a/>",
		[]string{"<a><a></a></a>", "<a/>"}},
	{"pi inside doc", "<a><?target d?></a><b/>", []string{"<a><?target d?></a>", "<b/>"}},
	{"question mark inside pi", "<a/><?p a?b??><b/>", []string{"<a/>", "<?p a?b??><b/>"}},
	{"dashes in comment", "<a><!-- - -- ---></a><b/>",
		[]string{"<a><!-- - -- ---></a>", "<b/>"}},
}

func TestSplitterBoundaries(t *testing.T) {
	for _, tc := range boundaryCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := splitAll(t, tc.input, 0)
			if err != io.EOF {
				t.Fatalf("terminated with %v, want io.EOF", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d docs %q, want %d %q", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("doc %d:\n got %q\nwant %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestSplitterMaxDocBytes(t *testing.T) {
	big := "<big>" + strings.Repeat("x", 100) + "</big>"
	input := "<a>1</a>" + big + "<b>2</b>"
	docs, err := splitAll(t, input, 32)
	if err != io.EOF {
		t.Fatalf("terminated with %v", err)
	}
	want := []string{"<a>1</a>", "", "<b>2</b>"}
	if len(docs) != len(want) {
		t.Fatalf("got %q, want %q", docs, want)
	}
	for i := range want {
		if docs[i] != want[i] {
			t.Errorf("doc %d: got %q, want %q", i, docs[i], want[i])
		}
	}
}

func TestSplitterSmallReads(t *testing.T) {
	// One byte per Read: every construct crosses a refill, including
	// the BOM and opener lookahead, which grow the window.
	input := "\xEF\xBB\xBF<?xml version=\"1.0\"?><a x=\">\"><![CDATA[]]>]]></a> \xEF\xBB\xBF<b><!-- -- --></b>"
	sp := NewSplitter(iotest{r: strings.NewReader(input)})
	var docs []string
	for {
		d, err := sp.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(d))
	}
	want := []string{`<?xml version="1.0"?><a x=">"><![CDATA[]]>]]></a>`, "<b><!-- -- --></b>"}
	if len(docs) != 2 || docs[0] != want[0] || docs[1] != want[1] {
		t.Fatalf("got %q, want %q", docs, want)
	}
}

// iotest yields one byte per Read call.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestSplitterZeroByteReads: the io.Reader contract permits (0, nil)
// returns; the BOM lookahead, which grows the window, must retry them
// like a slide, not leak an inter-document BOM into the following
// document.
func TestSplitterZeroByteReads(t *testing.T) {
	sp := NewSplitter(&stutterReader{r: iotest{r: strings.NewReader("<a/>\xEF\xBB\xBF<b/>")}})
	var docs []string
	for {
		d, err := sp.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(d))
	}
	want := []string{"<a/>", "<b/>"}
	if len(docs) != 2 || docs[0] != want[0] || docs[1] != want[1] {
		t.Fatalf("got %q, want %q", docs, want)
	}
}

// stutterReader returns (0, nil) before every real read.
type stutterReader struct {
	r    io.Reader
	tick bool
}

func (s *stutterReader) Read(p []byte) (int, error) {
	s.tick = !s.tick
	if s.tick {
		return 0, nil
	}
	return s.r.Read(p)
}

func TestSplitterReadErrorIsTerminal(t *testing.T) {
	boom := errors.New("disk gone")
	sp := NewSplitter(io.MultiReader(strings.NewReader("<a/><b>"), errReader{boom}))
	if d, err := sp.Next(nil); err != nil || string(d) != "<a/>" {
		t.Fatalf("first doc: %q, %v", d, err)
	}
	if _, err := sp.Next(nil); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the read error", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// capReader yields at most k bytes per Read, bounding the splitter's
// window so interior runs straddle refills at every offset.
type capReader struct {
	r io.Reader
	k int
}

func (c capReader) Read(p []byte) (int, error) {
	if c.k > 0 && len(p) > c.k {
		p = p[:c.k]
	}
	return c.r.Read(p)
}

// TestSplitterBoundarySizeSweep: hopping and run-scanning (tags, quoted
// values, character data, comment, PI and CDATA interiors) must frame
// identically whether a run arrives whole or split at any refill
// boundary, and exactly as the per-byte reference machine frames it. The
// streams — one built to put every kind of interior across a boundary,
// every seed of FuzzSplit and case of TestSplitterBoundaries, and the
// terminators at the index's block edges — are framed at read sizes 1,
// 2, 7, the structural index's 64-byte block edges (63/64/65/127/128),
// 4096, and unbounded, with and without a size cap.
func TestSplitterBoundarySizeSweep(t *testing.T) {
	inputs := []string{
		strings.Join([]string{
			`<?xml version="1.0"?><!DOCTYPE a [<!ENTITY gt ">"><!-- <c> --><?p >?>]><a k="x > y">text<!-- ` + strings.Repeat("-", 97) + ` --><![CDATA[ ]] >]] ` + strings.Repeat("]", 41) + `]]></a>`,
			`<b><inner attr='<">' x="&amp;"/>` + strings.Repeat("run of text without any markup at all ", 60) + `</b>`,
			`<c/>`,
			`<d><?pi ` + strings.Repeat("?", 33) + `?><e f="g"></e></d>`,
		}, "\n"),
		"<a><b>x</b></a><c/>",
		"<a/><!-- between --><?pi?><b/>",
		"<!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a><b>u</b>",
		"<a/><b><truncated>",
		"\xEF\xBB\xBF<a/>\xEF\xBB\xBF<b/>",
		"<a><![CDATA[x]]]]><![CDATA[>]]></a><b/>",
		`<a x="1>2" y='</a>'><c/></a><b/>`,
		"<a><!-- ---></a><b/>",
		"<a/>junk<b/>",
		"<q1>text&amp;more</q1>\n<q2 attr=\"v\"/>",
		`<!DOCTYPE a [<!ENTITY lt "<"><!-- don't --><?p '> ?>]><a/><b/>`,
		`<a><b x="y"/ ><c / ><d x="/"><e/></d></a><<f>></<g/></>`,
		strings.Repeat(`<r><s t="`+strings.Repeat("v", 61)+`"/>`+strings.Repeat(" ", 59)+`</r>`, 3),
	}
	for _, tc := range boundaryCases {
		inputs = append(inputs, tc.input)
	}
	inputs = append(inputs, terminatorEdgeStreams()...)
	for _, in := range inputs {
		checkAgainstReference(t, []byte(in), 0)
		checkAgainstReference(t, []byte(in), 24)
	}
}

// TestSplitterHopsElementStructure: inside a root element the splitter
// takes no byte one at a time — it hops from '<' to '>' to '<' on the
// structural index, Window.Skip hops a comment, PI or CDATA section to
// its '>', and it copies what it passed once per window. The only bytes
// it compares singly are the at most seven after a "<!" that tell a
// comment or CDATA section from a declaration. The document arrives in
// one read, so no construct straddles a refill.
func TestSplitterHopsElementStructure(t *testing.T) {
	var gen bytes.Buffer
	if _, err := xmark.Generate(&gen, xmark.Config{Factor: xmark.FactorForSize(32 << 10), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	interior := strings.Repeat("interior - ? ] > < text ", 40)
	opaque := []string{"<!--" + interior + "-->", "<?pi " + interior + "?>", "<![CDATA[" + interior + "]]>"}
	doc := bytes.TrimSpace(gen.Bytes())
	for _, o := range opaque {
		at := bytes.LastIndex(doc, []byte("</"))
		doc = append(doc[:at:at], append([]byte(o), doc[at:]...)...)
	}
	sp := NewSplitter(bytes.NewReader(doc))
	got, err := sp.Next(nil)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("framed %d of %d bytes, err %v", len(got), len(doc), err)
	}
	const perOpener = len("<![CDATA[") - len("<!")
	if max := int64(perOpener * len(opaque)); sp.steppedInRoot == 0 || sp.steppedInRoot > max {
		t.Errorf("%d bytes of a %d-byte document with %d opaque regions were taken one at a time inside the root, want 1 to %d",
			sp.steppedInRoot, len(doc), len(opaque), max)
	}
}
