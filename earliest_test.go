package gcx

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

// This file pins the certainty edges of earliest answering with
// differential tests: documents crafted so that the moment a condition
// becomes decidable sits exactly on an awkward boundary (last event of
// the document, schema refutation, overlapping descendant
// regions). Each case is run across a spread of read-window sizes — so
// every token boundary eventually coincides with a refill boundary —
// and byte-compared against a solo run over the document as encoding/xml
// reads it (canonical). Emitting at the earliest certain moment must never change a
// single output byte, no matter how the input is sliced.

// earliestWindows are the read chunk sizes the differential runs cycle
// through: pathological (1, 2, 7), around small powers of two, the
// tokenizer's own window, and 0 meaning "whole document at once".
var earliestWindows = []int{1, 2, 7, 64, 1024, 64 << 10, 0}

// windowReader serves at most k bytes per Read call, forcing the
// tokenizer to refill at positions unrelated to token boundaries.
type windowReader struct {
	data []byte
	k    int
	off  int
}

func (r *windowReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := len(r.data) - r.off
	if r.k > 0 && n > r.k {
		n = r.k
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

// canonical re-serializes doc as the engine reads it, but read by
// encoding/xml (Strict, RawToken), which shares no code with the engine's
// scanner: each attribute becomes a leading subelement (Sections 2 and
// 7), whitespace-only character data outside CDATA is dropped, comments,
// PIs and declarations are skipped, and the tokens are written back out
// by the Writer. Running the engine over this canonical form is the
// independently read solo run every windowed run is compared against.
func canonical(t *testing.T, doc []byte) []byte {
	t.Helper()
	d := xml.NewDecoder(bytes.NewReader(doc))
	d.Strict = true
	name := func(n xml.Name) string {
		if n.Space != "" {
			return n.Space + ":" + n.Local
		}
		return n.Local
	}
	var out bytes.Buffer
	w := xmlstream.NewWriter(&out)
	for {
		at := d.InputOffset()
		tok, err := d.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("encoding/xml: %v", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			w.StartElement(name(tok.Name))
			for _, a := range tok.Attr {
				w.StartElement(name(a.Name))
				w.Text(a.Value)
				w.EndElement(name(a.Name))
			}
		case xml.EndElement:
			w.EndElement(name(tok.Name))
		case xml.CharData:
			if bytes.HasPrefix(doc[at:], []byte("<![CDATA[")) || len(bytes.Trim(tok, " \t\r\n")) > 0 {
				w.Text(string(tok))
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("canonical serialize: %v", err)
	}
	return out.Bytes()
}

// runWindowed executes eng over doc served k bytes per read, through an
// eager first-result sink, and returns the output bytes and stats.
func runWindowed(t *testing.T, eng *Engine, doc []byte, k int) ([]byte, Stats, *earliestSink) {
	t.Helper()
	cr := &countingReader{r: &windowReader{data: doc, k: k}}
	sink := &earliestSink{inputPos: &cr.n}
	st, err := eng.Run(cr, sink)
	if err != nil {
		t.Fatalf("window %d: %v", k, err)
	}
	return sink.buf.Bytes(), st, sink
}

// differentialEarliest asserts that eng produces byte-identical output
// and deterministic stats over doc at every window size, and that the
// windowed outputs match a solo run over the canonical document. Returns the agreed output.
func differentialEarliest(t *testing.T, eng *Engine, doc []byte) []byte {
	t.Helper()
	canon := canonical(t, doc)
	wantOut, wantSt, _ := runWindowed(t, eng, canon, 0)
	wantDet := wantSt.Deterministic()
	for _, k := range earliestWindows {
		out, st, sink := runWindowed(t, eng, doc, k)
		if !bytes.Equal(out, wantOut) {
			t.Fatalf("window %d: output diverged from the canonical solo run:\n got %q\nwant %q", k, out, wantOut)
		}
		if len(out) > 0 && sink.flushes == 0 {
			t.Fatalf("window %d: output produced but first-result flush never fired", k)
		}
		if det := st.Deterministic(); det != wantDet {
			t.Fatalf("window %d: stats diverged:\n got %+v\nwant %+v", k, det, wantDet)
		}
	}
	return wantOut
}

// TestEarliestWitnessIsLastEvent drives the existence decision to the
// final events of the document: the witness (or the proof of its
// absence, the closing root tag) arrives last, after a long run of
// irrelevant siblings. Whatever the engine does to answer early must
// degrade gracefully to "answer at the very end" without corrupting or
// duplicating output, at every refill alignment.
func TestEarliestWitnessIsLastEvent(t *testing.T) {
	const query = `<r>{ for $x in /root return if (exists($x/flag)) then <y/> else <n/> }</r>`
	eng, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("<pad>xxxxxxxx</pad>", 3000)

	// Witness is the last child: certainty arrives with the final start tag.
	late := []byte("<root>" + pad + "<flag></flag></root>")
	if got := differentialEarliest(t, eng, late); string(got) != "<r><y></y></r>" {
		t.Fatalf("late witness: got %q", got)
	}
	// No witness at all: only </root> — the last event — decides the else
	// branch.
	never := []byte("<root>" + pad + "</root>")
	if got := differentialEarliest(t, eng, never); string(got) != "<r><n></n></r>" {
		t.Fatalf("absent witness: got %q", got)
	}
}

// TestEarliestNeverMatchSchemaStopsPulling pins the schema edge:
// when the DTD proves the tested child can never occur, the engine must
// emit the refuted branch without waiting for a witness that cannot come
// — and must stop pulling input once the output is complete. The output
// bytes must be identical to the schema-less run at every window size;
// only WHEN they are produced (and how many tokens are read) may differ.
func TestEarliestNeverMatchSchemaStopsPulling(t *testing.T) {
	const docDTD = `
		<!ELEMENT root (item*)>
		<!ELEMENT item (#PCDATA)>
	`
	const query = `<r>{ for $x in /root return if (exists($x/ghost)) then <y/> else <n/> }</r>`
	var doc bytes.Buffer
	doc.WriteString("<root>")
	for i := 0; i < 4000; i++ {
		doc.WriteString("<item>v</item>")
	}
	doc.WriteString("</root>")

	plain, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := Compile(query, WithDTD(docDTD))
	if err != nil {
		t.Fatal(err)
	}

	plainOut := differentialEarliest(t, plain, doc.Bytes())
	schemaOut := differentialEarliest(t, schema, doc.Bytes())
	if !bytes.Equal(plainOut, schemaOut) {
		t.Fatalf("schema changed output bytes:\n plain %q\nschema %q", plainOut, schemaOut)
	}
	if string(schemaOut) != "<r><n></n></r>" {
		t.Fatalf("refuted exists: got %q", schemaOut)
	}

	// The schema run must not scan the 4000 items waiting for a ghost:
	// the refutation is known before the first item arrives.
	_, plainSt, _ := runWindowed(t, plain, doc.Bytes(), 0)
	_, schemaSt, _ := runWindowed(t, schema, doc.Bytes(), 0)
	if schemaSt.TokensRead*10 > plainSt.TokensRead {
		t.Fatalf("schema run still scanned the document: %d tokens vs %d plain",
			schemaSt.TokensRead, plainSt.TokensRead)
	}
}

// TestEarliestFirstWitnessUnderOverlappingDescendants exercises the
// [position()=1] first-witness cursor (the internal marker exists()
// dependencies carry) where descendant regions overlap: nested <a>
// bindings share their inner <b> descendants, so a single event is the
// first witness for SEVERAL live bindings at once, and a later <b> must
// satisfy one binding without being double-counted for another. The
// cursor may answer as soon as its witness opens; it must still agree
// byte-for-byte with the canonical solo run at every window size.
func TestEarliestFirstWitnessUnderOverlappingDescendants(t *testing.T) {
	const query = `<r>{ for $x in /root//a return if (exists($x//b)) then <y/> else <n/> }</r>`
	eng, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}

	// One <b>, witness for both overlapping bindings simultaneously.
	shared := []byte(`<root><a><a><b>w</b></a></a></root>`)
	if got := differentialEarliest(t, eng, shared); string(got) != `<r><y></y><y></y></r>` {
		t.Fatalf("shared witness: got %q", got)
	}

	// The outer region's witness lives inside the nested one; a second,
	// later <b> in the outer region must not produce extra answers.
	doc := []byte(`<root><a><c>skip</c><a><b>inner</b></a><b>late</b></a></root>`)
	if got := differentialEarliest(t, eng, doc); string(got) != `<r><y></y><y></y></r>` {
		t.Fatalf("overlapping witnesses: got %q", got)
	}

	// Witness satisfies only the sibling binding: the nested pair has no
	// <b> anywhere, so its answers must flip to the else branch without
	// borrowing the sibling's witness.
	split := []byte(`<root><a><a><c>x</c></a></a><a><b>two</b></a></root>`)
	if got := differentialEarliest(t, eng, split); string(got) != `<r><n></n><n></n><y></y></r>` {
		t.Fatalf("split regions: got %q", got)
	}
}
