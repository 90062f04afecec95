package engine

import (
	"strings"
	"testing"

	"gcx/internal/dtd"
	"gcx/internal/xmarkdtd"
)

const siteDTD = `
<!ELEMENT site (head, people, tail)>
<!ELEMENT head (meta*)>
<!ELEMENT meta (#PCDATA)>
<!ELEMENT people (person*)>
<!ELEMENT person (id, name)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT tail (noise*)>
<!ELEMENT noise (#PCDATA)>
`

func schemaDoc(persons, noise int) string {
	var b strings.Builder
	b.WriteString("<site><head><meta>m</meta></head><people>")
	for i := 0; i < persons; i++ {
		b.WriteString("<person><id>p</id><name>n</name></person>")
	}
	b.WriteString("</people><tail>")
	for i := 0; i < noise; i++ {
		b.WriteString("<noise>zzzzzzzz</noise>")
	}
	b.WriteString("</tail></site>")
	return b.String()
}

// TestSchemaEarlyTermination: with a DTD, a loop over /site/people/person
// stops as soon as <tail> opens (the content model kills people), instead
// of scanning the noise region — the schema capability of the FluX system
// the paper compares against.
func TestSchemaEarlyTermination(t *testing.T) {
	schema, err := dtd.Parse(siteDTD)
	if err != nil {
		t.Fatal(err)
	}
	src := `<q>{ for $p in /site/people/person return $p/name }</q>`
	doc := schemaDoc(50, 2000)

	plain := compile(t, src, Config{Mode: ModeGCX})
	var out1 strings.Builder
	stPlain, err := plain.RunChecked(strings.NewReader(doc), &out1)
	if err != nil {
		t.Fatal(err)
	}

	withSchema := compile(t, src, Config{Mode: ModeGCX, Schema: schema})
	var out2 strings.Builder
	stSchema, err := withSchema.RunChecked(strings.NewReader(doc), &out2)
	if err != nil {
		t.Fatal(err)
	}

	if out1.String() != out2.String() {
		t.Fatalf("schema must not change results:\nplain:  %.200s\nschema: %.200s", out1.String(), out2.String())
	}
	// Without the schema the whole stream is scanned; with it, the tail's
	// ~4000 tokens are skipped.
	if stPlain.TokensRead < 4000 {
		t.Fatalf("plain run read %d tokens; expected a full scan", stPlain.TokensRead)
	}
	if stSchema.TokensRead*5 > stPlain.TokensRead {
		t.Fatalf("schema run read %d of %d tokens; expected early termination",
			stSchema.TokensRead, stPlain.TokensRead)
	}
}

// TestSchemaCanContainShortcut: a loop over a child the content model
// excludes terminates immediately without pulling input.
func TestSchemaCanContainShortcut(t *testing.T) {
	schema, err := dtd.Parse(siteDTD)
	if err != nil {
		t.Fatal(err)
	}
	// people cannot contain ghost elements.
	src := `<q>{ for $p in /site/people return for $g in $p/ghost return $g }</q>`
	doc := schemaDoc(5, 2000)
	c := compile(t, src, Config{Mode: ModeGCX, Schema: schema})
	var out strings.Builder
	st, err := c.RunChecked(strings.NewReader(doc), &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "<q></q>" {
		t.Fatalf("output: %s", out.String())
	}
	// The run still scans for more people sections... no: after tail
	// opens, people is dead; after tail, site ends. The ghost loops never
	// block. Token count must stay well below the full document.
	if st.TokensRead*3 > int64(strings.Count(doc, "<")) {
		t.Fatalf("read %d tokens for a schema-refuted loop", st.TokensRead)
	}
}

// TestSchemaProvenExistsStopsPulling: when the DTD proves an existence
// chain (every link mandatory), the condition is answered the moment its
// context binding opens — the run neither pulls toward a witness deep in
// the document nor scans past what the loops still need.
func TestSchemaProvenExistsStopsPulling(t *testing.T) {
	schema, err := dtd.Parse(`
<!ELEMENT root (a)>
<!ELEMENT a (pad*, x)>
<!ELEMENT pad (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<root><a>")
	for i := 0; i < 2000; i++ {
		b.WriteString("<pad>zzzzzzzz</pad>")
	}
	b.WriteString("<x>t</x></a></root>")
	doc := b.String()
	src := `<q>{ for $r in /root return if (exists($r/a/x)) then <y/> else <n/> }</q>`

	plain := compile(t, src, Config{Mode: ModeGCX})
	var out1 strings.Builder
	stPlain, err := plain.RunChecked(strings.NewReader(doc), &out1)
	if err != nil {
		t.Fatal(err)
	}
	withSchema := compile(t, src, Config{Mode: ModeGCX, Schema: schema})
	var out2 strings.Builder
	stSchema, err := withSchema.RunChecked(strings.NewReader(doc), &out2)
	if err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("schema must not change results:\nplain:  %s\nschema: %s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "<y>") {
		t.Fatalf("x exists, want the then-branch: %s", out1.String())
	}
	// Plain evaluation hunts the witness through the pad region; the
	// proven condition needs no witness at all.
	if stPlain.TokensRead < 4000 {
		t.Fatalf("plain run read %d tokens; expected a witness hunt", stPlain.TokensRead)
	}
	if stSchema.TokensRead*10 > stPlain.TokensRead {
		t.Fatalf("schema run read %d of %d tokens; expected no witness hunt",
			stSchema.TokensRead, stPlain.TokensRead)
	}
}

// TestSchemaRefutedExistsStopsPulling: when the content model excludes
// the checked child, the else-branch is emitted immediately and the run
// stops pulling — plain evaluation must scan to the region's end to prove
// the negative.
func TestSchemaRefutedExistsStopsPulling(t *testing.T) {
	schema, err := dtd.Parse(siteDTD)
	if err != nil {
		t.Fatal(err)
	}
	src := `<q>{ for $s in /site return if (exists($s/ghost)) then <y/> else <n/> }</q>`
	doc := schemaDoc(5, 2000)

	plain := compile(t, src, Config{Mode: ModeGCX})
	var out1 strings.Builder
	stPlain, err := plain.RunChecked(strings.NewReader(doc), &out1)
	if err != nil {
		t.Fatal(err)
	}
	withSchema := compile(t, src, Config{Mode: ModeGCX, Schema: schema})
	var out2 strings.Builder
	stSchema, err := withSchema.RunChecked(strings.NewReader(doc), &out2)
	if err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("schema must not change results:\nplain:  %s\nschema: %s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "<n>") {
		t.Fatalf("no ghost exists, want the else-branch: %s", out1.String())
	}
	if stPlain.TokensRead < 4000 {
		t.Fatalf("plain run read %d tokens; expected a scan to prove absence", stPlain.TokensRead)
	}
	if stSchema.TokensRead*10 > stPlain.TokensRead {
		t.Fatalf("schema run read %d of %d tokens; expected an immediate answer",
			stSchema.TokensRead, stPlain.TokensRead)
	}
}

// TestSchemaDynamicBinderAgrees: a star binder has no statically known
// tag, so the compile-time rewrite cannot fire; the evaluator's runtime
// MustContain check answers per binding instead. Output must match the
// schemaless run exactly.
func TestSchemaDynamicBinderAgrees(t *testing.T) {
	schema, err := dtd.Parse(`
<!ELEMENT root (a, b)>
<!ELEMENT a (pad*, x)>
<!ELEMENT b (x)>
<!ELEMENT pad (#PCDATA)>
<!ELEMENT x (#PCDATA)>
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<root><a>")
	for i := 0; i < 200; i++ {
		b.WriteString("<pad>zzzzzzzz</pad>")
	}
	b.WriteString("<x>t</x></a><b><x>u</x></b></root>")
	doc := b.String()
	src := `<q>{ for $c in /root/* return if (exists($c/x)) then <y/> else <n/> }</q>`

	plain := compile(t, src, Config{Mode: ModeGCX})
	var out1 strings.Builder
	if _, err := plain.RunChecked(strings.NewReader(doc), &out1); err != nil {
		t.Fatal(err)
	}
	withSchema := compile(t, src, Config{Mode: ModeGCX, Schema: schema})
	var out2 strings.Builder
	if _, err := withSchema.RunChecked(strings.NewReader(doc), &out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("schema must not change results:\nplain:  %s\nschema: %s", out1.String(), out2.String())
	}
	if want := "<q><y></y><y></y></q>"; out1.String() != want {
		t.Fatalf("got %s, want %s", out1.String(), want)
	}
}

// TestSchemaAgreesOnXMark: all five benchmark queries produce identical
// output with and without the XMark DTD, while reading no more tokens.
func TestSchemaAgreesOnXMark(t *testing.T) {
	// The output-equality check on generated data lives in the queries
	// package tests; here we check the DTD itself parses and covers the
	// site structure.
	schema, err := dtd.Parse(xmarkdtd.DTD)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Declared("site") || !schema.Declared("closed_auction") {
		t.Fatal("XMark DTD incomplete")
	}
	dead := schema.NoMoreAfter("site", "open_auctions")
	found := false
	for _, d := range dead {
		if d == "people" {
			found = true
		}
	}
	if !found {
		t.Fatalf("XMark DTD must kill people after open_auctions: %v", dead)
	}
}
