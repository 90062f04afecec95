package engine

import (
	"slices"
	"strings"
	"testing"

	"gcx/internal/dtd"
	"gcx/internal/xmarkdtd"
	"gcx/internal/xmlstream"
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
// tag; the evaluator decides the chain per binding, from the tag it
// holds. Output must match the schemaless run exactly.
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

const peopleDTD = `
<!ELEMENT site (regions, people)>
<!ELEMENT regions (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT people (person+)>
<!ELEMENT person (id, name, phone?)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
`

// peopleDoc is valid against peopleDTD: 50 items, then 500 persons, every
// third with a phone.
func peopleDoc() string {
	var b strings.Builder
	b.WriteString("<site><regions>")
	for i := 0; i < 50; i++ {
		b.WriteString("<item>pad</item>")
	}
	b.WriteString("</regions><people>")
	for i := 0; i < 500; i++ {
		b.WriteString("<person><id>i</id><name>n</name>")
		if i%3 == 0 {
			b.WriteString("<phone>p</phone>")
		}
		b.WriteString("</person>")
	}
	b.WriteString("</people></site>")
	return b.String()
}

// TestSchemaDecidedConditions: the evaluator decides an exists() chain
// from the tag of the binding it holds — proven when every link is a
// mandatory child, refuted at the first excluded link, otherwise left to
// the witness. Each case pins the output, which must equal the
// schema-less run's, and the tokens read, which show where a decided
// chain lets the run stop pulling.
func TestSchemaDecidedConditions(t *testing.T) {
	schema, err := dtd.Parse(peopleDTD)
	if err != nil {
		t.Fatal(err)
	}
	doc := peopleDoc()
	for _, tc := range []struct {
		name, src, out string
		tokens         int64
		// maxBuffered, if set, bounds the nodes ever buffered.
		maxBuffered int64
	}{
		{
			name:   "proven",
			src:    `<r>{ for $p in /site/people/person return if (exists($p/name)) then <y/> else <n/> }</r>`,
			out:    "<r>" + strings.Repeat("<y></y>", 500) + "</r>",
			tokens: 4656,
		},
		{
			name:   "refuted",
			src:    `<r>{ for $p in /site/people/person return if (exists($p/price)) then <y/> else <n/> }</r>`,
			out:    "<r>" + strings.Repeat("<n></n>", 500) + "</r>",
			tokens: 4656,
		},
		{
			// phone? is neither required nor excluded: the witness decides.
			name:   "optional",
			src:    `<r>{ for $p in /site/people/person return if (exists($p/phone)) then <y/> else <n/> }</r>`,
			out:    "<r>" + strings.Repeat("<y></y><n></n><n></n>", 166) + "<y></y><n></n>" + "</r>",
			tokens: 4656,
		},
		{
			// A descendant binder has no tag at compile time; each binding
			// (id, name, phone) is #PCDATA and so refutes name.
			name:   "descendant-binder",
			src:    `<r>{ for $p in //person/* return if (exists($p/name)) then <y/> else <n/> }</r>`,
			out:    "<r>" + strings.Repeat("<n></n>", 500*2+167) + "</r>",
			tokens: 4658,
		},
		{
			name:   "chain-proven",
			src:    `<r>{ for $s in /site return if (exists($s/people/person/name)) then <y/> else <n/> }</r>`,
			out:    "<r><y></y></r>",
			tokens: 1,
		},
		{
			name:   "chain-refuted",
			src:    `<r>{ for $s in /site return if (exists($s/people/person/price)) then <y/> else <n/> }</r>`,
			out:    "<r><n></n></r>",
			tokens: 1,
		},
		{
			// person+ then phone?: the chain has an optional link.
			name:   "chain-optional",
			src:    `<r>{ for $s in /site return if (exists($s/people/person/phone)) then <y/> else <n/> }</r>`,
			out:    "<r><y></y></r>",
			tokens: 162,
		},
		{
			// A star binder: each child of site decides the chain the
			// moment it opens (regions excludes person, person excludes
			// ghost), so no person is buffered as a candidate witness.
			name:        "star-binder-chain-refuted",
			src:         `<r>{ for $c in /site/* return if (exists($c/person/ghost)) then <y/> else <n/> }</r>`,
			out:         "<r><n></n><n></n></r>",
			tokens:      4656,
			maxBuffered: 5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plain, out strings.Builder
			if _, err := compile(t, tc.src, Config{Mode: ModeGCX}).RunChecked(strings.NewReader(doc), &plain); err != nil {
				t.Fatal(err)
			}
			st, err := compile(t, tc.src, Config{Mode: ModeGCX, Schema: schema}).RunChecked(strings.NewReader(doc), &out)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != plain.String() {
				t.Fatalf("schema changed the output:\nplain:  %.200s\nschema: %.200s", plain.String(), out.String())
			}
			if out.String() != tc.out {
				t.Errorf("output %.200s, want %.200s", out.String(), tc.out)
			}
			if st.TokensRead != tc.tokens {
				t.Errorf("read %d tokens, want %d", st.TokensRead, tc.tokens)
			}
			if tc.maxBuffered > 0 && st.Buffer.NodesAppended > tc.maxBuffered {
				t.Errorf("buffered %d nodes, want ≤ %d", st.Buffer.NodesAppended, tc.maxBuffered)
			}
		})
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
	// The schema answers by the symbols of a table bound to it, as a
	// run's is. CanContain answers (true, false) for an undeclared
	// element, so each check requires known as well: it fails when a
	// declaration is missing.
	syms := xmlstream.NewSymTab()
	schema.Bind(syms)
	for _, pc := range [][2]string{
		{"site", "closed_auctions"},
		{"closed_auctions", "closed_auction"},
		{"closed_auction", "seller"},
	} {
		if can, known := schema.CanContain(syms.Intern(pc[0]), syms.Intern(pc[1])); !can || !known {
			t.Fatalf("XMark DTD incomplete: CanContain(%s, %s) = %v, %v", pc[0], pc[1], can, known)
		}
	}
	dead := schema.NoMoreAfter(syms.Intern("site"), syms.Intern("open_auctions"))
	if !slices.Contains(dead, syms.Intern("people")) {
		t.Fatalf("XMark DTD must kill people after open_auctions: %v", dead)
	}
}
