package dtd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

const xmarkSiteDTD = `
<!-- XMark top level -->
<!ELEMENT site (regions, categories, catgraph, people, open_auctions, closed_auctions)>
<!ELEMENT regions (africa, asia, australia, europe, namerica, samerica)>
<!ELEMENT people (person*)>
<!ATTLIST person id ID #REQUIRED>
<!ELEMENT person (name, emailaddress, phone?, address?, homepage?, creditcard?, profile, watches?)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT mixed (#PCDATA | em | strong)*>
<!ELEMENT anything ANY>
<!ELEMENT nothing EMPTY>
<!ELEMENT choiceplus ((a | b)+, c?)>
`

// bound asks a schema by name through a symbol table bound to it, as a
// run does. A name the schema does not know is interned on first use,
// after Bind, which is how a document's tags reach a run's table.
type bound struct {
	s    *Schema
	syms *xmlstream.SymTab
}

func parse(t *testing.T, src string) bound {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	syms := xmlstream.NewSymTab()
	s.Bind(syms)
	return bound{s, syms}
}

func (b bound) sym(name string) xmlstream.Sym { return b.syms.Intern(name) }

func (b bound) CanContain(elem, child string) (can, known bool) {
	return b.s.CanContain(b.sym(elem), b.sym(child))
}

func (b bound) MustContain(elem, child string) bool {
	return b.s.MustContain(b.sym(elem), b.sym(child))
}

func (b bound) ContentComplete(elem, seen string) bool {
	return b.s.ContentComplete(b.sym(elem), b.sym(seen))
}

func (b bound) EmptyElement(elem string) bool { return b.s.EmptyElement(b.sym(elem)) }

// NoMoreAfter returns the dead tags' names, or nil where the schema
// returns nil.
func (b bound) NoMoreAfter(elem, seen string) []string {
	var names []string
	for _, d := range b.s.NoMoreAfter(b.sym(elem), b.sym(seen)) {
		names = append(names, b.syms.Name(d))
	}
	return names
}

// unknown reports whether name was interned after Bind, past every tag
// the schema numbers.
func (b bound) unknown(name string) bool { return int(b.sym(name)) > b.s.syms.Len() }

func noMoreContains(s bound, elem, seen, dead string) bool {
	return slices.Contains(s.NoMoreAfter(elem, seen), dead)
}

func TestSequenceFacts(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// After open_auctions, no more people / regions / categories.
	for _, dead := range []string{"people", "regions", "categories", "catgraph", "open_auctions"} {
		if !noMoreContains(s, "site", "open_auctions", dead) {
			t.Fatalf("after open_auctions, %s must be dead: %v", dead, s.NoMoreAfter("site", "open_auctions"))
		}
	}
	// closed_auctions can still come.
	if noMoreContains(s, "site", "open_auctions", "closed_auctions") {
		t.Fatal("closed_auctions must still be possible after open_auctions")
	}
	// After regions, everything later is still possible.
	if noMoreContains(s, "site", "regions", "people") {
		t.Fatal("people must still be possible after regions")
	}
	// A strict sequence admits no repetition: regions is dead after itself.
	if !noMoreContains(s, "site", "regions", "regions") {
		t.Fatal("a second regions must be impossible")
	}
}

func TestStarAllowsRepetition(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// person* repeats: person is never dead after person.
	if noMoreContains(s, "people", "person", "person") {
		t.Fatal("person* must allow more persons")
	}
}

func TestOptionalSequence(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// In person: after profile, phone/address/... are dead, watches not.
	for _, dead := range []string{"name", "emailaddress", "phone", "address", "homepage", "creditcard"} {
		if !noMoreContains(s, "person", "profile", dead) {
			t.Fatalf("after profile, %s must be dead", dead)
		}
	}
	if noMoreContains(s, "person", "profile", "watches") {
		t.Fatal("watches must still be possible after profile")
	}
	// After phone, address can still come (phone? address?).
	if noMoreContains(s, "person", "phone", "address") {
		t.Fatal("address must still be possible after phone")
	}
	// ...but not the other way around.
	if !noMoreContains(s, "person", "address", "phone") {
		t.Fatal("phone must be dead after address")
	}
}

func TestChoice(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// description (text | parlist): after text, parlist is dead.
	if !noMoreContains(s, "description", "text", "parlist") {
		t.Fatal("parlist must be dead after text (exclusive choice)")
	}
	if !noMoreContains(s, "description", "text", "text") {
		t.Fatal("a second text must be dead (no repetition)")
	}
}

func TestChoicePlus(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// ((a|b)+, c?): a and b repeat and interleave; c ends everything.
	if noMoreContains(s, "choiceplus", "a", "b") || noMoreContains(s, "choiceplus", "b", "a") {
		t.Fatal("(a|b)+ must allow interleaving")
	}
	if noMoreContains(s, "choiceplus", "a", "c") {
		t.Fatal("c must be possible after a")
	}
	for _, dead := range []string{"a", "b", "c"} {
		if !noMoreContains(s, "choiceplus", "c", dead) {
			t.Fatalf("%s must be dead after c", dead)
		}
	}
}

func TestMixedContent(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	// (#PCDATA | em | strong)*: nothing is ever dead.
	if len(s.NoMoreAfter("mixed", "em")) != 0 {
		t.Fatalf("mixed content must derive no facts: %v", s.NoMoreAfter("mixed", "em"))
	}
	can, known := s.CanContain("mixed", "em")
	if !can || !known {
		t.Fatal("mixed content must report em as possible")
	}
	can, known = s.CanContain("mixed", "div")
	if can || !known {
		t.Fatal("mixed content must exclude undeclared children")
	}
}

func TestAnyAndUndeclared(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	for _, name := range []string{"whatever", "ghost", "x"} {
		if !s.unknown(name) {
			t.Fatalf("%s must be interned after Bind", name)
		}
	}
	if _, known := s.CanContain("anything", "whatever"); known {
		t.Fatal("ANY content must yield no facts")
	}
	if _, known := s.CanContain("ghost", "x"); known {
		t.Fatal("undeclared elements must yield no facts")
	}
	if s.NoMoreAfter("anything", "x") != nil || s.NoMoreAfter("ghost", "x") != nil {
		t.Fatal("no ordering facts for ANY/undeclared")
	}
}

func TestCanContain(t *testing.T) {
	s := parse(t, xmarkSiteDTD)
	can, known := s.CanContain("site", "people")
	if !can || !known {
		t.Fatal("site must contain people")
	}
	can, known = s.CanContain("site", "person")
	if can || !known {
		t.Fatal("site must not directly contain person")
	}
	// EMPTY elements contain nothing.
	can, known = s.CanContain("nothing", "x")
	if can || !known {
		t.Fatal("EMPTY must contain nothing")
	}
}

func TestMustContain(t *testing.T) {
	s := parse(t, xmarkSiteDTD+`
<!ELEMENT afterchoice (x, (y | z))>
<!ELEMENT everybranch (x | (y, x))>
`)
	cases := []struct {
		elem, child string
		want        bool
	}{
		// A strict sequence of required children: every one is mandatory.
		{"site", "regions", true},
		{"site", "people", true},
		{"site", "closed_auctions", true},
		// Required vs optional members of the person sequence.
		{"person", "name", true},
		{"person", "profile", true},
		{"person", "phone", false},
		{"person", "watches", false},
		// person* is nullable: an empty people is valid.
		{"people", "person", false},
		// Exclusive choice: either branch can be avoided.
		{"description", "text", false},
		{"description", "parlist", false},
		// (a|b)+ guarantees a child but no PARTICULAR tag.
		{"choiceplus", "a", false},
		{"choiceplus", "b", false},
		{"choiceplus", "c", false},
		// Mixed content is nullable.
		{"mixed", "em", false},
		// ANY, EMPTY, and undeclared elements yield no guarantee.
		{"anything", "whatever", false},
		{"nothing", "x", false},
		{"ghost", "x", false},
		// Not a declared child at all.
		{"site", "person", false},
		// A required child ahead of a choice stays mandatory; the choice
		// branches do not.
		{"afterchoice", "x", true},
		{"afterchoice", "y", false},
		{"afterchoice", "z", false},
		// Mandatory through EVERY branch of a choice counts.
		{"everybranch", "x", true},
		{"everybranch", "y", false},
	}
	for _, tc := range cases {
		if got := s.MustContain(tc.elem, tc.child); got != tc.want {
			t.Errorf("MustContain(%s, %s) = %v, want %v", tc.elem, tc.child, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage", `<!ELEMENT a (b,>`},
		{"missing paren", `<!ELEMENT a (b, c>`},
		{"mixed without star", `<!ELEMENT a (#PCDATA | b)>`},
		{"double declaration", `<!ELEMENT a (b)> <!ELEMENT a (c)>`},
		{"not element", `<!WRONG a (b)>`},
		{"mixed seps", `<!ELEMENT a (b, c | d)>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestSkipsNonElementDeclarations(t *testing.T) {
	s := parse(t, `
<!-- a comment -->
<!ENTITY % x "y">
<!ATTLIST item id ID #REQUIRED>
<!ELEMENT item (name)>
<?pi data?>
<!ELEMENT name (#PCDATA)>
`)
	if len(s.s.elements) != 2 {
		t.Fatalf("declared %d elements, want 2", len(s.s.elements))
	}
}

// acceptedSpacing are valid XML 1.0 inputs: white space after a group's
// '(' (productions [49] and [50]), and a '>' inside a quoted literal of
// a declaration the parser skips. facts is summary's reading of elem.
var acceptedSpacing = []struct {
	dtd, elem string
	names     []string
	facts     string
}{
	{"<!ELEMENT r ( a, b)>", "r", []string{"a", "b"},
		"a: can must dead[a]; b: can must complete dead[a b]"},
	{"<!ELEMENT r ( a | b )*>", "r", []string{"a", "b"},
		"a: can; b: can"},
	{"<!ELEMENT r (\t(a, b) | c)>", "r", []string{"a", "b", "c"},
		"a: can dead[a c]; b: can complete dead[a b c]; c: can complete dead[a b c]"},
	{`<!ATTLIST person id CDATA "a>b"> <!ELEMENT person (name)>`, "person", []string{"name"},
		"name: can must complete dead[name]"},
	{`<!ENTITY e "x>y"> <!ELEMENT r (a)>`, "r", []string{"a"},
		"a: can must complete dead[a]"},
}

// summary lists the facts of each child name under elem.
func summary(b bound, elem string, names []string) string {
	var out []string
	for _, x := range names {
		f := x + ":"
		if can, _ := b.CanContain(elem, x); can {
			f += " can"
		}
		if b.MustContain(elem, x) {
			f += " must"
		}
		if b.ContentComplete(elem, x) {
			f += " complete"
		}
		if d := b.NoMoreAfter(elem, x); d != nil {
			f += " dead" + fmt.Sprint(d)
		}
		out = append(out, f)
	}
	return strings.Join(out, "; ")
}

func TestParseAcceptsXMLSpacing(t *testing.T) {
	for _, tc := range acceptedSpacing {
		if got := summary(parse(t, tc.dtd), tc.elem, tc.names); got != tc.facts {
			t.Errorf("%q: %s, want %s", tc.dtd, got, tc.facts)
		}
	}
}

// TestBindTwiceIsNoOp: a table bound before, and grown by a document's
// tags since, binds again without a change.
func TestBindTwiceIsNoOp(t *testing.T) {
	b := parse(t, xmarkSiteDTD)
	n := b.syms.Len()
	ghost := b.sym("ghost")
	b.s.Bind(b.syms)
	if b.syms.Len() != n+1 || b.sym("ghost") != ghost {
		t.Fatalf("rebinding changed the table: %d names, ghost %d; want %d, %d", b.syms.Len(), b.sym("ghost"), n+1, ghost)
	}
	if !noMoreContains(b, "site", "open_auctions", "people") {
		t.Fatal("facts changed after rebinding")
	}
}

// TestBindRefusesAnotherNumbering: a table that interned another name
// first numbers the schema's tags apart from it, and Bind panics.
func TestBindRefusesAnotherNumbering(t *testing.T) {
	s := parse(t, xmarkSiteDTD).s
	syms := xmlstream.NewSymTab()
	syms.Intern("ghost")
	defer func() {
		if recover() == nil {
			t.Fatal("Bind accepted a table that numbers the schema's tags differently")
		}
	}()
	s.Bind(syms)
}

func TestNestedGroups(t *testing.T) {
	s := parse(t, `<!ELEMENT r ((a, b)*, (c | (d, e))?)>`)
	// (a,b)*: after b, a can come again.
	if noMoreContains(s, "r", "b", "a") {
		t.Fatal("a must repeat via the star")
	}
	// After c, d and e are dead (choice).
	if !noMoreContains(s, "r", "c", "d") || !noMoreContains(s, "r", "c", "e") {
		t.Fatal("d/e dead after c")
	}
	// After d, e can come (inner sequence), c cannot.
	if noMoreContains(s, "r", "d", "e") {
		t.Fatal("e must be possible after d")
	}
	if !noMoreContains(s, "r", "d", "c") {
		t.Fatal("c must be dead after d")
	}
	// After a, everything except nothing is still possible.
	if noMoreContains(s, "r", "a", "c") {
		t.Fatal("c must be possible after a")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse must panic on bad input")
		}
	}()
	MustParse(`<!ELEMENT broken (`)
}

func TestFactsDeterministic(t *testing.T) {
	a := parse(t, xmarkSiteDTD).NoMoreAfter("site", "open_auctions")
	b := parse(t, xmarkSiteDTD).NoMoreAfter("site", "open_auctions")
	if !slices.Equal(a, b) {
		t.Fatal("fact order must be deterministic")
	}
}
