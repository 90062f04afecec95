package dtd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gcx/internal/xmlstream"
)

// The oracle reads the facts off the words of a content model instead
// of its position automaton. Names are one letter each, so a word is a
// string; every repetition is taken 0, 1 or 2 times, which is enough to
// show any tag after any other that a loop can bring back.

var oracleNames = []string{"a", "b", "c", "d"}

// cm is a test-side content model: a name particle (items nil), a group
// of items joined by sep, or top-level mixed content over items.
type cm struct {
	name  string
	sep   string
	items []cm
	rep   string // "", "?", "*" or "+"
	mixed bool
}

func genRep(r *rand.Rand) string { return [...]string{"", "", "?", "*", "+"}[r.Intn(5)] }

func genModel(r *rand.Rand, depth int) cm {
	if depth == 0 || r.Intn(3) == 0 {
		return cm{name: oracleNames[r.Intn(len(oracleNames))], rep: genRep(r)}
	}
	g := cm{sep: [...]string{",", "|"}[r.Intn(2)], rep: genRep(r)}
	for range 1 + r.Intn(3) {
		g.items = append(g.items, genModel(r, depth-1))
	}
	return g
}

// genTop draws an element's content: mixed content one time in five,
// else a group of nesting depth at most 3.
func genTop(r *rand.Rand) cm {
	if r.Intn(5) == 0 {
		m := cm{mixed: true, sep: "|", rep: "*"}
		for _, n := range oracleNames[:r.Intn(len(oracleNames)+1)] {
			m.items = append(m.items, cm{name: n})
		}
		return m
	}
	m := genModel(r, 3)
	if m.items == nil {
		m = cm{sep: ",", items: []cm{m}}
	}
	return m
}

// String prints m as DTD syntax, with the white space XML 1.0 allows
// inside a group's parentheses.
func (m cm) String() string {
	if m.items == nil && !m.mixed {
		return m.name + m.rep
	}
	parts := make([]string, len(m.items))
	for i, it := range m.items {
		parts[i] = it.String()
	}
	if m.mixed {
		if len(parts) == 0 {
			return "( #PCDATA )"
		}
		return "( #PCDATA | " + strings.Join(parts, " | ") + " )*"
	}
	return "( " + strings.Join(parts, " "+m.sep+" ") + " )" + m.rep
}

// maxWords bounds a model's word set; a larger model is drawn again.
const maxWords = 4096

// words returns the words of m, or nil when there are more than maxWords.
func (m cm) words() map[string]bool {
	var w map[string]bool
	switch {
	case m.items == nil && !m.mixed:
		w = map[string]bool{m.name: true}
	case m.sep == ",":
		w = map[string]bool{"": true}
		for _, it := range m.items {
			if w = concat(w, it.words()); w == nil {
				return nil
			}
		}
	default:
		w = map[string]bool{}
		if m.mixed && len(m.items) == 0 {
			w[""] = true
		}
		for _, it := range m.items {
			iw := it.words()
			if iw == nil {
				return nil
			}
			for x := range iw {
				w[x] = true
			}
		}
	}
	if m.rep == "" {
		return w
	}
	out := map[string]bool{}
	if m.rep != "+" {
		out[""] = true
	}
	for x := range w {
		out[x] = true
	}
	if m.rep != "?" {
		twice := concat(w, w)
		if twice == nil {
			return nil
		}
		for x := range twice {
			out[x] = true
		}
	}
	return out
}

func concat(x, y map[string]bool) map[string]bool {
	if x == nil || y == nil || len(x)*len(y) > maxWords {
		return nil
	}
	out := make(map[string]bool, len(x)*len(y))
	for a := range x {
		for b := range y {
			out[a+b] = true
		}
	}
	return out
}

// checkFacts parses <!ELEMENT r m> and compares every fact of r, asked
// through a bound table, with the one its words show. It reports the
// first difference, or "" when there is none.
func checkFacts(m cm) string {
	src := "<!ELEMENT r " + m.String() + ">"
	s, err := Parse(src)
	if err != nil {
		return fmt.Sprintf("%s: %v", src, err)
	}
	b := bound{s, xmlstream.NewSymTab()}
	s.Bind(b.syms)
	words := m.words()
	can := func(x string) bool {
		for w := range words {
			if strings.Contains(w, x) {
				return true
			}
		}
		return false
	}
	for _, x := range oracleNames {
		must, complete := true, can(x)
		var dead []string
		for _, c := range oracleNames {
			if can(x) && can(c) {
				dead = append(dead, c)
			}
		}
		for w := range words {
			must = must && strings.Contains(w, x)
			if i := strings.Index(w, x); i >= 0 {
				dead = slices.DeleteFunc(dead, func(c string) bool { return strings.Contains(w[i+1:], c) })
				complete = complete && i == len(w)-1
			}
		}
		noMore := b.NoMoreAfter("r", x) // in the schema's numbering
		slices.Sort(noMore)
		got := fmt.Sprint(b.CanContain("r", x))
		got += fmt.Sprint(b.MustContain("r", x), b.ContentComplete("r", x), noMore, b.EmptyElement("r"))
		want := fmt.Sprint(can(x), true)
		if len(dead) == 0 {
			dead = nil
		}
		want += fmt.Sprint(must, complete, dead, false)
		if got != want {
			return fmt.Sprintf("%s, tag %s: schema says %s, words say %s", src, x, got, want)
		}
	}
	return ""
}

// drawFacts draws content models from seed until one has at most
// maxWords words, and checks it.
func drawFacts(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	for {
		if m := genTop(r); m.words() != nil {
			return checkFacts(m)
		}
	}
}

// TestFactsMatchWords: can-contain, mandatory, no-more-after and
// complete, for random content models over four names, agree with the
// words the models spell.
func TestFactsMatchWords(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		if diff := drawFacts(seed); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
	}
	err := quick.Check(func(seed int64) bool {
		if diff := drawFacts(seed); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzDTD: Parse never panics, and a schema it accepts binds a fresh
// table and answers every pair of its tags consistently: a dead,
// mandatory or completing child is one the element can contain.
func FuzzDTD(f *testing.F) {
	for _, src := range acceptedSpacing {
		f.Add(src.dtd)
	}
	f.Add(xmarkSiteDTD)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return // the closure over positions is cubic
		}
		s, err := Parse(src)
		if err != nil {
			return
		}
		syms := xmlstream.NewSymTab()
		s.Bind(syms)
		s.Bind(syms)
		n := xmlstream.Sym(syms.Len())
		for elem := xmlstream.Sym(1); elem <= n+1; elem++ {
			s.EmptyElement(elem)
			for child := xmlstream.Sym(1); child <= n+1; child++ {
				can, known := s.CanContain(elem, child)
				if !known && (s.MustContain(elem, child) || s.ContentComplete(elem, child) || s.NoMoreAfter(elem, child) != nil) {
					t.Fatalf("%q: facts for %d under %d, which the schema does not know", src, child, elem)
				}
				if (s.MustContain(elem, child) || s.ContentComplete(elem, child)) && !can {
					t.Fatalf("%q: %d must or completes under %d, which cannot contain it", src, child, elem)
				}
				for _, d := range s.NoMoreAfter(elem, child) {
					if c, _ := s.CanContain(elem, d); !c || !can {
						t.Fatalf("%q: %d dead after %d under %d, which cannot contain both", src, d, child, elem)
					}
				}
			}
		}
	})
}
