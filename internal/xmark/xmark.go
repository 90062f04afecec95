// Package xmark generates synthetic XMark-style auction documents
// (Section 7 of the paper benchmarks on XMark [21] data).
//
// The original xmlgen tool is not available offline; this generator is a
// documented substitution (see DESIGN.md): it reproduces the XMark element
// structure — site / regions (six continents with items) / categories /
// catgraph / people / open_auctions / closed_auctions — with XMark's
// entity proportions, attribute usage (converted to subelements by the
// engine's tokenizer, as the paper's benchmark adaptation prescribes),
// value-based references between auctions, people, items and categories
// (so join queries such as Q8 behave realistically), and a comparable
// text-to-markup ratio. Documents are deterministic in (Factor, Seed) and
// scale linearly with Factor; Factor 1.0 corresponds to the original
// XMark scale (about 100 MB).
package xmark

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Config parameterizes document generation.
type Config struct {
	// Factor scales all entity counts linearly. XMark's convention:
	// Factor 1.0 ≈ 100 MB. The paper's document sizes 10/50/100/200 MB
	// correspond to factors 0.1/0.5/1.0/2.0.
	Factor float64
	// Seed makes the pseudo-random content deterministic; documents with
	// equal (Factor, Seed) are byte-identical.
	Seed uint64
}

// Counts holds the entity counts derived from a factor, following XMark's
// proportions.
type Counts struct {
	Items      [6]int // per continent: africa, asia, australia, europe, namerica, samerica
	Persons    int
	Open       int
	Closed     int
	Categories int
}

// continents in XMark order with XMark's item distribution at factor 1.
var continents = [6]string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
var itemShare = [6]int{550, 2000, 2200, 6000, 10000, 1000}

// CountsFor derives the entity counts for a factor.
func CountsFor(factor float64) Counts {
	scale := func(n int) int {
		v := int(float64(n) * factor)
		if v < 1 {
			v = 1
		}
		return v
	}
	var c Counts
	for i, n := range itemShare {
		c.Items[i] = scale(n)
	}
	c.Persons = scale(25500)
	c.Open = scale(12000)
	c.Closed = scale(9750)
	c.Categories = scale(1000)
	return c
}

// BytesPerFactor is the approximate document size at factor 1.0, measured
// once and used by FactorForSize (this generator produces ~82 MB per
// factor; the original xmlgen produces ~100-113 MB — same order, slightly
// leaner text). The value is asserted loosely by tests; benchmark reports
// always state the actual generated size.
const BytesPerFactor = 82_000_000

// FactorForSize returns the factor that generates approximately the given
// number of bytes.
func FactorForSize(bytes int64) float64 {
	return float64(bytes) / float64(BytesPerFactor)
}

// writers recycles Generate's 256 KB output buffers: a caller that
// generates many small documents (a corpus) would otherwise allocate one
// per document.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 256<<10) }}

// Generate writes one document to w and returns the number of bytes
// written.
func Generate(w io.Writer, cfg Config) (int64, error) {
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		writers.Put(bw)
	}()
	g := &gen{w: bw, rng: cfg.Seed*2862933555777941757 + 3037000493, counts: CountsFor(cfg.Factor)}
	if g.rng == 0 {
		g.rng = 88172645463325252
	}
	g.site()
	if g.err == nil {
		g.err = bw.Flush()
	}
	return g.n, g.err
}

type gen struct {
	w       *bufio.Writer
	rng     uint64
	n       int64
	err     error
	counts  Counts
	scratch []byte
}

// next is xorshift64*: fast, deterministic, good enough for content
// synthesis.
func (g *gen) next() uint64 {
	x := g.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.rng = x
	return x * 2685821657736338717
}

func (g *gen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(g.next() % uint64(n))
}

func (g *gen) str(s string) {
	if g.err != nil {
		return
	}
	m, err := g.w.WriteString(s)
	g.n += int64(m)
	if err != nil {
		g.err = err
	}
}

func (g *gen) int(v int) {
	g.scratch = strconv.AppendInt(g.scratch[:0], int64(v), 10)
	if g.err != nil {
		return
	}
	m, err := g.w.Write(g.scratch)
	g.n += int64(m)
	if err != nil {
		g.err = err
	}
}

func (g *gen) open(tag string)  { g.str("<"); g.str(tag); g.str(">") }
func (g *gen) close(tag string) { g.str("</"); g.str(tag); g.str(">\n") }

// elem writes <tag>text</tag>.
func (g *gen) elem(tag, text string) {
	g.open(tag)
	g.str(text)
	g.close(tag)
}

// openID writes an opening tag with an id-style attribute, e.g.
// <item id="item12">. The engine's tokenizer converts the attribute to a
// leading subelement (the paper's adaptation).
func (g *gen) openAttr(tag, attr, value string, num int) {
	g.str("<")
	g.str(tag)
	g.str(" ")
	g.str(attr)
	g.str(`="`)
	g.str(value)
	if num >= 0 {
		g.scratch = strconv.AppendInt(g.scratch[:0], int64(num), 10)
		if g.err == nil {
			m, err := g.w.Write(g.scratch)
			g.n += int64(m)
			if err != nil {
				g.err = err
			}
		}
	}
	g.str(`">`)
}

func (g *gen) text(minWords, maxWords int) {
	n := minWords
	if maxWords > minWords {
		n += g.intn(maxWords - minWords)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			g.str(" ")
		}
		g.str(words[g.intn(len(words))])
	}
}

func (g *gen) textElem(tag string, minWords, maxWords int) {
	g.open(tag)
	g.text(minWords, maxWords)
	g.close(tag)
}

// date writes an XMark-style date MM/DD/YYYY.
func (g *gen) date() {
	g.int(1 + g.intn(12))
	g.str("/")
	g.int(1 + g.intn(28))
	g.str("/")
	g.int(1998 + g.intn(4))
}

// --- document structure ---

func (g *gen) site() {
	g.str("<site>\n")
	g.regions()
	g.categories()
	g.catgraph()
	g.people()
	g.openAuctions()
	g.closedAuctions()
	g.str("</site>\n")
}

func (g *gen) regions() {
	g.str("<regions>\n")
	itemID := 0
	for i, continent := range continents {
		g.open(continent)
		g.str("\n")
		for j := 0; j < g.counts.Items[i]; j++ {
			g.item(itemID)
			itemID++
		}
		g.close(continent)
	}
	g.str("</regions>\n")
}

func (g *gen) item(id int) {
	g.openAttr("item", "id", "item", id)
	g.elem("location", countries[g.intn(len(countries))])
	g.open("quantity")
	g.int(1 + g.intn(10))
	g.close("quantity")
	g.textElem("name", 2, 4)
	g.open("payment")
	g.str("Creditcard")
	g.close("payment")
	g.description()
	g.open("shipping")
	g.str("Will ship internationally")
	g.close("shipping")
	n := 1 + g.intn(3)
	for i := 0; i < n; i++ {
		g.openAttr("incategory", "category", "category", g.intn(g.counts.Categories))
		g.str("</incategory>\n")
	}
	g.mailbox()
	g.close("item")
}

func (g *gen) description() {
	g.open("description")
	if g.intn(3) == 0 {
		g.open("parlist")
		n := 1 + g.intn(3)
		for i := 0; i < n; i++ {
			g.open("listitem")
			g.textElem("text", 40, 100)
			g.close("listitem")
		}
		g.close("parlist")
	} else {
		g.textElem("text", 55, 140)
	}
	g.close("description")
}

func (g *gen) mailbox() {
	g.open("mailbox")
	n := g.intn(4)
	for i := 0; i < n; i++ {
		g.open("mail")
		g.elem("from", firstNames[g.intn(len(firstNames))]+" "+lastNames[g.intn(len(lastNames))])
		g.elem("to", firstNames[g.intn(len(firstNames))]+" "+lastNames[g.intn(len(lastNames))])
		g.open("date")
		g.date()
		g.close("date")
		g.textElem("text", 25, 90)
		g.close("mail")
	}
	g.close("mailbox")
}

func (g *gen) categories() {
	g.str("<categories>\n")
	for i := 0; i < g.counts.Categories; i++ {
		g.openAttr("category", "id", "category", i)
		g.elem("name", categoriesWords[g.intn(len(categoriesWords))])
		g.description()
		g.close("category")
	}
	g.str("</categories>\n")
}

func (g *gen) catgraph() {
	g.str("<catgraph>\n")
	edges := g.counts.Categories
	for i := 0; i < edges; i++ {
		g.str("<edge from=\"category")
		g.int(g.intn(g.counts.Categories))
		g.str("\" to=\"category")
		g.int(g.intn(g.counts.Categories))
		g.str("\"></edge>\n")
	}
	g.str("</catgraph>\n")
}

func (g *gen) people() {
	g.str("<people>\n")
	for i := 0; i < g.counts.Persons; i++ {
		g.person(i)
	}
	g.str("</people>\n")
}

func (g *gen) person(id int) {
	g.openAttr("person", "id", "person", id)
	first := firstNames[g.intn(len(firstNames))]
	last := lastNames[g.intn(len(lastNames))]
	g.elem("name", first+" "+last)
	g.elem("emailaddress", "mailto:"+last+"@example.com")
	if g.intn(2) == 0 {
		g.open("phone")
		g.str("+")
		g.int(1 + g.intn(99))
		g.str(" (")
		g.int(100 + g.intn(899))
		g.str(") ")
		g.int(10000000 + g.intn(89999999))
		g.close("phone")
	}
	if g.intn(2) == 0 {
		g.open("address")
		g.open("street")
		g.int(1 + g.intn(99))
		g.str(" ")
		g.str(streets[g.intn(len(streets))])
		g.close("street")
		g.elem("city", cities[g.intn(len(cities))])
		g.elem("country", countries[g.intn(len(countries))])
		g.open("zipcode")
		g.int(10000 + g.intn(89999))
		g.close("zipcode")
		g.close("address")
	}
	if g.intn(3) == 0 {
		g.elem("homepage", "http://www.example.com/~"+last)
	}
	if g.intn(4) == 0 {
		g.open("creditcard")
		for k := 0; k < 4; k++ {
			if k > 0 {
				g.str(" ")
			}
			g.int(1000 + g.intn(8999))
		}
		g.close("creditcard")
	}
	g.profile()
	if g.intn(4) == 0 {
		g.open("watches")
		n := 1 + g.intn(3)
		for k := 0; k < n; k++ {
			g.openAttr("watch", "open_auction", "open_auction", g.intn(g.counts.Open))
			g.str("</watch>\n")
		}
		g.close("watches")
	}
	g.close("person")
}

func (g *gen) profile() {
	// XMark: <profile income="..."> with interests, education, gender,
	// business, age. Income is present for ~85% of people (Q20's "no
	// income" bracket needs absentees).
	hasIncome := g.intn(100) < 85
	if hasIncome {
		g.str(`<profile income="`)
		g.int(9000 + g.intn(191000))
		g.str(`">`)
	} else {
		g.open("profile")
	}
	n := g.intn(4)
	for i := 0; i < n; i++ {
		g.openAttr("interest", "category", "category", g.intn(g.counts.Categories))
		g.str("</interest>\n")
	}
	if g.intn(2) == 0 {
		g.elem("education", education[g.intn(len(education))])
	}
	if g.intn(2) == 0 {
		g.elem("gender", []string{"male", "female"}[g.intn(2)])
	}
	g.elem("business", []string{"Yes", "No"}[g.intn(2)])
	if g.intn(2) == 0 {
		g.open("age")
		g.int(18 + g.intn(60))
		g.close("age")
	}
	g.close("profile")
}

func (g *gen) totalItems() int {
	t := 0
	for _, n := range g.counts.Items {
		t += n
	}
	return t
}

func (g *gen) openAuctions() {
	g.str("<open_auctions>\n")
	for i := 0; i < g.counts.Open; i++ {
		g.openAttr("open_auction", "id", "open_auction", i)
		g.open("initial")
		g.money()
		g.close("initial")
		if g.intn(2) == 0 {
			g.open("reserve")
			g.money()
			g.close("reserve")
		}
		bidders := g.intn(5)
		for b := 0; b < bidders; b++ {
			g.open("bidder")
			g.open("date")
			g.date()
			g.close("date")
			g.open("time")
			g.int(g.intn(24))
			g.str(":")
			g.int(10 + g.intn(49))
			g.str(":")
			g.int(10 + g.intn(49))
			g.close("time")
			g.openAttr("personref", "person", "person", g.intn(g.counts.Persons))
			g.str("</personref>\n")
			g.open("increase")
			g.money()
			g.close("increase")
			g.close("bidder")
		}
		g.open("current")
		g.money()
		g.close("current")
		if g.intn(2) == 0 {
			g.elem("privacy", "Yes")
		}
		g.openAttr("itemref", "item", "item", g.intn(g.totalItems()))
		g.str("</itemref>\n")
		g.openAttr("seller", "person", "person", g.intn(g.counts.Persons))
		g.str("</seller>\n")
		g.annotation()
		g.open("quantity")
		g.int(1 + g.intn(10))
		g.close("quantity")
		g.elem("type", auctionTypes[g.intn(len(auctionTypes))])
		g.open("interval")
		g.open("start")
		g.date()
		g.close("start")
		g.open("end")
		g.date()
		g.close("end")
		g.close("interval")
		g.close("open_auction")
	}
	g.str("</open_auctions>\n")
}

func (g *gen) closedAuctions() {
	g.str("<closed_auctions>\n")
	for i := 0; i < g.counts.Closed; i++ {
		g.open("closed_auction")
		g.openAttr("seller", "person", "person", g.intn(g.counts.Persons))
		g.str("</seller>\n")
		g.openAttr("buyer", "person", "person", g.intn(g.counts.Persons))
		g.str("</buyer>\n")
		g.openAttr("itemref", "item", "item", g.intn(g.totalItems()))
		g.str("</itemref>\n")
		g.open("price")
		g.money()
		g.close("price")
		g.open("date")
		g.date()
		g.close("date")
		g.open("quantity")
		g.int(1 + g.intn(10))
		g.close("quantity")
		g.elem("type", auctionTypes[g.intn(len(auctionTypes))])
		g.annotation()
		g.close("closed_auction")
	}
	g.str("</closed_auctions>\n")
}

func (g *gen) annotation() {
	g.open("annotation")
	g.openAttr("author", "person", "person", g.intn(g.counts.Persons))
	g.str("</author>\n")
	g.description()
	g.textElem("happiness", 1, 1)
	g.close("annotation")
}

func (g *gen) money() {
	g.int(1 + g.intn(400))
	g.str(".")
	g.int(10 + g.intn(89))
}
