package xmlstream

import (
	"bytes"
	"fmt"
	"testing"
)

// The two scan-profile extremes, built out of the XMark vocabulary: the
// text-heavy document is wall-to-wall description text (long
// character-data runs, which the projector discards for most queries),
// the markup-heavy one is catgraph/incategory-style — dense small tags
// and attributes with almost no character data. A third, entity-dense
// document is the text loop's slowest shape. All are deterministic in
// (target, seed), so the token counts below are exact.

var profileWords = []string{
	"gold", "silver", "auction", "reserve", "bidder", "parcel", "estate",
	"vintage", "catalog", "shipping", "antique", "seller", "increment",
	"closing", "preview", "condition", "provenance", "lot", "appraisal",
	"creditcard", "international", "description", "quantity", "payment",
}

// profileRand is the xorshift64* generator the xmark package uses.
type profileRand uint64

func newProfileRand(seed uint64) profileRand {
	r := profileRand(seed*2862933555777941757 + 3037000493)
	if r == 0 {
		r = 88172645463325252
	}
	return r
}

func (r *profileRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = profileRand(x)
	return x * 2685821657736338717
}

func (r *profileRand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// genTextHeavyDoc emits XMark region items whose descriptions carry long
// uninterrupted text runs — the fewest structural bytes per input byte.
func genTextHeavyDoc(target int64, seed uint64) []byte {
	rng := newProfileRand(seed)
	var b bytes.Buffer
	b.Grow(int(target) + 4096)
	b.WriteString("<site><regions><europe>\n")
	for id := 0; int64(b.Len()) < target; id++ {
		fmt.Fprintf(&b, `<item id="item%d"><name>`, id)
		writeWords(&b, &rng, 3)
		b.WriteString("</name><description><text>")
		writeWords(&b, &rng, 120+rng.intn(80))
		b.WriteString("</text></description></item>\n")
	}
	b.WriteString("</europe></regions></site>\n")
	return b.Bytes()
}

// genMarkupHeavyDoc emits an XMark catgraph — rows of small
// attribute-bearing elements with no character data, the tag-parsing
// worst case where every run between structural bytes is short.
func genMarkupHeavyDoc(target int64, seed uint64) []byte {
	rng := newProfileRand(seed)
	var b bytes.Buffer
	b.Grow(int(target) + 4096)
	b.WriteString("<site><catgraph>\n")
	for int64(b.Len()) < target {
		fmt.Fprintf(&b, "<edge from=\"category%d\" to=\"category%d\"></edge><incategory category=\"category%d\"/>\n",
			rng.intn(1000), rng.intn(1000), rng.intn(1000))
	}
	b.WriteString("</catgraph></site>\n")
	return b.Bytes()
}

// genEntityDenseDoc emits XMark items whose description texts carry an
// entity reference (&amp; or a hex character reference) every few words
// and run 4–8 KB, longer than the window the profile is read in: every
// text run crosses a refill and is resolved into textBuf.
func genEntityDenseDoc(target int64, seed uint64) []byte {
	rng := newProfileRand(seed)
	var b bytes.Buffer
	b.Grow(int(target) + 16<<10)
	b.WriteString("<site><regions><asia>\n")
	for id := 0; int64(b.Len()) < target; id++ {
		fmt.Fprintf(&b, `<item id="item%d"><description><text>`, id)
		for end := b.Len() + 4<<10 + rng.intn(4<<10); b.Len() < end; {
			writeWords(&b, &rng, 1+rng.intn(4))
			if rng.intn(2) == 0 {
				b.WriteString(" &amp; ")
			} else {
				fmt.Fprintf(&b, " &#x%X; ", 'A'+rng.intn(26))
			}
		}
		b.WriteString("</text></description></item>\n")
	}
	b.WriteString("</asia></regions></site>\n")
	return b.Bytes()
}

func writeWords(b *bytes.Buffer, rng *profileRand, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(profileWords[rng.intn(len(profileWords))])
	}
}

// drainChunked and drainReference are the solo scan loops. They are
// deliberately concrete-typed (not one loop over a func() closure): real
// consumers — the engine's projector, the splitter — call Next directly
// on the concrete type, so the benchmark must let the compiler
// devirtualize and inline the call the same way. The indirection cost of
// a closure per token (~15ns) would otherwise dominate once the scan
// itself is fast. Both paths get the identical treatment, so the speedup
// ratio stays fair.
func drainChunked(t *Tokenizer) (int64, error) {
	var n int64
	for {
		tk, err := t.Next()
		if err != nil {
			return n, err
		}
		if tk.Kind == EOF {
			return n, nil
		}
		n++
	}
}

func drainReference(t *Reference) (int64, error) {
	var n int64
	for {
		tk, err := t.Next()
		if err != nil {
			return n, err
		}
		if tk.Kind == EOF {
			return n, nil
		}
		n++
	}
}

// drainIndex runs the structural-index classification pass alone — Build
// over the whole document plus a full candidate walk — isolating the
// cost the chunked tokenizer adds to every window slide. The returned
// count is the number of structural bytes, a machine-portable digest of
// the classification output.
func drainIndex(ix *StructIndex, doc []byte) int64 {
	ix.Build(doc)
	var n int64
	for p := 0; ; {
		i := ix.Next(p)
		if i < 0 {
			return n
		}
		n++
		p = i + 1
	}
}

// profileDocs is what the benchmarks and the count table below scan: 4 MB
// of each profile, seed 1. minSpeedup is the chunked/reference throughput
// ratio BenchmarkTokenizerThroughput holds — a ratio of two scans of the
// same bytes on the same machine, so the runner's speed cancels out.
// Text-heavy measures 4–5×; markup-heavy 2.2–2.5×, and falling under 2.0×
// means the structural-index fast paths no longer engage on dense markup.
// The entity-dense document is read 4,093 bytes at a time (shorter than
// its every text run) and is counted and allocation-checked, not
// benchmarked.
var profileDocs = []struct {
	name       string
	gen        func(int64, uint64) []byte
	window     int     // bytes per read; 0 = as many as the tokenizer asks for
	tokens     int64   // per pass, chunked and reference alike
	structural int64   // bytes the index classifies as candidates
	minSpeedup float64 // 0 = not benchmarked
}{
	{"text-heavy", genTextHeavyDoc, 0, 37537, 51978, 1.8},
	{"markup-heavy", genMarkupHeavyDoc, 0, 636484, 587528, 2.0},
	{"entity-dense", genEntityDenseDoc, 4093, 6696, 158990, 0},
}

func borrowOptions() Options {
	opts := DefaultOptions()
	opts.BorrowText = true // the engine's mode: discarded regions cost no copies
	return opts
}

// TestProfileDocumentCounts pins what the scanners produce on the profile
// documents: chunked and reference deliver the same number of tokens, the
// index finds the same number of structural bytes, and both equal the
// committed counts. A change that moves one of them changed either a
// scanner or a generator; every throughput figure quoted for these
// documents is per this many tokens.
func TestProfileDocumentCounts(t *testing.T) {
	for _, doc := range profileDocs {
		data := doc.gen(4<<20, 1)
		chunked, err := drainChunked(NewTokenizerOptions(&chunkReader{data: data, k: doc.window}, borrowOptions()))
		if err != nil {
			t.Fatalf("%s: chunked: %v", doc.name, err)
		}
		reference, err := drainReference(NewReference(&chunkReader{data: data, k: doc.window}, borrowOptions()))
		if err != nil {
			t.Fatalf("%s: reference: %v", doc.name, err)
		}
		if chunked != doc.tokens || reference != doc.tokens {
			t.Errorf("%s: chunked %d, reference %d tokens; want %d from both", doc.name, chunked, reference, doc.tokens)
		}
		var ix StructIndex
		if got := drainIndex(&ix, data); got != doc.structural {
			t.Errorf("%s: %d structural bytes, want %d", doc.name, got, doc.structural)
		}
	}
}

// TestChunkedTokenizerAllocsNotAboveReference: in the engine's BorrowText
// mode a warm chunked tokenizer must not allocate more per pass than the
// per-byte scanner it replaced (both are zero in steady state; the
// chunked scanner must not regress that).
func TestChunkedTokenizerAllocsNotAboveReference(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	chunked := NewTokenizerOptions(nil, borrowOptions())
	reference := NewReference(nil, borrowOptions())

	for _, profile := range profileDocs {
		doc := profile.gen(256<<10, 1)
		var r chunkReader
		chunkedPass := func() {
			r = chunkReader{data: doc, k: profile.window}
			chunked.Reset(&r)
			if _, err := drainChunked(chunked); err != nil {
				t.Fatal(err)
			}
		}
		referencePass := func() {
			r = chunkReader{data: doc, k: profile.window}
			reference.Reset(&r)
			if _, err := drainReference(reference); err != nil {
				t.Fatal(err)
			}
		}
		chunkedPass() // warm up scratch buffers and name tables
		referencePass()
		ca := testing.AllocsPerRun(5, chunkedPass)
		ra := testing.AllocsPerRun(5, referencePass)
		if ca > ra {
			t.Fatalf("chunked tokenizer allocates more than reference: %.1f > %.1f allocs/pass", ca, ra)
		}
		if ca > 0 {
			t.Fatalf("warm chunked tokenizer allocates: %.1f allocs/pass, want 0", ca)
		}
	}
}

// BenchmarkTokenizerThroughput reports scan MB/s for the retained per-byte
// Reference scanner and the chunked tokenizer on the two profile
// documents, and holds the chunked row at minSpeedup times the reference
// row (reported as x-reference):
//
//	go test -run xxx -bench BenchmarkTokenizerThroughput -benchtime 6x ./internal/xmlstream
//
// Benchmarks never run under `go test ./...`, so the wall clock cannot
// fail tier-1; CI runs the line above. The ratio is checked on measured
// runs only — the b.N = 1 probe the testing package makes first is one
// sample — so `-benchtime 1x` reports it without holding it.
func BenchmarkTokenizerThroughput(b *testing.B) {
	for _, doc := range profileDocs {
		if doc.minSpeedup == 0 {
			continue
		}
		data := doc.gen(4<<20, 1)
		r := bytes.NewReader(data)
		var referenceNsPerOp float64
		b.Run(doc.name+"/reference", func(b *testing.B) {
			tok := NewReference(nil, borrowOptions())
			pass := func() {
				r.Reset(data)
				tok.Reset(r)
				if _, err := drainReference(tok); err != nil {
					b.Fatal(err)
				}
			}
			pass() // size the scratch buffers outside the timer
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			referenceNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		b.Run(doc.name+"/chunked", func(b *testing.B) {
			tok := NewTokenizerOptions(nil, borrowOptions())
			pass := func() {
				r.Reset(data)
				tok.Reset(r)
				if _, err := drainChunked(tok); err != nil {
					b.Fatal(err)
				}
			}
			pass()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			if referenceNsPerOp == 0 {
				return // -bench selected this row without its reference
			}
			speedup := referenceNsPerOp * float64(b.N) / float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(speedup, "x-reference")
			if b.N > 1 && speedup < doc.minSpeedup {
				b.Errorf("chunked is %.2fx the reference scanner on the %s document, floor %.1fx", speedup, doc.name, doc.minSpeedup)
			}
		})
	}
}

// BenchmarkStructuralIndex isolates the classification pass: Build over
// the whole document plus a full candidate walk, no tokenization. Its
// MB/s is the ceiling the index-driven scanner approaches as markup
// density grows; a regression here slows every window slide.
func BenchmarkStructuralIndex(b *testing.B) {
	for _, doc := range profileDocs {
		if doc.minSpeedup == 0 {
			continue
		}
		data := doc.gen(4<<20, 1)
		b.Run(doc.name, func(b *testing.B) {
			var ix StructIndex
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				drainIndex(&ix, data)
			}
		})
	}
}
