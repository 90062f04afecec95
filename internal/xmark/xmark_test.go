package xmark

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

func generate(t *testing.T, cfg Config) string {
	t.Helper()
	var b bytes.Buffer
	n, err := Generate(&b, cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if n != int64(b.Len()) {
		t.Fatalf("byte count %d != buffer %d", n, b.Len())
	}
	return b.String()
}

func TestWellFormed(t *testing.T) {
	doc := generate(t, Config{Factor: 0.002, Seed: 1})
	tok := xmlstream.NewTokenizerOptions(strings.NewReader(doc), xmlstream.DefaultOptions())
	elements := 0
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatalf("tokenize: %v", err)
		}
		if tk.Kind == xmlstream.EOF {
			break
		}
		if tk.Kind == xmlstream.StartElement {
			elements++
		}
	}
	if elements < 100 {
		t.Fatalf("only %d elements generated", elements)
	}
}

func TestDeterministic(t *testing.T) {
	a := generate(t, Config{Factor: 0.002, Seed: 7})
	b := generate(t, Config{Factor: 0.002, Seed: 7})
	if a != b {
		t.Fatal("same (factor, seed) must produce identical documents")
	}
	c := generate(t, Config{Factor: 0.002, Seed: 8})
	if a == c {
		t.Fatal("different seeds must produce different documents")
	}
}

// TestGenerateRecyclesItsWriter: Generate draws its 256 KB output buffer
// from a pool, so a run of small documents allocates far less than one
// buffer per document. (The bound leaves room for the race detector,
// which drops a quarter of what a sync.Pool is given.)
func TestGenerateRecyclesItsWriter(t *testing.T) {
	cfg := Config{Factor: 0.0001, Seed: 3}
	if _, err := Generate(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	const docs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range docs {
		if _, err := Generate(io.Discard, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDoc := (after.TotalAlloc - before.TotalAlloc) / docs; perDoc > 128<<10 {
		t.Fatalf("Generate allocates %d bytes per document; its writer is %d", perDoc, 256<<10)
	}
}

func TestStructure(t *testing.T) {
	doc := generate(t, Config{Factor: 0.002, Seed: 1})
	for _, section := range []string{
		"<site>", "<regions>", "<africa>", "<asia>", "<australia>",
		"<europe>", "<namerica>", "<samerica>", "<categories>",
		"<catgraph>", "<people>", "<open_auctions>", "<closed_auctions>",
	} {
		if !strings.Contains(doc, section) {
			t.Fatalf("document missing section %s", section)
		}
	}
	// Q1's selector must exist.
	if !strings.Contains(doc, `person id="person0"`) {
		t.Fatal("document missing person0")
	}
	// Q8's join partners: buyers reference persons by id.
	if !strings.Contains(doc, `buyer person="person`) {
		t.Fatal("document missing buyer references")
	}
	// Q20's income attribute, including people without income.
	if !strings.Contains(doc, `profile income="`) {
		t.Fatal("document missing incomes")
	}
	if !strings.Contains(doc, `<profile>`) {
		t.Fatal("document missing income-less profiles (Q20's n/a bracket)")
	}
}

func TestCountsScaleLinearly(t *testing.T) {
	c1 := CountsFor(0.01)
	c2 := CountsFor(0.02)
	if c2.Persons < c1.Persons*2-2 || c2.Persons > c1.Persons*2+2 {
		t.Fatalf("persons don't scale: %d vs %d", c1.Persons, c2.Persons)
	}
	small := CountsFor(0.00001)
	if small.Persons < 1 || small.Categories < 1 {
		t.Fatal("counts must stay positive at tiny factors")
	}
}

func TestSizeCalibration(t *testing.T) {
	// The BytesPerFactor constant must be within 2x of reality (reports
	// always state actual sizes; this guards against gross drift).
	var b bytes.Buffer
	n, err := Generate(&b, Config{Factor: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	expect := int64(0.01 * float64(BytesPerFactor))
	if n < expect/2 || n > expect*2 {
		t.Fatalf("factor 0.01 generated %d bytes; calibration constant says %d (off by >2x)", n, expect)
	}
}

func TestFactorForSize(t *testing.T) {
	f := FactorForSize(10 << 20)
	if f < 0.05 || f > 0.2 {
		t.Fatalf("FactorForSize(10MB) = %f", f)
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := Config{Factor: 0.01, Seed: 1}
	var n int64
	for i := 0; i < b.N; i++ {
		m, err := Generate(io.Discard, cfg)
		if err != nil {
			b.Fatal(err)
		}
		n = m
	}
	b.SetBytes(n)
}
