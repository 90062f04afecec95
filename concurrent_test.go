package gcx

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// TestConcurrentRuns: each evaluation is single-threaded (the paper's
// strictly sequential semantics), but a compiled Engine holds only
// immutable analysis results, so independent runs may proceed in parallel
// goroutines.
func TestConcurrentRuns(t *testing.T) {
	eng := MustCompile(`<out>{
	    for $b in /bib/book return
	        if (exists($b/price)) then $b/title else ()
	}</out>`)

	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 300; i++ {
		doc.WriteString("<book><title>T</title><price>5</price></book>")
		doc.WriteString("<book><title>U</title></book>")
	}
	doc.WriteString("</bib>")

	want, _, err := eng.RunString(doc.String())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := eng.RunString(doc.String())
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- &mismatchError{}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentColdSchemaRuns: cold runs of one WithDTD engine start
// together, so that several run states are built at once and each binds
// the engine's one schema to its own symbol table. Under -race it holds
// that binding only reads the shared schema; every run must match a run
// of an engine of its own.
func TestConcurrentColdSchemaRuns(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(32 << 10), Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries.All() {
		want, _, err := MustCompile(q.Text, WithDTD(XMarkDTD)).RunString(doc.String())
		if err != nil {
			t.Fatal(err)
		}
		eng := MustCompile(q.Text, WithDTD(XMarkDTD))
		var start, done sync.WaitGroup
		start.Add(1)
		got := make([]string, 4)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i], _, _ = eng.RunString(doc.String())
			}()
		}
		start.Done()
		done.Wait()
		for i := range got {
			if got[i] != want {
				t.Fatalf("%s: concurrent cold run %d differs from a run of its own engine", q.Name, i)
			}
		}
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent run output mismatch" }
