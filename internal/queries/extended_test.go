package queries

import (
	"strings"
	"testing"

	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/xmarkdtd"
)

// TestExtendedQueriesAgreeAcrossModes: the extended corpus passes the same
// cross-engine equivalence and balance checks as the Table 1 queries.
func TestExtendedQueriesAgreeAcrossModes(t *testing.T) {
	doc := testDoc(t)
	schema := dtd.MustParse(xmarkdtd.DTD)
	for _, q := range Extended() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			ref, err := engine.Compile(q.Text, engine.Config{Mode: engine.ModeFullBuffer})
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			if _, err := ref.Run(strings.NewReader(doc), &want); err != nil {
				t.Fatalf("reference: %v", err)
			}
			if want.Len() < 20 {
				t.Fatalf("suspiciously small output (%d bytes)", want.Len())
			}

			for _, cfg := range []engine.Config{
				{Mode: engine.ModeGCX},
				{Mode: engine.ModeGCX, Schema: schema},
				{Mode: engine.ModeStaticOnly},
			} {
				c, err := engine.Compile(q.Text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				if cfg.Mode == engine.ModeGCX {
					if _, err := c.RunChecked(strings.NewReader(doc), &got); err != nil {
						t.Fatalf("%v: %v", cfg, err)
					}
				} else {
					if _, err := c.Run(strings.NewReader(doc), &got); err != nil {
						t.Fatalf("%v: %v", cfg, err)
					}
				}
				if got.String() != want.String() {
					t.Fatalf("%v output differs\ngot:  %.300s\nwant: %.300s", cfg, got.String(), want.String())
				}
			}
		})
	}
}

// TestQ17Complement: persons with and without homepages partition the
// people section.
func TestQ17Complement(t *testing.T) {
	doc := testDoc(t)
	persons := strings.Count(doc, "<person ")
	withHomepage := strings.Count(doc, "<homepage>")

	c, err := engine.Compile(Q17.Text, engine.Config{Mode: engine.ModeGCX})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := c.Run(strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Count(out.String(), "<person>")
	if got != persons-withHomepage {
		t.Fatalf("Q17 found %d homepage-less persons, want %d-%d=%d",
			got, persons, withHomepage, persons-withHomepage)
	}
}

// TestQ5NumericFilter: every emitted price must satisfy the predicate
// (spot-check on the serialized output).
func TestQ5NumericFilter(t *testing.T) {
	doc := testDoc(t)
	c, err := engine.Compile(Q5.Text, engine.Config{Mode: engine.ModeGCX})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := c.Run(strings.NewReader(doc), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<sold><price>") {
		t.Fatalf("Q5 produced no sold items: %.200s", out.String())
	}
	// Total closed auctions must exceed qualifying ones (prices are
	// uniform over 1..400, so both sides of the threshold occur).
	auctions := strings.Count(doc, "<closed_auction>")
	sold := strings.Count(out.String(), "<sold>")
	if sold == 0 || sold >= auctions {
		t.Fatalf("Q5 selectivity implausible: %d of %d", sold, auctions)
	}
}
