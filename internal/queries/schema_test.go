package queries

import (
	"strings"
	"testing"

	"gcx/internal/dtd"
	"gcx/internal/engine"
	"gcx/internal/xmarkdtd"
)

// TestSchemaEquivalenceOnXMark: every benchmark query produces identical
// output with and without the XMark DTD, never reads more tokens with it,
// and keeps the role balance invariants.
func TestSchemaEquivalenceOnXMark(t *testing.T) {
	doc := testDoc(t)
	schema := dtd.MustParse(xmarkdtd.DTD)

	for _, q := range All() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			plain, err := engine.Compile(q.Text, engine.Config{Mode: engine.ModeGCX})
			if err != nil {
				t.Fatal(err)
			}
			var out1 strings.Builder
			st1, err := plain.RunChecked(strings.NewReader(doc), &out1)
			if err != nil {
				t.Fatal(err)
			}

			sch, err := engine.Compile(q.Text, engine.Config{Mode: engine.ModeGCX, Schema: schema})
			if err != nil {
				t.Fatal(err)
			}
			var out2 strings.Builder
			st2, err := sch.RunChecked(strings.NewReader(doc), &out2)
			if err != nil {
				t.Fatal(err)
			}

			if out1.String() != out2.String() {
				t.Fatalf("schema changed the result:\nplain:  %.300s\nschema: %.300s",
					out1.String(), out2.String())
			}
			if st2.TokensRead > st1.TokensRead {
				t.Fatalf("schema run read more tokens: %d vs %d", st2.TokensRead, st1.TokensRead)
			}
			if st2.Buffer.PeakNodes > st1.Buffer.PeakNodes {
				t.Fatalf("schema run buffered more: %d vs %d nodes",
					st2.Buffer.PeakNodes, st1.Buffer.PeakNodes)
			}
		})
	}
}

// TestSchemaSavesTokensOnQ13: Q13 only needs the regions section; the DTD
// proves regions cannot reappear after categories, so most of the stream
// is skipped.
func TestSchemaSavesTokensOnQ13(t *testing.T) {
	doc := testDoc(t)
	schema := dtd.MustParse(xmarkdtd.DTD)

	run := func(s *dtd.Schema) int64 {
		c, err := engine.Compile(Q13.Text, engine.Config{Mode: engine.ModeGCX, Schema: s})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		st, err := c.Run(strings.NewReader(doc), &out)
		if err != nil {
			t.Fatal(err)
		}
		return st.TokensRead
	}

	plain := run(nil)
	withSchema := run(schema)
	if withSchema*2 > plain {
		t.Fatalf("schema must cut Q13's token count at least in half: %d vs %d", withSchema, plain)
	}
}
