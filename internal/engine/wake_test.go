package engine

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"gcx/internal/dtd"
	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// The scheduler's wake rule (sched.go, wakeable): a parked member is
// resumed only when the node it recorded was touched. Two properties hold
// it: a skipped resume would have been a no-op — audited below by
// performing every one of them — and the handoffs a pass makes are an
// exact count.

// schemaPassCases are passes whose members block on waits only a schema
// fact ends: a NoMoreAfter fact on the context (MarkNoMore), a sealed
// star-loop context, an EMPTY element, and a condition the content model
// answers. Every case is valid against its DTD.
var schemaPassCases = []struct {
	name, dtd, doc string
	srcs           []string
}{
	{"no-more", siteDTD, schemaDoc(20, 300), []string{
		`<q>{ for $p in /site/people/person return $p/name }</q>`,
		`<q>{ for $p in /site/people/person return if (exists($p/id)) then <hit/> else () }</q>`,
		`<q>{ for $m in /site/head/meta return $m }</q>`,
		`<q>{ for $n in /site/tail/noise return <n/> }</q>`,
	}},
	{"seal-star", `
<!ELEMENT db (part*)>
<!ELEMENT part (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`, `<db>` + strings.Repeat(`<part><a>1</a><b>2</b></part>`, 40) + `</db>`, []string{
		`<q>{ for $c in /db/* return for $g in $c/* return <hit/> }</q>`,
		`<q>{ for $c in /db/part return $c/b }</q>`,
		`<q>{ for $c in /db/part return if ($c/a = $c/b) then <eq/> else <ne/> }</q>`,
	}},
	{"seal-empty", `
<!ELEMENT db (hr*)>
<!ELEMENT hr EMPTY>
`, `<db>` + strings.Repeat(`<hr></hr>`, 30) + `</db>`, []string{
		`<q>{ for $h in /db/* return for $c in $h/* return <hit/> }</q>`,
		`<q>{ for $h in /db/hr return <rule/> }</q>`,
	}},
	{"flush", `
<!ELEMENT bib (journal?, book*)>
<!ELEMENT journal (#PCDATA)>
<!ELEMENT book (title, price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`, `<bib>` + strings.Repeat(`<book><title>streaming xquery</title><price>10</price></book>`, 100) + `</bib>`, []string{
		`<q>{ if (exists(/bib/journal)) then (for $b in /bib/book return $b/title) else () }</q>`,
		`<q>{ for $b in /bib/book return $b/price }</q>`,
		`<q>{ for $b in /bib//title return $b }</q>`,
	}},
}

// TestSchemaPassMatchesSolo: a shared pass compiled against a DTD gives
// every member its schema-less solo bytes, at the solo demand schedule
// (batch 1), an odd batch and the default. The schema suites of
// schema_test.go and seal_test.go are solo runs; this is their shared
// form, where the facts reach blocked members through the wake rule.
func TestSchemaPassMatchesSolo(t *testing.T) {
	for _, tc := range schemaPassCases {
		schema, err := dtd.Parse(tc.dtd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := make([]string, len(tc.srcs))
		for i, src := range tc.srcs {
			want[i], _ = soloRun(t, src, tc.doc, ModeGCX)
		}
		for _, batch := range []int{1, 7, 0} {
			p, err := CompilePass(tc.srcs, Config{Mode: ModeGCX, Schema: schema}, batch)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Twice: the second run is on the pooled state of the first.
			for run := 0; run < 2; run++ {
				bufs := make([]*strings.Builder, len(tc.srcs))
				for i := range bufs {
					bufs[i] = &strings.Builder{}
				}
				if _, _, err := p.RunChecked(strings.NewReader(tc.doc), toIOWriters(bufs)); err != nil {
					t.Fatalf("%s batch %d run %d: %v", tc.name, batch, run, err)
				}
				for i := range bufs {
					if bufs[i].String() != want[i] {
						t.Errorf("%s batch %d run %d: member %d\n got %.200s\nwant %.200s",
							tc.name, batch, run, i, bufs[i].String(), want[i])
					}
				}
			}
		}
	}
}

// TestSkippedWakesAreNoOps reruns the shared-pass suites — equivalence at
// batch 1 and the default, the refill windows {1, 7, 64}, maximal node
// sharing, pooled reruns, the failure suite, the schema and sealing
// passes, the fleet, and the poisoned-slab reruns — with every skipped
// wake performed after all and checked to have changed nothing.
func TestSkippedWakesAreNoOps(t *testing.T) {
	audited := auditSkippedWakes(t)
	for _, s := range []struct {
		name string
		test func(*testing.T)
	}{
		{"WorkloadEquivalence", TestWorkloadEquivalence},
		{"WorkloadEquivalenceBatched", TestWorkloadEquivalenceBatched},
		{"RefillWindows", TestEquivalenceAcrossRefillWindows},
		{"SharedNodes", TestWorkloadSharedNodesMatchSolo},
		{"MatchesSoloOutputs", TestWorkloadMatchesSoloOutputs},
		{"PooledReruns", TestWorkloadPooledReruns},
		{"CollectedOperandReuse", TestCollectedOperandReuse},
		{"ProbeTable", TestProbeTableMatchesNestedLoop},
		{"ReadError", TestWorkloadReadErrorReachesEveryMember},
		{"MemberWriteFailure", TestWorkloadMemberWriteFailureIsIsolated},
		{"TruncatedInput", TestWorkloadTruncatedInput},
		{"AllWritersFailing", TestWorkloadAllWritersFailing},
		{"RecoversAfterFailure", TestWorkloadRecoversAfterFailure},
		{"WriterPanic", TestPassWriterPanic},
		{"StreamError", TestWorkloadStreamError},
		{"TTFR", TestWorkloadTTFRAbsentWithoutOutput},
		{"SchemaPass", TestSchemaPassMatchesSolo},
		{"Fleet", TestPassHandoffCounts},
		{"TextLifetime", TestTextLifetime},
	} {
		before := audited.Load()
		t.Run(s.name, s.test)
		t.Logf("%s: %d skipped wakes audited", s.name, audited.Load()-before)
	}
	if audited.Load() == 0 {
		t.Fatal("the audit saw no skipped wake: the suites above no longer exercise the rule")
	}
}

// TestPassHandoffCounts pins the scheduler's work on the registry-fleet
// document (128 KB XMark, seed 1): visits — rounds × live members, what
// every round cost when each visit was a resume — and the resumes left
// now that a member is woken only when its wait was touched. A resume is
// a call to the member's step function; the counts are exact, so a drift
// in either direction is a change to the wake rule or the round structure
// and must be explained, not absorbed.
func TestPassHandoffCounts(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(128 << 10), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		members                int
		visits, resumes, bound int64
	}{
		{10, 970, 302, 320},
		{64, 6208, 1931, 2000},
	} {
		p, err := CompilePass(queries.Variants(tc.members), Config{Mode: ModeGCX}, 0)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]io.Writer, tc.members)
		for i := range outs {
			outs[i] = io.Discard
		}
		// Twice: a pooled rerun makes the same handoffs.
		for run := 0; run < 2; run++ {
			_, rs := p.run(context.Background(), bytes.NewReader(doc.Bytes()), outs, nil)
			resumes, skips := rs.resumes, rs.skips
			for i, task := range rs.tasks {
				if task.err != nil {
					t.Fatalf("member %d: %v", i, task.err)
				}
			}
			p.release(rs)
			if resumes+skips != tc.visits {
				t.Errorf("%d members, run %d: %d visits (%d resumes + %d skips), want %d: the round structure moved",
					tc.members, run, resumes+skips, resumes, skips, tc.visits)
			}
			if resumes != tc.resumes || resumes > tc.bound {
				t.Errorf("%d members, run %d: %d resumes, want exactly %d (and <= %d; every visit resumed: %d)",
					tc.members, run, resumes, tc.resumes, tc.bound, tc.visits)
			}
		}
	}
}
