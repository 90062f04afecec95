package engine

import (
	"strings"
	"testing"

	"gcx/internal/static"
)

// TestRegressionTextVarElimination is the minimized counterexample found
// by TestTheorem1Equivalence (seed -8509200338473775066): a text() output
// loop inside a navigation-transparent body. Criterion 2 of redundant-role
// elimination must not eliminate the binding role of a text-binding
// variable — text nodes carry no dos dependency, so the binding role is
// the only thing keeping the emitted text buffered across the first
// (match-less) pass.
func TestRegressionTextVarElimination(t *testing.T) {
	src := `<out>{ ($root/d/e, $root//d/text()) }</out>`
	doc := `<root><d>1<c><a>xperson0</a>71</c>x</d><a>1</a></root>`
	want := `<out>1x</out>`

	for _, cfg := range allConfigs() {
		got, _ := runQuery(t, src, doc, cfg)
		if got != want {
			t.Fatalf("%s %+v:\ngot  %s\nwant %s", cfg.Mode, cfg.Static, got, want)
		}
	}
}

// TestRegressionOverlappingDescendantAnchors is the minimized
// counterexample found by TestTheorem1Equivalence (seed
// -1002668537322759271): under overlapping descendant steps (//*//*),
// one element's frame anchors instances of two different variables, and
// signOff cancellation keyed on (role, anchor frame) wrongly suppressed
// the binding-role assignment of a later, separate binding instance of
// the same variable — whose own signOff then failed with an undefined
// removal. Cancellation must only suppress chain continuations (Var ==
// "" projection nodes), never fresh variable matches.
func TestRegressionOverlappingDescendantAnchors(t *testing.T) {
	src := `<out>{ for $v1 in $root//*//* return text { "t" } }</out>`
	docs := []struct{ doc, want string }{
		{`<root><c><a><b></b></a></c></root>`, "<out>" + strings.Repeat("t", 6) + "</out>"},
		{`<root><c><a><c><b></b></c><c><e><e></e></e>x</c></a><a>person0<d><b>yy</b><a><b></b><a></a></a></d>yy</a></c><b></b><d></d></root>`,
			"<out>" + strings.Repeat("t", 47) + "</out>"},
	}
	for _, d := range docs {
		for _, cfg := range allConfigs() {
			got, _ := runQuery(t, src, d.doc, cfg)
			if got != d.want {
				t.Fatalf("%s %+v:\ngot  %s\nwant %s", cfg.Mode, cfg.Static, got, d.want)
			}
		}
	}
}

// TestRegressionFirstWitnessPerInstance is the minimized counterexample
// found by TestTheorem1Equivalence (seed -9075395493618128140): the [1]
// first-witness suppression was keyed per (owner frame, projection node),
// but one element can host several instances of the same projection node
// — one per anchoring variable binding under overlapping descendant steps
// (//c below //*). Each instance owns its own witness: signOff resolution
// removes one role instance per derivation, so suppressing the second
// instance's witness assignment left its signOff with an undefined
// removal.
func TestRegressionFirstWitnessPerInstance(t *testing.T) {
	src := `<out>{ for $v1 in $root//* return if (exists($v1//c//b)) then text { "t" } else () }</out>`
	docs := []struct{ doc, want string }{
		// root and the outer c both anchor a //c instance at the inner c.
		{`<root><c><c><b></b></c></c></root>`, "<out>tt</out>"},
		{`<root><c><a><c><b></b></c></a></c></root>`, "<out>ttt</out>"},
		// The original (unminimized) counterexample document.
		{`<root><a><c>x</c></a><b></b><c>xperson0<a><c>xperson0yy</c>1<c><a><b></b></a></c></a></c></root>`,
			"<out>ttt</out>"},
	}
	for _, d := range docs {
		for _, cfg := range allConfigs() {
			got, _ := runQuery(t, src, d.doc, cfg)
			if got != d.want {
				t.Fatalf("%s %+v:\ngot  %s\nwant %s", cfg.Mode, cfg.Static, got, d.want)
			}
		}
	}
}

// TestRegressionCancelOneInstance is the minimized counterexample found
// by TestTheorem1Equivalence (seed -8741672307750023696): an element can
// carry several derivation instances of one output role (//b below //*
// reaches b once per ancestor binding, merged into one capture), and a
// signOff executed while the element is still open must retire exactly
// ONE instance — deactivating the whole capture starved the remaining
// instance's descendants of the role, so its own later signOff failed
// with an undefined removal. The unexecuted else-branch matters: without
// it the loop body serializes b, which forces the closing tag to be read
// before the signOff, hiding the unfinished-subtree path.
//
// The last two cases are the two ways a chain candidate's multiplicity
// can exceed its signed-off instances while these are above 0; a signOff
// must take exactly the retired instance's share of it:
//
//   - b is bound to $y twice, once per a; the outer binding's comparison
//     is answered by the first c and signs off while b is open. The
//     second c still belongs to the inner binding, so its text must stay
//     buffered (taking the share twice, at c and again at its capture,
//     lost it: <miss/>).
//   - one binding of $y reaches the second c twice, through both a; its
//     signOff retires the only instance, so nothing of the second c may
//     keep the role (taking one derivation per signOff left it there
//     with no signOff to come: an unbalanced buffer).
//
// Each case also runs as a member of a three-member pass, where every
// projection node carries three role lanes, scheduled a token at a time
// so that every member signs off at its solo position.
func TestRegressionCancelOneInstance(t *testing.T) {
	const elseBranch = `<out>{ if (true()) then text { "t" } else <x>{ $root//*//b }</x> }</out>`
	cases := []struct{ src, doc, want string }{
		{elseBranch, `<root><a><b>42<e>x</e></b></a></root>`, "<out>t</out>"},
		{elseBranch, `<root><c></c><a>person0<b>42<e>person0</e></b></a><a>1</a></root>`, "<out>t</out>"},
		{`<q>{ for $x in //a return for $y in $x//b return
		      if (exists($x/e)) then (if ($y/c = "v1") then <hit/> else <miss/>)
		      else (if ($y/c = "v2") then <hit/> else <miss/>) }</q>`,
			`<r><a><e/><a><b><c>v1</c><c>v2</c></b></a></a></r>`, "<q><hit></hit><hit></hit></q>"},
		{`<q>{ for $y in /r/x return if ($y//a//b/c = "v1") then <hit/> else <miss/> }</q>`,
			`<r><x><a><a><b><c>v1</c><c>v2</c></b></a></a></x></r>`, "<q><hit></hit></q>"},
	}
	for _, c := range cases {
		for _, cfg := range allConfigs() {
			got, _ := runQuery(t, c.src, c.doc, cfg)
			if got != c.want {
				t.Fatalf("%s %+v:\n%s\ngot  %s\nwant %s", cfg.Mode, cfg.Static, c.src, got, c.want)
			}
		}
		got, _, _ := runWorkload(t, []string{c.src, c.src, c.src}, c.doc, ModeGCX, 1)
		for i := range got {
			if got[i] != c.want {
				t.Fatalf("pass member %d:\n%s\ngot  %s\nwant %s", i, c.src, got[i], c.want)
			}
		}
	}
}

// TestTextVarBindingRoleSurvivesElimination pins the static-analysis side
// of the regression: the binding role of a text() loop variable stays
// active even under full optimization.
func TestTextVarBindingRoleSurvivesElimination(t *testing.T) {
	opts := static.AllOptimizations()
	c := compile(t, `<out>{ for $tv in /root/d/text() return $tv }</out>`,
		Config{Mode: ModeGCX, Static: &opts})
	found := false
	for _, r := range c.Analysis.Tree.Roles[1:] {
		if r.Var == "tv" && r.Kind.String() == "binding" {
			found = true
			if r.Eliminated {
				t.Fatal("text-binding role must never be eliminated")
			}
		}
	}
	if !found {
		t.Fatal("text loop variable not found in role table")
	}
	// And the run produces the text.
	var out strings.Builder
	if _, err := c.RunChecked(strings.NewReader(`<root><d>ab<x/>cd</d></root>`), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "<out>abcd</out>" {
		t.Fatalf("got %s", out.String())
	}
}
