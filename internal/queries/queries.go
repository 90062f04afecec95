// Package queries contains the five XMark queries of the paper's
// evaluation (Section 7, Table 1), adapted to the fragment XQ exactly as
// the paper describes:
//
//   - XML attributes are treated as subelements (the tokenizer converts
//     them, so @id becomes the child element id);
//   - aggregations such as count($x) are replaced by outputting the value
//     of $x instead (we emit one marker or value element per qualifying
//     node);
//   - multi-step paths in for-loops become nested single-step loops (our
//     normalizer mechanizes this, so the texts below may use multi-step
//     paths for readability);
//   - where-clauses become if-then-else.
package queries

import (
	"fmt"
	"strings"
)

// Query couples a query text with its provenance.
type Query struct {
	// Name is the XMark query identifier, e.g. "Q1".
	Name string
	// Text is the adapted XQuery source.
	Text string
	// Description summarizes the original XMark query and the adaptation.
	Description string
}

// All returns the benchmark queries in Table 1 order.
func All() []Query {
	return []Query{Q1, Q6, Q8, Q13, Q20}
}

// Variants builds n distinct query texts from the Table 1 catalog:
// template i mod 5 wrapped in a per-index result element. The projection
// spines — the part a shared pass's merged automaton shares — repeat
// across the variants of one template while the texts (and outputs) stay
// distinct: the subscription-scale benchmarks' fleet, and the nested
// benchmark module's (benchmark/workloads.go builds the same texts).
func Variants(n int) []string {
	templates := All()
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("<v%d>{ %s }</v%d>", i, strings.TrimSpace(templates[i%len(templates)].Text), i)
	}
	return texts
}

// ByName returns the query with the given name (case-sensitive), or a zero
// Query if unknown.
func ByName(name string) Query {
	for _, q := range All() {
		if q.Name == name {
			return q
		}
	}
	return Query{}
}

// Q1: "Return the name of the person with ID person0."
// Original: for $b in /site/people/person[@id="person0"] return $b/name.
// Adapted: the predicate becomes an if over the id subelement.
var Q1 = Query{
	Name: "Q1",
	Text: `<q1>{
  for $b in /site/people/person return
    if ($b/id = "person0") then $b/name else ()
}</q1>`,
	Description: "exact-match filter over the people region; constant-memory streaming for GCX",
}

// Q6: "How many items are listed on all continents?"
// Original: count(//regions//item). Adapted per the paper: the aggregate
// is replaced by outputting the value (one element per item, carrying the
// item's name). The descendant axis is the point of this query — the paper
// notes FluXQuery cannot run it ("n/a" in Table 1).
var Q6 = Query{
	Name: "Q6",
	Text: `<q6>{
  for $r in /site/regions return
    for $i in $r//item return
      <item>{ $i/name }</item>
}</q6>`,
	Description: "descendant-axis scan over all regions; constant-memory streaming for GCX",
}

// Q8: "List the names of persons and the number of items they bought."
// Original: a join of people with closed_auctions on buyer/@person with
// count over the matches. Adapted: one <bought/> marker per matching
// purchase (count replaced by value output). The inner loop re-iterates
// the closed_auctions region for every person (from the third person on
// through the evaluator's probe table, see DESIGN.md), so the region must
// stay buffered until the end — the memory-versus-time behaviour Table 1
// shows for Q8.
var Q8 = Query{
	Name: "Q8",
	Text: `<q8>{
  for $p in /site/people/person return
    <item>{
      ($p/name,
       for $t in /site/closed_auctions/closed_auction return
         if ($t/buyer/person = $p/id) then <bought/> else ())
    }</item>
}</q8>`,
	Description: "nested-loop value join people ⋈ closed_auctions; buffer grows with the inner region",
}

// Q13: "List the names of items registered in Australia along with their
// descriptions." Original: for $i in /site/regions/australia/item return
// <item name="{$i/@name}">{$i/description}</item>. Adapted: the name
// attribute of the output element becomes a child element.
var Q13 = Query{
	Name: "Q13",
	Text: `<q13>{
  for $i in /site/regions/australia/item return
    <item>{ ($i/name, $i/description) }</item>
}</q13>`,
	Description: "path-restricted scan with subtree output; constant-memory streaming for GCX",
}

// Q20: "Group customers by their income." Original: four count()
// aggregates over income brackets (income is a profile attribute).
// Adapted: single pass over people emitting one bracket marker per person
// (counts replaced by value output, multi-step paths split, attributes as
// subelements) — the single-step-per-loop form of [7] that the paper
// benchmarks.
var Q20 = Query{
	Name: "Q20",
	Text: `<q20>{
  for $p in /site/people/person return
    (if ($p/profile/income >= 100000) then <preferred/> else (),
     if ($p/profile/income < 100000 and $p/profile/income >= 30000) then <standard/> else (),
     if ($p/profile/income < 30000) then <challenge/> else (),
     if (not(exists($p/profile/income))) then <na/> else ())
}</q20>`,
	Description: "income bracket classification; constant-memory streaming for GCX",
}
