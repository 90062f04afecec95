package dtd

// Glushkov (position automaton) analysis of content models.
//
// Every occurrence of an element name in a content model is a *position*.
// The standard nullable/first/last/follow construction yields, for each
// position p, the set follow(p) of positions that can come directly after
// p in some word of the model. The transitive closure of follow gives
// "can eventually come after"; projecting positions back to tags answers
// the question the blocking cursors ask: after a child with tag d has been
// seen, can a child with tag c still arrive?

import (
	"slices"

	"gcx/internal/xmlstream"
)

type position int

// glushkov accumulates the construction state.
type glushkov struct {
	tags   []xmlstream.Sym // tag per position
	follow map[[2]position]bool
}

type nfl struct {
	nullable bool
	first    []position
	last     []position
}

func (g *glushkov) newPos(tag xmlstream.Sym) position {
	g.tags = append(g.tags, tag)
	return position(len(g.tags) - 1)
}

func (g *glushkov) connect(from []position, to []position) {
	for _, f := range from {
		for _, t := range to {
			g.follow[[2]position{f, t}] = true
		}
	}
}

// build computes nullable/first/last and fills the follow relation.
func (g *glushkov) build(m model) nfl {
	switch m := m.(type) {
	case mName:
		p := g.newPos(m.tag)
		return nfl{nullable: false, first: []position{p}, last: []position{p}}
	case mEmpty, mPCData, mAny, nil:
		return nfl{nullable: true}
	case mSeq:
		out := nfl{nullable: true}
		var lasts []position
		for _, item := range m.items {
			r := g.build(item)
			g.connect(lasts, r.first)
			if out.nullable {
				out.first = append(out.first, r.first...)
			}
			if r.nullable {
				lasts = append(lasts, r.last...)
			} else {
				lasts = r.last
			}
			out.nullable = out.nullable && r.nullable
		}
		out.last = lasts
		return out
	case mChoice:
		out := nfl{}
		for _, item := range m.items {
			r := g.build(item)
			out.nullable = out.nullable || r.nullable
			out.first = append(out.first, r.first...)
			out.last = append(out.last, r.last...)
		}
		return out
	case mRep:
		r := g.build(m.item)
		if m.repeat {
			g.connect(r.last, r.first)
		}
		return nfl{nullable: r.nullable || m.min0, first: r.first, last: r.last}
	default:
		return nfl{nullable: true}
	}
}

// analyze derives the per-element facts from a content model.
func analyze(m model) *elementInfo {
	info := &elementInfo{
		tags:        map[xmlstream.Sym]bool{},
		noMoreAfter: map[xmlstream.Sym][]xmlstream.Sym{},
		mandatory:   map[xmlstream.Sym]bool{},
		complete:    map[xmlstream.Sym]bool{},
	}
	if _, isAny := m.(mAny); isAny {
		info.any = true
		return info
	}
	if _, isEmpty := m.(mEmpty); isEmpty {
		info.empty = true
		return info
	}

	g := &glushkov{follow: map[[2]position]bool{}}
	g.build(m)
	for _, tag := range g.tags {
		info.tags[tag] = true
		if mandatory(m, tag) {
			info.mandatory[tag] = true
		}
	}
	n := len(g.tags)

	// Transitive closure of follow ("can come strictly after").
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for e := range g.follow {
		reach[e[0]][e[1]] = true
	}
	for k := range n {
		for i := range n {
			if !reach[i][k] {
				continue
			}
			for j := range n {
				reach[i][j] = reach[i][j] || reach[k][j]
			}
		}
	}

	// after[{d, c}]: a position of tag c is reachable from one of tag d;
	// open[d]: some position of tag d has a successor.
	after := map[[2]xmlstream.Sym]bool{}
	open := map[xmlstream.Sym]bool{}
	for p := range n {
		for q := range n {
			if reach[p][q] {
				after[[2]xmlstream.Sym{g.tags[p], g.tags[q]}] = true
				open[g.tags[p]] = true
			}
		}
	}
	for d := range info.tags {
		var dead []xmlstream.Sym
		for c := range info.tags {
			if !after[[2]xmlstream.Sym{d, c}] {
				dead = append(dead, c)
			}
		}
		if len(dead) > 0 {
			slices.Sort(dead)
			info.noMoreAfter[d] = dead
		}
		// Tag d finishes the model when no position labeled d has a
		// successor: every occurrence of d is final in every word, so
		// once a d child closes, the parent's content is done. Mixed
		// content self-excludes: its global repetition gives every
		// position a successor.
		if !open[d] {
			info.complete[d] = true
		}
	}
	return info
}

// mandatory reports whether tag occurs in every word of m: a name if it
// is the tag, a sequence if any item is, a choice if every branch is, a
// repetition if it cannot be absent and its item is.
func mandatory(m model, tag xmlstream.Sym) bool {
	switch m := m.(type) {
	case mName:
		return m.tag == tag
	case mSeq:
		return slices.ContainsFunc(m.items, func(item model) bool { return mandatory(item, tag) })
	case mChoice:
		return !slices.ContainsFunc(m.items, func(item model) bool { return !mandatory(item, tag) })
	case mRep:
		return !m.min0 && mandatory(m.item, tag)
	}
	return false
}
