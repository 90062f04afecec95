package gcxlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Directive is one parsed //gcxlint:<verb> [args] comment. The grammar
// (documented in DESIGN.md) is deliberately tiny:
//
//	//gcxlint:keep <field> <reason>   resetcheck: field intentionally not reset
//	//gcxlint:noreset <reason>        resetcheck: pooled type intentionally has no Reset
//	//gcxlint:noalloc                 noalloccheck: function must not allocate
//	//gcxlint:allocok <reason>        noalloccheck: permit this line / calls to this decl
//	//gcxlint:borrowed                borrowcheck: func's string/[]byte/Token params+results are borrowed
//	//gcxlint:borrowcopy              borrowcheck: func copies its borrowed params; its results are owned
//	//gcxlint:borrowok <reason>       borrowcheck: permit this retention
//	//gcxlint:solorole <reason>       roleoffsetcheck: permit this untranslated role
//
// Every suppression verb requires a human-readable reason; analyzers
// report annotations whose reason is missing.
type Directive struct {
	Verb string
	Args string // raw remainder, space-trimmed
	Pos  token.Pos
}

const directivePrefix = "//gcxlint:"

var knownVerbs = map[string]bool{
	"keep":       true,
	"noreset":    true,
	"noalloc":    true,
	"allocok":    true,
	"borrowed":   true,
	"borrowcopy": true,
	"borrowok":   true,
	"solorole":   true,
}

// parseDirective parses a single comment, returning ok=false if it is not
// a gcxlint directive.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, directivePrefix)
	if !found {
		return Directive{}, false
	}
	verb, args, _ := strings.Cut(text, " ")
	return Directive{Verb: strings.TrimSpace(verb), Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// Directives returns the gcxlint directives attached to a comment group
// (a declaration doc comment or a struct field's doc/line comment).
func Directives(groups ...*ast.CommentGroup) []Directive {
	var ds []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok {
				ds = append(ds, d)
			}
		}
	}
	return ds
}

// HasDirective reports whether fd's doc comment carries a directive with
// the given verb — how the analyzers recognise an annotated function.
func HasDirective(fd *ast.FuncDecl, verb string) bool {
	for _, d := range Directives(fd.Doc) {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// directiveIndex locates directives by file line so analyzers can honor
// end-of-line and preceding-line suppressions without re-walking comments.
type directiveIndex struct {
	byLine  map[string]map[int][]Directive
	unknown []Diagnostic
}

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				if !knownVerbs[d.Verb] {
					idx.unknown = append(idx.unknown, Diagnostic{
						Pos:      d.Pos,
						Message:  fmt.Sprintf("unknown gcxlint directive verb %q", d.Verb),
						Analyzer: "gcxlint",
					})
					continue
				}
				pos := fset.Position(d.Pos)
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return idx
}

// Suppression returns the directive with the given verb that covers pos:
// one on the same source line (end-of-line comment) or on the line
// immediately above (own-line comment).
func (p *Pass) Suppression(verb string, pos token.Pos) (Directive, bool) {
	position := p.Fset.Position(pos)
	lines := p.directives.byLine[position.Filename]
	for _, line := range [2]int{position.Line, position.Line - 1} {
		for _, d := range lines[line] {
			if d.Verb == verb {
				return d, true
			}
		}
	}
	return Directive{}, false
}
