// Package noalloccheck turns the repo's whole-run AllocsPerRun gates into
// line-level findings: a function annotated //gcxlint:noalloc (the
// tokenizer scan loop, projector transition, evaluator step, and
// buffer-arena fast paths) is flagged for every allocating construct it
// contains.
//
// Flagged constructs: make/new, slice and map literals, &composite
// literals, func literals, go statements, string↔[]byte conversions,
// fmt.* and other known allocating calls, strings.Builder/bytes.Buffer
// declarations, interface boxing of concrete values at call sites, and
// append onto a function-local slice (pooled scratch lives in fields or
// parameters, which stay exempt).
//
// Two escapes exist, both requiring a reason. A deliberate allocation
// site (an interning copy, a cold path) carries //gcxlint:allocok
// <reason> on its line; a same-package helper that is *allowed* to
// allocate when called from noalloc code (an error constructor) carries
// the same directive on its declaration. Conversions used only for
// comparison — map index keys, switch tags, == operands — are exempt
// because the compiler does not materialize them.
//
// Calls to same-package functions must themselves be //gcxlint:noalloc
// (or declaration-level allocok): the annotation is made to spread along
// the hot path, which is exactly how the hot path stays documented.
// Cross-package and dynamic calls are outside the package-local horizon.
package noalloccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gcx/internal/lint/gcxlint"
)

// Analyzer is the noalloccheck pass.
var Analyzer = &gcxlint.Analyzer{
	Name: "noalloccheck",
	Doc:  "functions annotated //gcxlint:noalloc must not contain allocating constructs",
	Run:  run,
}

func run(pass *gcxlint.Pass) error {
	c := &checker{pass: pass, decls: make(map[types.Object]*ast.FuncDecl)}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				c.decls[obj] = fd
			}
			// Validate declaration-level allocok reasons everywhere,
			// not just on called functions.
			for _, dir := range gcxlint.Directives(fd.Doc) {
				if dir.Verb == "allocok" && dir.Args == "" {
					pass.Reportf(fd.Name.Pos(), "declaration-level //gcxlint:allocok on %s requires a reason", fd.Name.Name)
				}
			}
		}
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && gcxlint.HasDirective(fd, "noalloc") {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

func isTestFile(pass *gcxlint.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

type checker struct {
	pass  *gcxlint.Pass
	decls map[types.Object]*ast.FuncDecl
	born  map[types.Object]bool // current function's locally-born slices
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	exemptConv := collectComparisonPositions(fd.Body)
	c.born = collectLocallyBorn(c.pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			c.report(x.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			c.report(x.Pos(), "func literal allocates a closure")
		case *ast.ValueSpec:
			c.checkBuilderDecl(x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					c.report(x.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := c.pass.TypesInfo.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.report(x.Pos(), "slice or map literal allocates")
				}
			}
		case *ast.CallExpr:
			c.checkCall(x, exemptConv)
		}
		return true
	})
}

// checkCall dispatches the call-shaped rules: conversions, builtins,
// known allocators, boxing, and the same-package annotation cascade.
func (c *checker) checkCall(call *ast.CallExpr, exemptConv map[ast.Expr]bool) {
	// Type conversion.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if exemptConv[call] {
			return
		}
		src := c.pass.TypesInfo.Types[call.Args[0]].Type
		dst := tv.Type
		if stringSliceConversion(src, dst) {
			c.report(call.Pos(), "string conversion allocates and copies")
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "append":
				c.checkAppend(call)
			}
			return
		}
	}

	obj := calleeObject(c.pass, call)
	if fn, ok := obj.(*types.Func); ok {
		if pkg := fn.Pkg(); pkg != nil {
			if pkg.Path() == "fmt" {
				c.report(call.Pos(), "call to fmt.%s allocates", fn.Name())
				return
			}
			if allocatingCalls[pkg.Path()+"."+fn.Name()] {
				c.report(call.Pos(), "call to %s.%s allocates", pkg.Path(), fn.Name())
				return
			}
			if pkg == c.pass.Pkg {
				if fd, ok := c.decls[obj]; ok {
					if !gcxlint.HasDirective(fd, "noalloc") && !gcxlint.HasDirective(fd, "allocok") {
						c.report(call.Pos(), "call to %s, which is neither //gcxlint:noalloc nor declared //gcxlint:allocok", fn.Name())
						return
					}
				}
			}
		}
	}

	c.checkBoxing(call)
}

// checkAppend flags appends whose destination slice was born inside this
// function: growing a local slice is an allocation treadmill, whereas
// appending into pooled scratch (a field, a parameter, or a reslice of
// either) amortizes to zero.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	root, born := c.appendDest(call.Args[0])
	if born {
		c.report(call.Pos(), "append to function-local slice %s allocates; reuse pooled scratch (a field or parameter)", root)
	}
}

// appendDest resolves the append destination to its root object and
// reports whether that object is a function-local slice (see
// collectLocallyBorn).
func (c *checker) appendDest(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				return x.Name, false
			}
			return x.Name, c.born[obj]
		default:
			return "", false
		}
	}
}

// checkBuilderDecl flags declarations of growable buffer types; their
// write methods allocate as they grow.
func (c *checker) checkBuilderDecl(vs *ast.ValueSpec) {
	for _, name := range vs.Names {
		obj := c.pass.TypesInfo.Defs[name]
		if obj == nil {
			continue
		}
		t := obj.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key := ""
			if named.Obj().Pkg() != nil {
				key = named.Obj().Pkg().Path() + "." + named.Obj().Name()
			}
			if key == "strings.Builder" || key == "bytes.Buffer" {
				c.report(name.Pos(), "%s grows by allocating", key)
			}
		}
	}
}

// checkBoxing flags concrete non-pointer values converted to interface
// parameters at a call: the conversion heap-allocates the value.
func (c *checker) checkBoxing(call *ast.CallExpr) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		param := paramType(sig, i, call.Ellipsis.IsValid())
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := c.pass.TypesInfo.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		argType := at.Type
		switch argType.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
			// Pointer-shaped: stored directly in the interface word.
			continue
		}
		c.report(arg.Pos(), "interface boxing of %s allocates at this call", argType)
	}
}

// paramType returns the static parameter type for argument i, expanding
// the variadic tail.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if ellipsis {
			return last
		}
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// allocatingCalls names stdlib functions that always allocate their
// result; fmt.* is handled wholesale.
var allocatingCalls = map[string]bool{
	"strings.Clone":      true,
	"strings.Join":       true,
	"strings.Repeat":     true,
	"strings.Replace":    true,
	"strings.ReplaceAll": true,
	"strings.ToUpper":    true,
	"strings.ToLower":    true,
	"strings.Fields":     true,
	"strings.Split":      true,
	"bytes.Clone":        true,
	"bytes.Join":         true,
	"errors.New":         true,
	"errors.Join":        true,
	"strconv.Itoa":       true,
	"strconv.Quote":      true,
	"strconv.FormatInt":  true,
	"strconv.FormatUint": true,
}

func stringSliceConversion(src, dst types.Type) bool {
	return (isString(src) && isCharSlice(dst)) || (isCharSlice(src) && isString(dst))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isCharSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// collectComparisonPositions gathers conversion call nodes that sit in
// compare-only positions — map index keys, switch tags, and ==/!=/</>
// operands — where the compiler elides the copy.
func collectComparisonPositions(body *ast.BlockStmt) map[ast.Expr]bool {
	exempt := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		if e == nil {
			return
		}
		exempt[ast.Unparen(e)] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			mark(x.Index)
		case *ast.BinaryExpr:
			switch x.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				mark(x.X)
				mark(x.Y)
			}
		case *ast.SwitchStmt:
			mark(x.Tag)
		}
		return true
	})
	return exempt
}

// collectLocallyBorn finds local slice variables every one of whose
// bindings allocates fresh backing (nil declaration, make, literal, or
// an append chain rooted in one); appends to these can never amortize.
func collectLocallyBorn(pass *gcxlint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	born := make(map[types.Object]bool)
	doomed := make(map[types.Object]bool) // saw a non-born binding

	var exprBorn func(e ast.Expr) bool
	exprBorn = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						return true
					case "append":
						if len(x.Args) > 0 {
							return exprBorn(x.Args[0])
						}
					}
				}
			}
			return false
		case *ast.CompositeLit:
			return true
		case *ast.SliceExpr:
			return exprBorn(x.X)
		case *ast.Ident:
			if x.Name == "nil" {
				return true
			}
			obj := pass.TypesInfo.Uses[x]
			return obj != nil && born[obj]
		}
		return false
	}

	bind := func(id *ast.Ident, b bool) {
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		if b && !doomed[obj] {
			born[obj] = true
		} else {
			doomed[obj] = true
			delete(born, obj)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if i < len(x.Rhs) {
					bind(id, exprBorn(x.Rhs[i]))
				} else {
					bind(id, false) // tuple assignment from a call
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if i < len(x.Values) {
					bind(id, exprBorn(x.Values[i]))
				} else {
					bind(id, true) // var x []T — nil backing
				}
			}
		}
		return true
	})
	return born
}

func calleeObject(pass *gcxlint.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// report emits a diagnostic unless an //gcxlint:allocok suppression with
// a reason covers the line.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if d, ok := c.pass.Suppression("allocok", pos); ok {
		if d.Args == "" {
			c.pass.Reportf(pos, "//gcxlint:allocok requires a reason")
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}
