// Package borrowcheck enforces the tokenizer's zero-copy contract: a
// Token produced by a borrow-mode tokenizer — the *Token Next hands out,
// a copy of it, and any string or []byte derived from its Data — is a
// window subslice or tokenizer slot valid only until the next Next()
// call, so it must not outlive the statement flow that produced it. The analyzer taints values originating from xmlstream Next methods
// (and from functions annotated //gcxlint:borrowed) and reports flows
// that retain them: stores into struct fields, maps, slices, package
// variables, channel sends, returns from unannotated functions, and
// captures by closures.
//
// Copying kills the taint: strings.Clone, a string↔[]byte conversion, or
// append(dst, src...) all copy the bytes, and so does a same-package
// function annotated //gcxlint:borrowcopy — the buffer's text slab, which
// is how kept character data enters Node.Text. The walk is linear in
// source order, so a guarded copy
//
//	if borrowed { data = strings.Clone(data) }
//
// sanitizes every later use. A retention that is provably safe can be
// annotated //gcxlint:borrowok <reason>.
//
// The check is package-local: a same-package call that forwards borrowed
// data must be annotated //gcxlint:borrowed (which in turn taints that
// function's own string/[]byte/Token parameters) or //gcxlint:borrowcopy
// (parameters tainted alike, results owned — so its body must really
// copy). Cross-package calls are outside its horizon and rely on the
// callee's own analysis — the documented residual risk.
package borrowcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gcx/internal/lint/gcxlint"
)

// Analyzer is the borrowcheck pass.
var Analyzer = &gcxlint.Analyzer{
	Name: "borrowcheck",
	Doc:  "borrow-mode tokenizer windows must not be retained past the next Next()",
	Run:  run,
}

const xmlstreamSuffix = "internal/xmlstream"

func run(pass *gcxlint.Pass) error {
	if pass.PathHasSuffix(xmlstreamSuffix) {
		// The tokenizer package is the borrow implementation; its
		// internal window bookkeeping is the thing being borrowed from.
		return nil
	}
	c := &checker{pass: pass, decls: make(map[types.Object]*ast.FuncDecl)}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					c.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
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

	// Per-function walk state.
	fn       *ast.FuncDecl
	borrowed bool // current function is annotated //gcxlint:borrowed
	taint    map[types.Object]bool
}

func isBorrowedFunc(fd *ast.FuncDecl) bool { return gcxlint.HasDirective(fd, "borrowed") }

// isCopyFunc reports a //gcxlint:borrowcopy function: it accepts borrowed
// windows like a borrowed one, but what it returns is its own copy.
func isCopyFunc(fd *ast.FuncDecl) bool { return gcxlint.HasDirective(fd, "borrowcopy") }

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.fn = fd
	c.borrowed = isBorrowedFunc(fd)
	c.taint = make(map[types.Object]bool)

	if c.borrowed || isCopyFunc(fd) {
		// The annotation's meaning: this function's window-like
		// parameters are themselves borrowed, so its body must not
		// retain them either (and a borrowcopy body, whose results
		// callers treat as owned, must not return them).
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := c.pass.TypesInfo.Defs[name]
				if obj != nil && isWindowType(obj.Type()) {
					c.taint[obj] = true
				}
			}
		}
	}
	c.walkStmt(fd.Body)
}

// isWindowType reports whether a type can carry a borrowed window: a
// string, a byte slice, an xmlstream Token or a pointer to one, or a
// slice of Tokens.
func isWindowType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String
	case *types.Slice:
		return isWindowType(u.Elem())
	case *types.Struct, *types.Pointer:
		return isXMLStreamToken(t)
	}
	return false
}

// isXMLStreamToken reports an xmlstream Token, or a pointer to one: Next
// hands out the tokenizer's own slot.
func isXMLStreamToken(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Token" {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), xmlstreamSuffix)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// ---- statement walk (source order; branches processed sequentially) ----

func (c *checker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range st.List {
			c.walkStmt(sub)
		}
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				tainted := false
				if i < len(vs.Values) {
					tainted = c.walkExpr(vs.Values[i])
				}
				c.bind(name, tainted)
			}
		}
	case *ast.ExprStmt:
		c.walkExpr(st.X)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if c.walkExpr(r) && !c.borrowed {
				c.report(r.Pos(), "returns borrowed tokenizer bytes; clone them or annotate the function //gcxlint:borrowed")
			}
		}
	case *ast.SendStmt:
		c.walkExpr(st.Chan)
		if c.walkExpr(st.Value) {
			c.report(st.Value.Pos(), "sends borrowed tokenizer bytes over a channel; they may outlive the next Next()")
		}
	case *ast.IfStmt:
		c.walkStmt(st.Init)
		c.walkExpr(st.Cond)
		c.walkStmt(st.Body)
		c.walkStmt(st.Else)
	case *ast.ForStmt:
		c.walkStmt(st.Init)
		if st.Cond != nil {
			c.walkExpr(st.Cond)
		}
		c.walkStmt(st.Post)
		c.walkStmt(st.Body)
	case *ast.RangeStmt:
		tainted := c.walkExpr(st.X)
		for _, e := range [2]ast.Expr{st.Key, st.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if st.Tok == token.DEFINE {
				c.bind(id, tainted)
			} else {
				c.setTaint(id, tainted)
			}
		}
		c.walkStmt(st.Body)
	case *ast.SwitchStmt:
		c.walkStmt(st.Init)
		if st.Tag != nil {
			c.walkExpr(st.Tag)
		}
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				c.walkExpr(e)
			}
			for _, sub := range clause.Body {
				c.walkStmt(sub)
			}
		}
	case *ast.TypeSwitchStmt:
		c.walkStmt(st.Init)
		c.walkStmt(st.Assign)
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, sub := range clause.Body {
				c.walkStmt(sub)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CommClause)
			c.walkStmt(clause.Comm)
			for _, sub := range clause.Body {
				c.walkStmt(sub)
			}
		}
	case *ast.LabeledStmt:
		c.walkStmt(st.Stmt)
	case *ast.GoStmt:
		c.walkExpr(st.Call)
	case *ast.DeferStmt:
		c.walkExpr(st.Call)
	case *ast.IncDecStmt:
		c.walkExpr(st.X)
	}
}

// assign handles x := e / x = e / x, y = e and the store-shaped LHS
// violations.
func (c *checker) assign(st *ast.AssignStmt) {
	// Tuple form: tk, err := tok.Next().
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		perResult := c.callResultTaints(st.Rhs[0], len(st.Lhs))
		for i, lhs := range st.Lhs {
			c.assignOne(st, lhs, perResult[i])
		}
		return
	}
	for i, lhs := range st.Lhs {
		tainted := false
		if i < len(st.Rhs) {
			tainted = c.walkExpr(st.Rhs[i])
		}
		c.assignOne(st, lhs, tainted)
	}
}

func (c *checker) assignOne(st *ast.AssignStmt, lhs ast.Expr, tainted bool) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if st.Tok == token.DEFINE {
			c.bind(id, tainted)
		} else {
			c.setTaint(id, tainted)
		}
		return
	}
	if !tainted {
		// Still walk for nested closures on the LHS (rare).
		c.walkExpr(lhs)
		return
	}
	// Store through a selector/index/deref: find the root. Stores into a
	// value-typed local (a Token copy on the stack) merely taint the
	// local; anything else retains the window.
	if root, ok := c.localValueRoot(lhs); ok {
		c.taint[root] = true
		return
	}
	c.report(lhs.Pos(), "stores borrowed tokenizer bytes in %s; they are valid only until the next Next() — clone them first", describeLHS(lhs))
}

// localValueRoot walks to the root identifier of an LHS chain and reports
// whether it is a value-typed (struct or array) local variable, whose
// interior stores stay on this function's stack.
func (c *checker) localValueRoot(e ast.Expr) (types.Object, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				return nil, false
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() || !c.isLocal(obj) {
				return nil, false
			}
			switch obj.Type().Underlying().(type) {
			case *types.Struct, *types.Array:
				return obj, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

func (c *checker) isLocal(obj types.Object) bool {
	return obj.Parent() != c.pass.Pkg.Scope() && obj.Pos() >= c.fn.Pos() && obj.Pos() <= c.fn.End()
}

func describeLHS(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return "a struct field or package variable (" + x.Sel.Name + ")"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointed-to location"
	}
	return "an escaping location"
}

func (c *checker) bind(id *ast.Ident, tainted bool) {
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		// Re-declaration in a := with mixed new/old vars.
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj != nil {
		c.taint[obj] = tainted
	}
}

func (c *checker) setTaint(id *ast.Ident, tainted bool) {
	if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			if c.isLocal(obj) {
				c.taint[obj] = tainted
				return
			}
			if tainted {
				c.report(id.Pos(), "stores borrowed tokenizer bytes in %s, which outlives this call; clone them first", id.Name)
			}
		}
	}
}

// ---- expression walk: returns whether the value is borrow-tainted ----

func (c *checker) walkExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[x]
		return obj != nil && c.taint[obj]
	case *ast.ParenExpr:
		return c.walkExpr(x.X)
	case *ast.SelectorExpr:
		// tk.Data inherits tk's taint; package-qualified idents do not,
		// and neither do fields whose type cannot hold window bytes
		// (tk.Kind and tk.Sym are numbers — nothing to retain).
		if !c.walkExpr(x.X) {
			return false
		}
		if tv, ok := c.pass.TypesInfo.Types[x]; ok && tv.Type != nil && !isWindowType(tv.Type) && !isByteSlice(tv.Type) {
			return false
		}
		return true
	case *ast.StarExpr:
		return c.walkExpr(x.X)
	case *ast.UnaryExpr:
		return c.walkExpr(x.X)
	case *ast.SliceExpr:
		if x.Low != nil {
			c.walkExpr(x.Low)
		}
		if x.High != nil {
			c.walkExpr(x.High)
		}
		return c.walkExpr(x.X)
	case *ast.IndexExpr:
		c.walkExpr(x.Index)
		// Indexing a tainted slice of windows yields a window; indexing
		// a string/[]byte yields a byte, which cannot retain anything.
		if !c.walkExpr(x.X) {
			return false
		}
		if tv, ok := c.pass.TypesInfo.Types[e]; ok {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
				return false
			}
		}
		return true
	case *ast.BinaryExpr:
		lt := c.walkExpr(x.X)
		rt := c.walkExpr(x.Y)
		// Comparisons don't retain; concatenation may return an operand
		// unchanged (runtime concatstrings shortcut when the other side
		// is empty), so it stays tainted.
		if x.Op == token.ADD {
			return lt || rt
		}
		return false
	case *ast.CompositeLit:
		tainted := false
		for _, elt := range x.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if c.walkExpr(v) {
				tainted = true
			}
		}
		return tainted
	case *ast.TypeAssertExpr:
		return c.walkExpr(x.X)
	case *ast.FuncLit:
		c.checkClosure(x)
		return false
	case *ast.CallExpr:
		taints := c.callResultTaints(x, 1)
		return taints[0]
	}
	return false
}

// checkClosure reports tainted captures — a closure that references a
// borrowed window may run after the next Next() — and then walks the
// closure body so stores it performs are checked like any other code.
func (c *checker) checkClosure(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil || !c.taint[obj] {
			return true
		}
		// Captured if declared outside the closure.
		if obj.Pos() < fl.Pos() || obj.Pos() > fl.End() {
			c.report(id.Pos(), "closure captures borrowed tokenizer bytes (%s); they may be stale when it runs — clone them first", id.Name)
		}
		return true
	})
	c.walkStmt(fl.Body)
}

// callResultTaints evaluates a call (or any expression standing where a
// call may be) and returns the taint of each of n results.
func (c *checker) callResultTaints(e ast.Expr, n int) []bool {
	taints := make([]bool, n)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		t := c.walkExpr(e)
		for i := range taints {
			taints[i] = t
		}
		return taints
	}

	// Type conversion?
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		argTainted := c.walkExpr(call.Args[0])
		if !argTainted {
			return taints
		}
		// string([]byte) and []byte(string) copy; same-kind conversions
		// (string→string, named-slice re-typing) retain the window.
		src := c.pass.TypesInfo.Types[call.Args[0]].Type
		dst := tv.Type
		if (isByteSlice(src) && isString(dst)) || (isString(src) && isByteSlice(dst)) {
			return taints
		}
		taints[0] = argTainted
		return taints
	}

	// A directly-invoked func literal still gets its captures checked.
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		c.checkClosure(fl)
	}

	argTaints := make([]bool, len(call.Args))
	for i, a := range call.Args {
		argTaints[i] = c.walkExpr(a)
	}
	anyArgTainted := false
	for _, t := range argTaints {
		anyArgTainted = anyArgTainted || t
	}

	// Builtins and known sanitizers.
	switch fun := callee(call); {
	case fun == "append":
		// append(dst, src...) copies bytes out of src (src may be a
		// []byte or, for a []byte dst, a string); appending window
		// VALUES (strings, Tokens) into a slice retains their headers.
		if call.Ellipsis.IsValid() && len(call.Args) == 2 {
			if t := c.pass.TypesInfo.Types[call.Args[1]].Type; isByteSlice(t) || isString(t) {
				taints[0] = argTaints[0]
				return taints
			}
		}
		taints[0] = anyArgTainted
		return taints
	case fun == "copy", fun == "len", fun == "cap", fun == "min", fun == "max":
		return taints
	case fun == "strings.Clone", fun == "bytes.Clone":
		return taints
	}

	// Resolve the callee object for source/annotation checks.
	obj := calleeObject(c.pass, call)
	if obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			pkg := fn.Pkg()
			if pkg != nil && pathHasSuffix(pkg.Path(), xmlstreamSuffix) {
				// Borrow-mode source: any xmlstream API returning Token
				// values or pointers hands out window subslices.
				c.markTokenResults(call, taints)
				return taints
			}
			if pkg != nil && pkg == c.pass.Pkg {
				fd := c.decls[obj]
				if fd != nil && isCopyFunc(fd) {
					// Annotated copier: it accepts borrowed windows and
					// returns bytes of its own.
					return taints
				}
				if fd != nil && isBorrowedFunc(fd) {
					// Annotated forwarder: it may both accept and return
					// borrowed windows.
					c.markWindowResults(call, taints)
					return taints
				}
				if anyArgTainted {
					c.reportArg(call, argTaints, "passes borrowed tokenizer bytes to %s, which is not annotated //gcxlint:borrowed; it may retain them", fn.Name())
				}
				return taints
			}
		}
	}
	// Cross-package (or dynamic) call: outside the package-local
	// horizon. Results are treated as owned.
	return taints
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// markTokenResults taints the call's Token and *Token results.
func (c *checker) markTokenResults(call *ast.CallExpr, taints []bool) {
	c.markResults(call, taints, isXMLStreamToken)
}

// markWindowResults taints the call's string/[]byte/Token results.
func (c *checker) markWindowResults(call *ast.CallExpr, taints []bool) {
	c.markResults(call, taints, isWindowType)
}

func (c *checker) markResults(call *ast.CallExpr, taints []bool, pred func(types.Type) bool) {
	tv, ok := c.pass.TypesInfo.Types[call]
	if !ok {
		return
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len() && i < len(taints); i++ {
			if pred(t.At(i).Type()) {
				taints[i] = true
			}
		}
	default:
		if len(taints) > 0 && pred(t) {
			taints[0] = true
		}
	}
}

func callee(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name + "." + fun.Sel.Name
		}
	}
	return ""
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

// report emits a diagnostic unless a //gcxlint:borrowok suppression with
// a reason covers the line.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if d, ok := c.pass.Suppression("borrowok", pos); ok {
		if d.Args == "" {
			c.pass.Reportf(pos, "//gcxlint:borrowok requires a reason")
		}
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) reportArg(call *ast.CallExpr, argTaints []bool, format string, args ...any) {
	for i, t := range argTaints {
		if t {
			c.report(call.Args[i].Pos(), format, args...)
			return
		}
	}
	c.report(call.Pos(), format, args...)
}
