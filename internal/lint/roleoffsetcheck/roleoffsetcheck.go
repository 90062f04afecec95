// Package roleoffsetcheck guards the eval/engine role-space boundary
// introduced with merged workloads: member queries are compiled with solo
// role IDs, but the shared buffer indexes its role tables in the merged
// space, so every role ID an evaluator (or the pass's accounting) hands
// to the buffer must first pass through the RoleOffset/Offsets
// translation. The workload equivalence suite can only probe this
// probabilistically; here it is a syntactic proof obligation.
//
// Within packages on the boundary (import-path suffix internal/eval or
// internal/engine, which owns the pass runtime), any Role-typed argument
// to a buffer role API —
// SignOff, AddRole, AssignedCount, RemovedCount on a type from
// internal/buffer — must derive from an expression that mentions
// RoleOffset or Offsets, directly or through a local variable assigned
// from one. A deliberate solo-space use is annotated
// //gcxlint:solorole <reason>.
package roleoffsetcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"gcx/internal/lint/gcxlint"
)

// Analyzer is the roleoffsetcheck pass.
var Analyzer = &gcxlint.Analyzer{
	Name: "roleoffsetcheck",
	Doc:  "role IDs crossing into the buffer must pass through the RoleOffset translation",
	Run:  run,
}

var roleAPIs = map[string]bool{
	"SignOff":       true,
	"AddRole":       true,
	"AssignedCount": true,
	"RemovedCount":  true,
}

func run(pass *gcxlint.Pass) error {
	if !pass.PathHasSuffix("internal/eval") && !pass.PathHasSuffix("internal/engine") {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *gcxlint.Pass, fd *ast.FuncDecl) {
	translated := make(map[types.Object]bool)

	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if x.Name == "RoleOffset" || x.Name == "Offsets" {
					found = true
				} else if obj := pass.TypesInfo.Uses[x]; obj != nil && translated[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Source-order walk: record which locals hold translated roles, and
	// check buffer role-API call arguments as they appear.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || i >= len(x.Rhs) {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				translated[obj] = mentions(x.Rhs[i])
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if i >= len(x.Values) {
					continue
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					translated[obj] = mentions(x.Values[i])
				}
			}
		case *ast.CallExpr:
			checkCall(pass, x, mentions)
		}
		return true
	})
}

func checkCall(pass *gcxlint.Pass, call *ast.CallExpr, mentions func(ast.Expr) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !roleAPIs[sel.Sel.Name] {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	recv := fn.Signature().Recv()
	if recv == nil || !isBufferType(recv.Type()) {
		return
	}
	sig := fn.Signature()
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		if !isRoleType(sig.Params().At(i).Type()) {
			continue
		}
		if mentions(arg) {
			continue
		}
		if d, suppressed := pass.Suppression("solorole", arg.Pos()); suppressed {
			if d.Args == "" {
				pass.Reportf(arg.Pos(), "//gcxlint:solorole requires a reason")
			}
			continue
		}
		pass.Reportf(arg.Pos(), "role ID passed to buffer %s without the RoleOffset translation; solo role IDs do not index the merged role table (annotate //gcxlint:solorole <reason> if deliberate)", sel.Sel.Name)
	}
}

func isBufferType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pathHasSuffix(pkg.Path(), "internal/buffer")
}

func isRoleType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Role" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/xqast")
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
