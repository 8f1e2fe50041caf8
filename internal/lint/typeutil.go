package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Import paths of the simulation layers the analyzers know about.
const (
	enginePkgPath = "simdhtbench/internal/engine"
	faultPkgPath  = "simdhtbench/internal/fault"
	memPkgPath    = "simdhtbench/internal/mem"
	vecPkgPath    = "simdhtbench/internal/vec"
)

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isNamedOrPtr reports whether t is pkgPath.name or *pkgPath.name.
func isNamedOrPtr(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamed(t, pkgPath, name)
}

// referencesEngine reports whether any expression under node has the type
// engine.Engine or *engine.Engine — the marker that makes a function a
// "charged kernel" (it has an engine in scope it could, and should, bill
// memory traffic through).
func referencesEngine(pkg *Package, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil && isNamedOrPtr(tv.Type, enginePkgPath, "Engine") {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeObject resolves the object a call expression invokes (function,
// method or nil for indirect calls through values), looking through an
// explicit instantiation f[T](...).
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := calleeExpr(call).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// calleeExpr strips parentheses and explicit type arguments from a call's
// function expression.
func calleeExpr(call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	return fun
}

// methodCall matches a method-value call on a receiver of the given named
// type (or pointer to it), returning the method name and receiver
// expression.
func methodCall(pkg *Package, call *ast.CallExpr, pkgPath, typeName string) (name string, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return "", nil, false
	}
	if !isNamedOrPtr(s.Recv(), pkgPath, typeName) {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// constInt returns the constant integer value of expr, or (0, false).
func constInt(pkg *Package, expr ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
