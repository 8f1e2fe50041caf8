package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ReachLint keeps the production tree free of code no program runs: every
// function and method declared in a non-test file must be reachable through
// the call graph (callgraph.go) from a root. The roots are:
//
//   - every main of a main package (cmd/, simbench/) and every init
//     function;
//   - every function used as a value rather than called (a callback, a
//     method value, a registry entry) and every function a package-level
//     variable initializer references, since both run without a visible
//     call edge;
//   - every method through which a standard-library interface
//     (fmt.Stringer, error, sort.Interface, flag.Value, ...) is satisfied,
//     because the standard library calls it, not the module;
//   - every function carrying //lint:ignore reachlint <reason>: one
//     directive on a sanctioned entry point (a library artifact, an ISA op
//     the property tests drive, a reference path a test compares against)
//     covers everything it calls.
//
// Interface dispatch is resolved by class-hierarchy analysis, so a method
// reached only through a module interface counts as reached, while every
// implementation of an interface method nobody calls is reported. What only
// tests call is reported too: a test can exercise it, but no artifact
// depends on it.
var ReachLint = &Analyzer{
	Name: "reachlint",
	Doc:  "every production function must be reachable from a main, an init or a sanctioned entry point",
	Run:  runReachLint,
}

const reachIgnorePrefix = ignorePrefix + " reachlint "

func runReachLint(pass *Pass) {
	g := pass.Module.CallGraph()
	var roots []*CGNode
	addRoot := func(fn *types.Func) {
		impls := []*types.Func{fn}
		if iface := interfaceOfMethod(fn); iface != nil {
			// An interface method value dispatches to every implementation.
			impls = implementations(g.named, iface, fn)
		}
		for _, impl := range impls {
			if n := g.Node(impl); n != nil {
				roots = append(roots, n)
			}
		}
	}

	for _, pkg := range pass.Module.Pkgs {
		isMain := pkg.Types.Name() == "main"
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// Package-level initializers run at init time.
					for _, fn := range funcRefs(pkg, decl, false) {
						addRoot(fn)
					}
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || isMain && fd.Name.Name == "main") || reachIgnored(fd) {
					addRoot(fn)
				}
				if fd.Body != nil {
					for _, v := range funcRefs(pkg, fd.Body, true) {
						addRoot(v)
					}
				}
			}
		}
	}
	for _, fn := range stdlibSatisfiers(pass.Module, g.named) {
		addRoot(fn)
	}

	reach := g.ReachableFrom(roots, nil)
	inModule := make(map[*Package]bool, len(pass.Module.Pkgs))
	for _, pkg := range pass.Module.Pkgs {
		inModule[pkg] = true
	}
	for _, node := range sortedNodes(g) {
		if _, ok := reach[node]; ok || !inModule[node.Pkg] {
			continue
		}
		pass.Reportf(node.Decl.Pos(), "%s is reached by no main, init or sanctioned entry point: delete it, or mark it //lint:ignore reachlint <reason>", funcName(node.Obj))
	}
}

// reachIgnored reports whether the function's doc comment carries a
// reachlint suppression, which makes the function a root.
func reachIgnored(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, reachIgnorePrefix) {
			return true
		}
	}
	return false
}

// funcRefs returns the functions referenced under node. With valuesOnly, a
// reference in call position (f(x), x.M(y), f[T](x)) is skipped: only
// functions used as values escape the call graph.
func funcRefs(pkg *Package, node ast.Node, valuesOnly bool) []*types.Func {
	called := make(map[*ast.Ident]bool)
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !valuesOnly {
				break
			}
			switch fun := calleeExpr(n).(type) {
			case *ast.Ident:
				called[fun] = true
			case *ast.SelectorExpr:
				called[fun.Sel] = true
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok && !called[n] {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// stdlibSatisfiers returns the methods through which a named type satisfies
// an interface the module's standard-library imports declare, or the
// predeclared error, together with the Unwrap, Is and As methods the errors
// package looks for on an error: the standard library calls them, out of
// the module's sight.
func stdlibSatisfiers(m *Module, named []*types.Named) []*types.Func {
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := []*types.Interface{errorIface}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if inScope(p.Path(), m.Path) {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range m.Pkgs {
		visit(pkg.Types)
	}

	var out []*types.Func
	lookup := func(mset *types.MethodSet, pkg *types.Package, name string) {
		if sel := mset.Lookup(pkg, name); sel != nil {
			out = append(out, sel.Obj().(*types.Func))
		}
	}
	for _, n := range named {
		if types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if types.Implements(ptr, errorIface) {
			for _, name := range []string{"Unwrap", "Is", "As"} {
				lookup(mset, nil, name)
			}
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				lookup(mset, it.Method(i).Pkg(), it.Method(i).Name())
			}
		}
	}
	return out
}

// funcName renders fn as pkg.Func, pkg.T.Method or pkg.(*T).Method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t := types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg()))
	if strings.HasPrefix(t, "*") {
		t = "(" + t + ")"
	}
	return fn.Pkg().Name() + "." + t + "." + fn.Name()
}
