package lint

import (
	"go/ast"
	"go/types"
)

// ParLint guards the determinism contract of worker-pool code (the sweep
// runner): a goroutine body
// spawned with `go func...` must not write to state shared with other
// workers except through the canonical-order merge — in practice, an index
// write into a shared slice where each worker owns distinct slots
// (results[i] = ...), or a channel send the spawner merges in canonical
// order.
//
// For every `go` statement whose function is a literal (or a local closure
// variable), the analyzer computes the worker set — the literal plus every
// local closure it calls, transitively — and flags, inside worker bodies:
//
//   - assignments and ++/-- on variables declared outside the worker set
//     (shared accumulators, `x = append(x, ...)` completion-order hazards);
//   - map-index writes rooted at shared variables (map writes race and
//     iteration order is nondeterministic anyway);
//   - field writes rooted at shared variables.
//
// A write whose left side indexes a shared slice or array is the sanctioned
// per-slot pattern and is allowed, as is any write through locally-derived
// state (st := &stats.Jobs[i]; st.N = ... — st is worker-local). Writes via
// named functions the worker calls are outside the intra-procedural scope
// and remain covered by the race detector in `make race`.
var ParLint = &Analyzer{
	Name: "parlint",
	Doc:  "sweep worker bodies must route shared writes through the canonical-order merge",
	Run:  runParLint,
}

func runParLint(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		for _, f := range pkg.Files {
			pkg := pkg
			eachFuncDecl(f, func(fd *ast.FuncDecl) {
				checkWorkerSpawns(pass, pkg, fd)
			})
		}
	}
}

func checkWorkerSpawns(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	locals := localClosures(pkg, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit := resolveFuncLit(pkg, locals, g.Call.Fun)
		if lit == nil {
			return true
		}
		workers := workerSet(pkg, locals, lit)
		for _, w := range sortedLits(workers) {
			checkWorkerBody(pass, pkg, fd, w, workers)
		}
		return true
	})
}

// localClosures maps function-typed local variables to the literal assigned
// to them, so `exec := func(...){...}; go func(){ exec(i) }()` pulls exec
// into the worker set.
func localClosures(pkg *Package, fd *ast.FuncDecl) map[types.Object]*ast.FuncLit {
	out := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := identObject(pkg, id); obj != nil {
							out[obj] = lit
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				if lit, ok := ast.Unparen(v).(*ast.FuncLit); ok {
					if obj := identObject(pkg, n.Names[i]); obj != nil {
						out[obj] = lit
					}
				}
			}
		}
		return true
	})
	return out
}

func identObject(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func resolveFuncLit(pkg *Package, locals map[types.Object]*ast.FuncLit, fun ast.Expr) *ast.FuncLit {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		return fun
	case *ast.Ident:
		if obj := identObject(pkg, fun); obj != nil {
			return locals[obj]
		}
	}
	return nil
}

// workerSet computes the closure of literals running on the worker
// goroutine: the spawned literal, every nested literal, and every local
// closure invoked from any of them.
func workerSet(pkg *Package, locals map[types.Object]*ast.FuncLit, root *ast.FuncLit) map[*ast.FuncLit]bool {
	set := map[*ast.FuncLit]bool{root: true}
	queue := []*ast.FuncLit{root}
	add := func(l *ast.FuncLit) {
		if l != nil && !set[l] {
			set[l] = true
			queue = append(queue, l)
		}
	}
	for len(queue) > 0 {
		lit := queue[0]
		queue = queue[1:]
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				add(n)
				return false
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if obj := identObject(pkg, id); obj != nil {
						add(locals[obj])
					}
				}
			}
			return true
		})
	}
	return set
}

func sortedLits(set map[*ast.FuncLit]bool) []*ast.FuncLit {
	out := make([]*ast.FuncLit, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func checkWorkerBody(pass *Pass, pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit, workers map[*ast.FuncLit]bool) {
	shared := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		if v.Parent() == pkg.Types.Scope() {
			return true // package-level state
		}
		if v.Pos() < fd.Pos() || v.Pos() >= fd.End() {
			return false
		}
		for w := range workers {
			if v.Pos() >= w.Pos() && v.Pos() < w.End() {
				return false // declared inside a worker-set literal: per-invocation
			}
		}
		return true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok && l != lit {
			return false // checked as its own worker-set member
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWorkerWrite(pass, pkg, fd.Name.Name, lhs, shared)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, pkg, fd.Name.Name, n.X, shared)
		}
		return true
	})
}

// checkWorkerWrite classifies one write target. The chain from the written
// expression down to its root identifier is walked: an index into a slice or
// array anywhere on the chain is the per-slot pattern and sanctions the
// write; a map index or a plain/field/pointer write rooted at a shared
// variable is reported.
func checkWorkerWrite(pass *Pass, pkg *Package, spawner string, lhs ast.Expr, shared func(types.Object) bool) {
	sliceIndexed := false
	mapIndexed := false
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := identObject(pkg, x)
			if obj == nil || !shared(obj) {
				return
			}
			if sliceIndexed && !mapIndexed {
				return // per-slot write into a shared slice: the merge pattern
			}
			what := "write to"
			switch {
			case mapIndexed:
				what = "map write into"
			case lhs != x:
				what = "write through"
			}
			pass.Reportf(lhs.Pos(),
				"%s %s, shared across workers spawned in %s; worker output must flow through the per-slot slice or a channel merged in canonical order",
				what, x.Name, spawner)
			return
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := pkg.Info.Types[x.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					mapIndexed = true
				case *types.Slice, *types.Array, *types.Pointer:
					sliceIndexed = true
				}
			}
			e = x.X
		default:
			return
		}
	}
}
