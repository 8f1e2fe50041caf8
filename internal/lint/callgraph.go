package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// A module-wide call graph over every function declaration the loader has an
// AST for (module packages; the re-type-checked standard library has types
// but no stored ASTs, so stdlib calls are leaves). Direct calls resolve
// through the type checker; calls through interface methods are resolved by
// class-hierarchy analysis: an edge is added to every concrete method of
// every named type in the universe that implements the interface. That
// over-approximates dispatch, which is the right bias for the analyzers
// built on top (alloclint must see every allocation possibly reachable from
// a hot path).

// CGNode is one declared function or method.
type CGNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out edges, in source order of their call sites.
	Calls []*CGEdge
	// In edges.
	Callers []*CGEdge
}

// CGEdge is one resolved call site.
type CGEdge struct {
	Caller, Callee *CGNode
	Site           *ast.CallExpr
	// IfacePkg is the path of the package declaring the interface for
	// CHA-resolved edges, "" for direct calls. Analyzers use it to exclude
	// opt-in dispatch families (alloclint skips obs probe dispatch: probes
	// are nil-means-free observability, outside the zero-alloc contract).
	IfacePkg string
}

// CallGraph indexes nodes by their *types.Func object.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode

	// named holds the universe's package-level named types, the candidate
	// implementations class-hierarchy analysis resolves against.
	named []*types.Named
}

// CallGraph builds (memoized) the call graph over the loader universe as
// seen by this module. Run is single-threaded, so no locking.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m.Universe())
	}
	return m.cg
}

// Node returns the graph node for fn, or nil when fn has no declaration in
// the universe (stdlib, interface methods, func values). Instantiated
// generic functions resolve to their declared origin.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	return g.Nodes[fn.Origin()]
}

func buildCallGraph(universe []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CGNode)}

	// Pass 1: index every declared function, and collect the named types
	// for CHA.
	for _, pkg := range universe {
		for _, f := range pkg.Files {
			pkg, f := pkg, f
			eachFuncDecl(f, func(fd *ast.FuncDecl) {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.Nodes[fn] = &CGNode{Obj: fn, Decl: fd, Pkg: pkg}
				}
			})
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, n)
				}
			}
		}
	}

	// Pass 2: resolve call sites.
	for _, node := range sortedNodes(g) {
		caller := node
		ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObject(caller.Pkg, call).(*types.Func)
			if !ok {
				return true // builtin, conversion, or func-value call
			}
			fn = fn.Origin()
			if iface := interfaceOfMethod(fn); iface != nil {
				for _, impl := range implementations(g.named, iface, fn) {
					if callee := g.Nodes[impl.Origin()]; callee != nil {
						addEdge(caller, callee, call, fn.Pkg().Path())
					}
				}
				return true
			}
			if callee := g.Nodes[fn]; callee != nil {
				addEdge(caller, callee, call, "")
			}
			return true
		})
	}
	return g
}

func addEdge(caller, callee *CGNode, site *ast.CallExpr, ifacePkg string) {
	e := &CGEdge{Caller: caller, Callee: callee, Site: site, IfacePkg: ifacePkg}
	caller.Calls = append(caller.Calls, e)
	callee.Callers = append(callee.Callers, e)
}

// sortedNodes returns graph nodes in deterministic order (package path, then
// source position) so edge lists — and therefore diagnostic example paths —
// are stable run to run.
func sortedNodes(g *CallGraph) []*CGNode {
	out := make([]*CGNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pkg.Path != out[j].Pkg.Path {
			return out[i].Pkg.Path < out[j].Pkg.Path
		}
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}

// interfaceOfMethod returns the interface type fn is declared on, or nil for
// concrete methods and plain functions.
func interfaceOfMethod(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}

// implementations returns, for every named type implementing iface, the
// concrete method corresponding to fn.
func implementations(named []*types.Named, iface *types.Interface, fn *types.Func) []*types.Func {
	var out []*types.Func
	for _, n := range named {
		if types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			m, ok := mset.At(i).Obj().(*types.Func)
			if !ok || m.Name() != fn.Name() {
				continue
			}
			if !m.Exported() && m.Pkg() != fn.Pkg() {
				continue
			}
			out = append(out, m)
		}
	}
	return out
}

// ReachableFrom walks the graph forward from the roots, returning for every
// reachable node the edge it was first discovered through (roots map to
// nil). follow filters edges; a nil follow follows everything. BFS in
// deterministic edge order, so "first discovered through" is stable.
func (g *CallGraph) ReachableFrom(roots []*CGNode, follow func(*CGEdge) bool) map[*CGNode]*CGEdge {
	seen := make(map[*CGNode]*CGEdge, len(roots))
	queue := make([]*CGNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := seen[r]; !ok {
			seen[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if follow != nil && !follow(e) {
				continue
			}
			if _, ok := seen[e.Callee]; !ok {
				seen[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}

// PathTo reconstructs the discovery path root → ... → n from a ReachableFrom
// result, as function names.
func PathTo(reach map[*CGNode]*CGEdge, n *CGNode) []string {
	var rev []string
	for {
		rev = append(rev, n.Obj.Name())
		e := reach[n]
		if e == nil {
			break
		}
		n = e.Caller
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
