package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChargeLint enforces the completeness of the cost-accounting path: inside a
// charged kernel — any function under internal/cuckoo or internal/kvs that
// has an *engine.Engine in scope — every touch of simulated memory must be
// billed through the engine. Three things trip it:
//
//  1. direct mem.Arena data access (ReadUint, Bytes, Write64, ...), which
//     moves simulated bytes without charging the cache model;
//  2. calls that reach raw arena access without passing through a charged
//     function. The reach is interprocedural: the call graph is walked from
//     every uncharged function that touches the arena directly up through
//     its uncharged callers, so a charged kernel calling wrapper() calling
//     rawKeyAt() is reported at the kernel's call site with the path. A
//     charged callee is the billing boundary — it has its own engine and
//     its own call sites are checked instead;
//  3. engine.ChargeCycles with a magic numeric literal in its argument; the
//     cost tables live in internal/arch and costs must be named constants so
//     calibration stays reviewable in one place.
//
// Raw accesses whose cycles are genuinely charged elsewhere (e.g. the data
// transfer of an access charged via MemAccess on the line above, or a
// functional mutation whose equivalent work the kernel charges explicitly)
// carry a //lint:ignore chargelint annotation with the reason.
var ChargeLint = &Analyzer{
	Name:  "chargelint",
	Doc:   "charged kernels must bill all simulated-memory traffic through the engine",
	Scope: chargeScope,
	Run:   runChargeLint,
}

var chargeScope = []string{
	"simdhtbench/internal/cuckoo",
	"simdhtbench/internal/kvs",
}

// arenaDataMethods are the mem.Arena methods that read or write simulated
// bytes. Addr/Base/Size are address arithmetic, not data movement, and are
// exempt.
var arenaDataMethods = map[string]bool{
	"Bytes":    true,
	"ReadUint": true, "WriteUint": true,
	"Read16": true, "Read32": true, "Read64": true,
	"Write16": true, "Write32": true, "Write64": true,
	"Zero": true,
}

func runChargeLint(pass *Pass) {
	reach := rawArenaReach(pass.Module.CallGraph())
	for _, pkg := range pass.Module.Pkgs {
		if !inScope(pkg.Path, chargeScope...) {
			continue
		}
		for _, f := range pkg.Files {
			eachFuncDecl(f, func(fd *ast.FuncDecl) {
				if !referencesEngine(pkg, fd) {
					return
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					checkChargedCall(pass, pkg, fd, call, reach)
					return true
				})
			})
		}
	}
}

func checkChargedCall(pass *Pass, pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, reach map[*types.Func]rawStep) {
	if name, _, ok := methodCall(pkg, call, memPkgPath, "Arena"); ok && arenaDataMethods[name] {
		pass.Reportf(call.Pos(),
			"raw arena access Arena.%s in charged kernel %s bypasses the engine; charge it via MemAccess/ScalarLoad/StreamLoad/Gather or annotate why it is pre-charged",
			name, fd.Name.Name)
	}
	if fn, ok := calleeObject(pkg, call).(*types.Func); ok {
		fn = fn.Origin()
		if step, hit := reach[fn]; hit {
			if step.next == nil {
				pass.Reportf(call.Pos(),
					"call to uncharged accessor %s in charged kernel %s reads simulated memory without charging; use an engine-charged access or annotate why it is pre-charged",
					fn.Name(), fd.Name.Name)
			} else {
				pass.Reportf(call.Pos(),
					"call to %s in charged kernel %s reaches raw arena access without charging (%s); charge the equivalent work or annotate why it is pre-charged",
					fn.Name(), fd.Name.Name, rawChain(fn, reach))
			}
		}
	}
	if name, _, ok := methodCall(pkg, call, enginePkgPath, "Engine"); ok && name == "ChargeCycles" && len(call.Args) == 1 {
		if lit := magicLiteral(call.Args[0]); lit != nil {
			pass.Reportf(call.Pos(),
				"ChargeCycles with magic literal %s; name the cost as a constant (the cost tables live in internal/arch)",
				lit.Value)
		}
	}
}

// rawStep is one link of the path from a function to the raw arena access it
// reaches: the next callee toward the access, or — for the function that
// performs the access itself — the Arena method name.
type rawStep struct {
	next   *types.Func
	method string
}

// rawArenaReach computes, over the whole call graph, which uncharged
// functions reach direct arena data access through uncharged code only.
// Charged functions (those with an engine in scope) are the billing
// boundary: the walk does not propagate through them, because their own
// call sites are checked directly. The mem package itself is the arena API
// and is excluded. Only statically-dispatched edges are followed: an
// interface boundary is a contract boundary, and the concrete
// implementations behind one are checked in their own right.
func rawArenaReach(g *CallGraph) map[*types.Func]rawStep {
	reach := make(map[*types.Func]rawStep)
	var queue []*CGNode
	for _, node := range sortedNodes(g) {
		if inScope(node.Pkg.Path, memPkgPath) || referencesEngine(node.Pkg, node.Decl) {
			continue
		}
		if m := directArenaMethod(node.Pkg, node.Decl); m != "" {
			reach[node.Obj] = rawStep{method: m}
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Callers {
			if e.IfacePkg != "" {
				continue
			}
			c := e.Caller
			if _, seen := reach[c.Obj]; seen {
				continue
			}
			if inScope(c.Pkg.Path, memPkgPath) || referencesEngine(c.Pkg, c.Decl) {
				continue
			}
			reach[c.Obj] = rawStep{next: n.Obj}
			queue = append(queue, c)
		}
	}
	return reach
}

// directArenaMethod returns the name of the first arena data method the
// function body calls directly, or "".
func directArenaMethod(pkg *Package, fd *ast.FuncDecl) string {
	found := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, _, ok := methodCall(pkg, call, memPkgPath, "Arena"); ok && arenaDataMethods[name] {
				found = name
				return false
			}
		}
		return true
	})
	return found
}

// rawChain renders the path from fn to its raw access, e.g.
// "wrapper -> rawKeyAt -> Arena.ReadUint".
func rawChain(fn *types.Func, reach map[*types.Func]rawStep) string {
	var parts []string
	for {
		parts = append(parts, fn.Name())
		step := reach[fn]
		if step.next == nil {
			parts = append(parts, "Arena."+step.method)
			break
		}
		fn = step.next
	}
	return strings.Join(parts, " -> ")
}

// magicLiteral returns the first numeric literal inside expr, skipping
// literals used as index expressions (a[2] is not a cost).
func magicLiteral(expr ast.Expr) *ast.BasicLit {
	var found *ast.BasicLit
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			// Examine only the indexed operand, not the index itself.
			ast.Inspect(n.X, func(m ast.Node) bool {
				if lit, ok := m.(*ast.BasicLit); ok && found == nil && (lit.Kind == token.INT || lit.Kind == token.FLOAT) {
					found = lit
				}
				return found == nil
			})
			return false
		case *ast.BasicLit:
			if n.Kind == token.INT || n.Kind == token.FLOAT {
				found = n
			}
		}
		return found == nil
	})
	return found
}
