package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ProbLint guards the nil-means-free probe contract from PR 3 with the
// dataflow framework (dataflow.go): obs probes are interface values that are
// nil on measurement runs, so
//
//  1. every method call on a probe interface value must be dominated by a
//     nil guard on that exact value — a must-analysis over the CFG: the
//     fact "p != nil" is gained on the true edge of `p != nil` (or the
//     false edge of `p == nil`, including through && / || / !), killed by
//     any assignment to p or a prefix of p, and must hold on every path
//     reaching the call;
//  2. obs.Collector.FaultProbe() and ClientProbe() may only be called where
//     an armed fault plan dominates — a non-nil *fault.Plan or a true
//     fault.Spec.Enabled() — so fault-free runs never register fault or
//     client series and their golden artifacts stay byte-identical.
//
// Function literals are analyzed as their own CFGs, seeded with the facts
// holding where the literal is created: a guard wrapped around the closure
// still counts, and captured probe values can only be re-assigned through
// writes the kill-set sees.
//
// The internal/obs package itself is exempt: it implements the probes (its
// concrete probe types are always non-nil behind a Collector), and the
// contract problint enforces is for probe consumers.
var ProbLint = &Analyzer{
	Name: "problint",
	Doc:  "obs probe derefs need dominating nil guards; FaultProbe and ClientProbe registration needs an armed plan",
	Run:  runProbLint,
}

func runProbLint(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		// internal/obs implements the probes and is exempt, but its prof
		// subpackage is a probe *consumer*-style hot path and stays in scope.
		if inScope(pkg.Path, obsPkgPath) && !inScope(pkg.Path, obsProfPkgPath) {
			continue
		}
		for _, f := range pkg.Files {
			pkg := pkg
			eachFuncDecl(f, func(fd *ast.FuncDecl) {
				u := newFactUniverse(pkg)
				u.collect(fd.Body)
				checkProbeFlow(pass, u, fd, NewBitSet(len(u.facts)))
			})
		}
	}
}

// probeFact is one guard-establishable fact: "the value at key is non-nil"
// (and, for *fault.Plan values and Spec.Enabled() results, "a fault plan is
// armed").
type probeFact struct {
	key   string
	armed bool
}

// factUniverse numbers the facts guards can establish in one function
// (including its nested literals, which share the universe so entry seeding
// is a plain bit-set copy).
type factUniverse struct {
	pkg   *Package
	facts []probeFact
	index map[string]int
}

func newFactUniverse(pkg *Package) *factUniverse {
	return &factUniverse{pkg: pkg, index: make(map[string]int)}
}

func (u *factUniverse) add(key string, armed bool) int {
	if id, ok := u.index[key]; ok {
		if armed {
			u.facts[id].armed = true
		}
		return id
	}
	id := len(u.facts)
	u.index[key] = id
	u.facts = append(u.facts, probeFact{key: key, armed: armed})
	return id
}

// collect walks the body registering every fact a guard could establish:
// nil comparisons of probe-interface or *fault.Plan values, and
// fault.Spec.Enabled() calls.
func (u *factUniverse) collect(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if x, ok := u.nilCompareOperand(n); ok {
				if key := u.path(x); key != "" {
					u.add(key, u.isPlan(x))
				}
			}
		case *ast.CallExpr:
			if name, recv, ok := methodCall(u.pkg, n, faultPkgPath, "Spec"); ok && name == "Enabled" {
				if key := u.path(recv); key != "" {
					u.add(key+".Enabled()", true)
				}
			}
		}
		return true
	})
}

// nilCompareOperand matches `x == nil` / `x != nil` over guard-relevant
// types, returning the non-nil operand.
func (u *factUniverse) nilCompareOperand(b *ast.BinaryExpr) (ast.Expr, bool) {
	if b.Op.String() != "==" && b.Op.String() != "!=" {
		return nil, false
	}
	for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		x, other := pair[0], pair[1]
		if tv, ok := u.pkg.Info.Types[other]; ok && tv.IsNil() {
			if t := u.typeOf(x); t != nil && (isProbeInterface(t) || isNamedOrPtr(t, faultPkgPath, "Plan")) {
				return x, true
			}
		}
	}
	return nil, false
}

func (u *factUniverse) typeOf(e ast.Expr) types.Type {
	if tv, ok := u.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (u *factUniverse) isPlan(e ast.Expr) bool {
	return isNamedOrPtr(u.typeOf(e), faultPkgPath, "Plan")
}

// isProbeInterface matches the obs probe interfaces (EngineProbe,
// CacheProbe, ..., FleetProbe): named interface types declared in
// internal/obs whose name ends in "Probe".
func isProbeInterface(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || !types.IsInterface(t) {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath && strings.HasSuffix(obj.Name(), "Probe")
}

// path renders an expression as a canonical fact key rooted at its variable
// object (so shadowing cannot alias keys), or "" when the expression is not
// a stable ident/selector chain.
func (u *factUniverse) path(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := u.pkg.Info.Uses[e]
		if obj == nil {
			obj = u.pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return fmt.Sprintf("v%p", v)
		}
	case *ast.SelectorExpr:
		if base := u.path(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// probProblem adapts a fact universe to the dataflow framework as a
// must-analysis: kills on assignment, gains on guard edges.
type probProblem struct {
	u     *factUniverse
	entry BitSet
}

func (p *probProblem) NumFacts() int { return len(p.u.facts) }
func (p *probProblem) Entry() BitSet { return p.entry }

func (p *probProblem) Transfer(b *Block, in BitSet) BitSet {
	for _, n := range b.Nodes {
		p.u.applyKills(n, in)
	}
	return in
}

func (p *probProblem) EdgeOut(e *Edge, out BitSet) BitSet {
	if e.Cond == nil || (e.Kind != EdgeTrue && e.Kind != EdgeFalse) {
		return out
	}
	ids := p.u.genFacts(e.Cond, e.Kind == EdgeTrue)
	if len(ids) == 0 {
		return out
	}
	r := out.Clone()
	for _, id := range ids {
		r.Add(id)
	}
	return r
}

// applyKills removes facts invalidated by the node: assignments and range
// bindings kill the written path and everything under it. A node containing
// a function literal also kills whatever the literal assigns (the closure
// may run at any later point).
func (u *factUniverse) applyKills(n ast.Node, facts BitSet) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			u.killPath(lhs, facts)
		}
	case *ast.RangeStmt:
		// The range node in a loop-head block stands for the iteration
		// step only; its body statements live in their own blocks.
		if n.Key != nil {
			u.killPath(n.Key, facts)
		}
		if n.Value != nil {
			u.killPath(n.Value, facts)
		}
		return
	case *ast.IncDecStmt:
		u.killPath(n.X, facts)
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(k ast.Node) bool {
				if as, ok := k.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						u.killPath(lhs, facts)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

func (u *factUniverse) killPath(lhs ast.Expr, facts BitSet) {
	p := u.path(lhs)
	if p == "" {
		return
	}
	for id, f := range u.facts {
		if f.key == p || strings.HasPrefix(f.key, p+".") {
			facts.Remove(id)
		}
	}
}

// genFacts returns the facts established when cond evaluates to the given
// branch: x != nil on true, x == nil on false, through &&/||/! and
// Spec.Enabled().
func (u *factUniverse) genFacts(cond ast.Expr, branch bool) []int {
	var ids []int
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "&&":
			if branch { // both conjuncts held
				ids = append(ids, u.genFacts(e.X, true)...)
				ids = append(ids, u.genFacts(e.Y, true)...)
			}
		case "||":
			if !branch { // both disjuncts failed
				ids = append(ids, u.genFacts(e.X, false)...)
				ids = append(ids, u.genFacts(e.Y, false)...)
			}
		case "!=":
			if x, ok := u.nilCompareOperand(e); ok && branch {
				if id, found := u.index[u.path(x)]; found {
					ids = append(ids, id)
				}
			}
		case "==":
			if x, ok := u.nilCompareOperand(e); ok && !branch {
				if id, found := u.index[u.path(x)]; found {
					ids = append(ids, id)
				}
			}
		}
	case *ast.UnaryExpr:
		if e.Op.String() == "!" {
			return u.genFacts(e.X, !branch)
		}
	case *ast.CallExpr:
		if name, recv, ok := methodCall(u.pkg, e, faultPkgPath, "Spec"); ok && name == "Enabled" && branch {
			if id, found := u.index[u.path(recv)+".Enabled()"]; found {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// checkProbeFlow solves the must-analysis over fn's CFG and reports
// unguarded probe derefs and ungated FaultProbe or ClientProbe
// registrations; nested literals recurse with the facts holding at their
// creation point.
func checkProbeFlow(pass *Pass, u *factUniverse, fn ast.Node, entry BitSet) {
	cfg := BuildCFG(fn)
	ins := SolveForward(cfg, &probProblem{u: u, entry: entry}, MeetIntersect)

	for _, b := range cfg.Blocks {
		facts := ins[b.Index].Clone()
		for _, n := range b.Nodes {
			u.scanNode(pass, n, facts)
			u.applyKills(n, facts)
		}
	}
}

// scanNode checks one block node under the current fact set, recursing into
// nested literals with a snapshot and honoring short-circuit guards inside
// expressions (`p != nil && p.M()`). A RangeStmt block node stands for the
// iteration step alone — its body statements are scanned in their own
// blocks — so only the range operand is examined here.
func (u *factUniverse) scanNode(pass *Pass, n ast.Node, facts BitSet) {
	if r, ok := n.(*ast.RangeStmt); ok {
		u.scanWith(pass, r.X, facts)
		return
	}
	u.scanWith(pass, n, facts)
}

func (u *factUniverse) scanWith(pass *Pass, n ast.Node, facts BitSet) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			checkProbeFlow(pass, u, m, facts.Clone())
			return false
		case *ast.BinaryExpr:
			switch m.Op.String() {
			case "&&":
				u.scanWith(pass, m.X, facts)
				ext := facts.Clone()
				for _, id := range u.genFacts(m.X, true) {
					ext.Add(id)
				}
				u.scanWith(pass, m.Y, ext)
				return false
			case "||":
				u.scanWith(pass, m.X, facts)
				ext := facts.Clone()
				for _, id := range u.genFacts(m.X, false) {
					ext.Add(id)
				}
				u.scanWith(pass, m.Y, ext)
				return false
			}
		case *ast.CallExpr:
			u.checkCall(pass, m, facts)
		}
		return true
	})
}

func (u *factUniverse) checkCall(pass *Pass, call *ast.CallExpr, facts BitSet) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := u.pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return
	}
	// Check 1: probe interface deref.
	if isProbeInterface(s.Recv()) {
		key := u.path(sel.X)
		id, known := u.index[key]
		if key == "" || !known || !facts.Has(id) {
			pass.Reportf(call.Pos(),
				"probe call %s.%s without a dominating nil guard on %s; probes are nil-means-free and every deref must be guarded",
				types.ExprString(sel.X), sel.Sel.Name, types.ExprString(sel.X))
		}
	}
	// Check 2: FaultProbe and ClientProbe registration must be gated on an
	// armed plan.
	if name, _, ok := methodCall(u.pkg, call, obsPkgPath, "Collector"); ok && (name == "FaultProbe" || name == "ClientProbe") {
		armed := false
		for id, f := range u.facts {
			if f.armed && facts.Has(id) {
				armed = true
				break
			}
		}
		if !armed {
			pass.Reportf(call.Pos(),
				"%s registration not dominated by an armed fault plan (plan != nil or spec.Enabled()); fault-free runs must not register fault or client series", name)
		}
	}
}
