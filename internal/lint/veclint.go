package lint

import (
	"go/ast"
	"go/types"
)

// VecLint enforces lane discipline at internal/vec call sites, module-wide.
// The software register file panics at runtime on shape mismatches, but only
// on the configurations a test happens to execute; veclint catches the same
// classes of error statically wherever widths are compile-time constants:
//
//   - register widths must be 128/256/512 bits (64 also legal for
//     engine.Charge, which takes the scalar datapath width);
//   - lane widths must be 16/32/64 bits;
//   - the operands of one op must agree on register width (no mixing a
//     256-bit with a 512-bit register in a blend);
//   - a register (or mask) built with one lane interpretation must not be
//     consumed by an op using another (a vector of 32-bit lanes passed to a
//     16-bit cmpeq compares garbage lane boundaries).
//
// Lane/width facts are propagated through single assignments within a
// function body, in source order; dynamic widths are simply unknown and
// never reported.
var VecLint = &Analyzer{
	Name: "veclint",
	Doc:  "vec call sites must use legal, mutually consistent register and lane widths",
	Run:  runVecLint,
}

// vinfo is what veclint knows about a vec.Vec or vec.Mask value: register
// width and lane width in bits, 0 when unknown.
type vinfo struct {
	bits int
	lane int
}

func (v vinfo) known() bool { return v.bits != 0 || v.lane != 0 }

// vecSpec describes one vec/engine operation: which argument carries the
// register width, which the lane width, which arguments are Vec operands,
// which is a Mask, and what the call produces.
type vecSpec struct {
	bitsArg     int   // register-width argument index, -1 if none
	laneArg     int   // lane-width argument index, -1 if none
	operands    []int // Vec operand argument indexes
	maskArg     int   // Mask operand argument index, -1 if none
	recvOperand bool  // the method receiver is a Vec operand
	produces    byte  // 'v' = Vec, 'm' = Mask, 0 = nothing tracked
	allowScalar bool  // width 64 is legal (engine.Charge)
}

// vecSpecs keys are "vec.Func", "Vec.Method" and "Engine.Method".
var vecSpecs = map[string]vecSpec{
	"vec.Zero":       {bitsArg: 0, laneArg: -1, maskArg: -1, produces: 'v'},
	"vec.Set1":       {bitsArg: 0, laneArg: 1, maskArg: -1, produces: 'v'},
	"vec.FromLanes":  {bitsArg: 0, laneArg: 1, maskArg: -1, produces: 'v'},
	"vec.FromBytes":  {bitsArg: 0, laneArg: -1, maskArg: -1, produces: 'v'},
	"vec.NumLanes":   {bitsArg: 0, laneArg: 1, maskArg: -1},
	"vec.CmpEq":      {bitsArg: -1, laneArg: 0, operands: []int{1, 2}, maskArg: -1, produces: 'm'},
	"vec.And":        {bitsArg: -1, laneArg: -1, operands: []int{0, 1}, maskArg: -1, produces: 'v'},
	"vec.Xor":        {bitsArg: -1, laneArg: -1, operands: []int{0, 1}, maskArg: -1, produces: 'v'},
	"vec.Add":        {bitsArg: -1, laneArg: 0, operands: []int{1, 2}, maskArg: -1, produces: 'v'},
	"vec.MulLo":      {bitsArg: -1, laneArg: 0, operands: []int{1, 2}, maskArg: -1, produces: 'v'},
	"vec.ShiftRight": {bitsArg: -1, laneArg: 0, operands: []int{1}, maskArg: -1, produces: 'v'},
	"vec.Blend":      {bitsArg: -1, laneArg: 0, maskArg: 1, operands: []int{2, 3}, produces: 'v'},

	"Vec.Lane":     {bitsArg: -1, laneArg: 0, maskArg: -1, recvOperand: true},
	"Vec.WithLane": {bitsArg: -1, laneArg: 0, maskArg: -1, recvOperand: true, produces: 'v'},
	"Vec.SetLane":  {bitsArg: -1, laneArg: 0, maskArg: -1, recvOperand: true},
	"Vec.ToLanes":  {bitsArg: -1, laneArg: 0, maskArg: -1, recvOperand: true},

	"Engine.Set1":         {bitsArg: 0, laneArg: 1, maskArg: -1, produces: 'v'},
	"Engine.VecLoad":      {bitsArg: 0, laneArg: -1, maskArg: -1, produces: 'v'},
	"Engine.VecLoadParts": {bitsArg: 0, laneArg: -1, maskArg: -1, produces: 'v'},
	"Engine.VecStore":     {bitsArg: -1, laneArg: -1, operands: []int{2}, maskArg: -1},
	"Engine.CmpEq":        {bitsArg: -1, laneArg: 0, operands: []int{1, 2}, maskArg: -1, produces: 'm'},
	"Engine.Blend":        {bitsArg: -1, laneArg: 0, maskArg: 1, operands: []int{2, 3}, produces: 'v'},
	"Engine.Shuffle":      {bitsArg: 0, laneArg: -1, maskArg: -1},
	"Engine.Movemask":     {bitsArg: 0, laneArg: -1, maskArg: -1},
	"Engine.Reduce":       {bitsArg: 0, laneArg: -1, maskArg: -1},
	"Engine.VecHash":      {bitsArg: 0, laneArg: -1, maskArg: -1},
	"Engine.Gather":       {bitsArg: 0, laneArg: 1, maskArg: 4},
	"Engine.Charge":       {bitsArg: 1, laneArg: -1, maskArg: -1, allowScalar: true},
}

func runVecLint(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		if pkg.Path == vecPkgPath || pkg.Path == enginePkgPath {
			continue // the register file and engine implement the ops; they
			// legitimately take widths apart
		}
		for _, f := range pkg.Files {
			eachFuncDecl(f, func(fd *ast.FuncDecl) {
				t := &vecTracker{pass: pass, pkg: pkg, vals: make(map[types.Object]vinfo)}
				t.walk(fd.Body)
			})
		}
	}
}

type vecTracker struct {
	pass *Pass
	pkg  *Package
	vals map[types.Object]vinfo
}

func (t *vecTracker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := t.pkg.Info.Defs[id]
					if obj == nil {
						obj = t.pkg.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if info := t.eval(n.Rhs[i]); info.known() {
						t.vals[obj] = info
					}
				}
			}
		case *ast.CallExpr:
			t.checkCall(n)
		}
		return true
	})
}

// resolve maps a call to its vecSpec key and display name.
func (t *vecTracker) resolve(call *ast.CallExpr) (spec vecSpec, name string, recv ast.Expr, ok bool) {
	if n, r, isM := methodCall(t.pkg, call, enginePkgPath, "Engine"); isM {
		s, found := vecSpecs["Engine."+n]
		return s, n, r, found
	}
	if n, r, isM := methodCall(t.pkg, call, vecPkgPath, "Vec"); isM {
		s, found := vecSpecs["Vec."+n]
		return s, n, r, found
	}
	if fn, isFn := calleeObject(t.pkg, call).(*types.Func); isFn && fn.Pkg() != nil && fn.Pkg().Path() == vecPkgPath {
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() == nil {
			s, found := vecSpecs["vec."+fn.Name()]
			return s, fn.Name(), nil, found
		}
	}
	return vecSpec{}, "", nil, false
}

// eval computes what is known about the value of expr.
func (t *vecTracker) eval(expr ast.Expr) vinfo {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := t.pkg.Info.Uses[e]; obj != nil {
			return t.vals[obj]
		}
	case *ast.CallExpr:
		spec, _, recv, ok := t.resolve(e)
		if !ok || spec.produces == 0 {
			return vinfo{}
		}
		var info vinfo
		if spec.bitsArg >= 0 && spec.bitsArg < len(e.Args) {
			if v, ok := constInt(t.pkg, e.Args[spec.bitsArg]); ok {
				info.bits = int(v)
			}
		}
		if spec.laneArg >= 0 && spec.laneArg < len(e.Args) {
			if v, ok := constInt(t.pkg, e.Args[spec.laneArg]); ok {
				info.lane = int(v)
			}
		}
		// Ops without an explicit width inherit the operands' register
		// width (and, for lane-preserving logic ops, their lane width).
		if info.bits == 0 {
			for _, oi := range t.operandInfos(e, spec, recv) {
				if oi.bits != 0 {
					info.bits = oi.bits
					break
				}
			}
		}
		if info.lane == 0 && spec.laneArg < 0 {
			for _, oi := range t.operandInfos(e, spec, recv) {
				if oi.lane != 0 {
					info.lane = oi.lane
					break
				}
			}
		}
		return info
	}
	return vinfo{}
}

// operandInfos evaluates the Vec operands (receiver first, if any).
func (t *vecTracker) operandInfos(call *ast.CallExpr, spec vecSpec, recv ast.Expr) []vinfo {
	var out []vinfo
	if spec.recvOperand && recv != nil {
		out = append(out, t.eval(recv))
	}
	for _, idx := range spec.operands {
		if idx < len(call.Args) {
			out = append(out, t.eval(call.Args[idx]))
		}
	}
	return out
}

var legalLaneBits = map[int]bool{16: true, 32: true, 64: true}

func (t *vecTracker) checkCall(call *ast.CallExpr) {
	spec, name, recv, ok := t.resolve(call)
	if !ok {
		return
	}

	// Constant width/lane validity.
	callBits := 0
	if spec.bitsArg >= 0 && spec.bitsArg < len(call.Args) {
		if v, isConst := constInt(t.pkg, call.Args[spec.bitsArg]); isConst {
			callBits = int(v)
			legal := callBits == 128 || callBits == 256 || callBits == 512 || (spec.allowScalar && callBits == 64)
			if !legal {
				t.pass.Reportf(call.Pos(), "invalid register width %d passed to %s (legal: 128, 256, 512)", callBits, name)
			}
		}
	}
	callLane := 0
	if spec.laneArg >= 0 && spec.laneArg < len(call.Args) {
		if v, isConst := constInt(t.pkg, call.Args[spec.laneArg]); isConst {
			callLane = int(v)
			if !legalLaneBits[callLane] {
				t.pass.Reportf(call.Pos(), "invalid lane width %d passed to %s (legal: 16, 32, 64)", callLane, name)
			}
		}
	}

	// Operand consistency.
	infos := t.operandInfos(call, spec, recv)
	firstBits := callBits
	for _, oi := range infos {
		if oi.bits == 0 {
			continue
		}
		if firstBits == 0 {
			firstBits = oi.bits
		} else if oi.bits != firstBits {
			t.pass.Reportf(call.Pos(), "mixed register widths %d and %d passed to %s", firstBits, oi.bits, name)
		}
	}
	if callLane != 0 {
		for _, oi := range infos {
			if oi.lane != 0 && oi.lane != callLane {
				t.pass.Reportf(call.Pos(), "lane-width mismatch: register of %d-bit lanes passed to %d-bit %s", oi.lane, callLane, name)
			}
		}
	}

	// Mask consistency.
	if spec.maskArg >= 0 && spec.maskArg < len(call.Args) {
		mi := t.eval(call.Args[spec.maskArg])
		if mi.lane != 0 && callLane != 0 && mi.lane != callLane {
			t.pass.Reportf(call.Pos(), "lane-width mismatch: mask built over %d-bit lanes passed to %d-bit %s", mi.lane, callLane, name)
		}
		if mi.bits != 0 && firstBits != 0 && mi.bits != firstBits {
			t.pass.Reportf(call.Pos(), "mask built over a %d-bit register passed to %d-bit %s", mi.bits, firstBits, name)
		}
	}
}
