package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetermLint guards PR 1's determinism contract: experiment output is
// byte-identical run to run and at any -parallel worker count. In the
// packages that produce or render that output it forbids
//
//   - wall-clock reads (time.Now/Since/Until) — simulated time comes from
//     engine cycles, never from the host clock;
//   - the process-globally-seeded math/rand package functions — every
//     random stream must come from rand.New(rand.NewSource(seed)) so runs
//     replay exactly;
//   - ranging over a map — Go randomizes map iteration order, so a bare
//     map range feeding a table or golden file reorders output between
//     runs. Iterate a sorted key slice instead.
//
// Wall-clock use that feeds profiling-only output (the -sweepstats report)
// is not suppressed site by site: the one sanctioned clock is
// internal/obs.WallNow, and the analyzer carves out that single function
// (see obsWallClockAllowed). Everything else in internal/obs — the
// deterministic metrics/trace artifacts — is linted like the rest.
var DetermLint = &Analyzer{
	Name:  "determlint",
	Doc:   "experiment/report code must be deterministic at any worker count",
	Scope: determScope,
	Run:   runDetermLint,
}

var determScope = []string{
	"simdhtbench/internal/experiments",
	"simdhtbench/internal/fault",
	"simdhtbench/internal/kvs",
	"simdhtbench/internal/memslap",
	"simdhtbench/internal/netsim",
	"simdhtbench/internal/sweep",
	"simdhtbench/internal/report",
	"simdhtbench/internal/obs",
	"simdhtbench/cmd",
}

// obsWallClockPkg is the package subtree whose WallNow function is the
// module's single sanctioned wall-clock read (profiling only).
const obsWallClockPkg = "simdhtbench/internal/obs"

// obsWallClockAllowed reports whether a file's wall-clock reads inside a
// function named WallNow are sanctioned: only in the obs package itself.
func obsWallClockAllowed(pkg *Package) bool {
	return inScope(pkg.Path, obsWallClockPkg)
}

// wallNowRanges collects the source ranges of WallNow function bodies in f,
// inside which time.Now is permitted.
func wallNowRanges(f *ast.File) [][2]token.Pos {
	var out [][2]token.Pos
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if ok && fd.Recv == nil && fd.Name.Name == "WallNow" {
			out = append(out, [2]token.Pos{fd.Pos(), fd.End()})
		}
	}
	return out
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDetermLint(pass *Pass) {
	for _, pkg := range pass.Module.Pkgs {
		if !inScope(pkg.Path, determScope...) {
			continue
		}
		for _, f := range pkg.Files {
			var allowed [][2]token.Pos
			if obsWallClockAllowed(pkg) {
				allowed = wallNowRanges(f)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDetermCall(pass, pkg, n, allowed)
				case *ast.RangeStmt:
					if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(),
								"map iteration order is nondeterministic and must not reach report/golden output; iterate a sorted key slice or annotate how order is canonicalized before output")
						}
					}
				}
				return true
			})
		}
	}
}

func checkDetermCall(pass *Pass, pkg *Package, call *ast.CallExpr, allowed [][2]token.Pos) {
	fn, ok := calleeObject(pkg, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. Time.Sub, Rand.Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			for _, r := range allowed {
				if call.Pos() >= r[0] && call.Pos() < r[1] {
					return // inside obs.WallNow, the sanctioned clock
				}
			}
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s makes output nondeterministic; derive timings from simulated engine cycles or annotate profiling-only use",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// The New* constructors (New, NewSource, NewZipf, ...) build
		// explicitly-seeded generators and are the sanctioned pattern.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(),
				"global math/rand.%s draws from process-global state; use rand.New(rand.NewSource(seed)) so runs replay exactly",
				fn.Name())
		}
	}
}
