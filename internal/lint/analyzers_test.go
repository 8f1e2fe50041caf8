package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"simdhtbench/internal/lint"
)

// All tests share one Loader: the "source" stdlib importer re-type-checks
// imported standard-library packages from GOROOT, which is the dominant cost
// and is fully memoized inside a loader.
var (
	loaderOnce sync.Once
	sharedL    *lint.Loader
	sharedRoot string
	loaderErr  error
)

func sharedLoader(t *testing.T) (*lint.Loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		if sharedRoot, loaderErr = lint.FindModuleRoot("."); loaderErr == nil {
			sharedL, loaderErr = lint.NewLoader(sharedRoot)
		}
	})
	if loaderErr != nil {
		t.Fatalf("shared loader: %v", loaderErr)
	}
	return sharedL, sharedRoot
}

func TestChargeLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/cuckoo/lintcase", "testdata/chargecase.go",
		[]*lint.Analyzer{lint.ChargeLint})
}

func TestDetermLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/experiments/lintcase", "testdata/determcase.go",
		[]*lint.Analyzer{lint.DetermLint})
}

// TestDetermLintFault checks that the fault-injection layer is in the
// determinism scope: an unseeded draw, a wall-clock window or a map-order
// merge would silently break byte-identical fault timing.
func TestDetermLintFault(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/fault/lintcase", "testdata/faultcase.go",
		[]*lint.Analyzer{lint.DetermLint})
}

// TestDetermLintObsWallClock checks the internal/obs carve-out: WallNow's
// body may read the clock (the single sanctioned profiling site); any
// other wall-clock read in the obs subtree is still reported.
func TestDetermLintObsWallClock(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/obs/lintcase", "testdata/obswallcase.go",
		[]*lint.Analyzer{lint.DetermLint})
}

func TestAllocLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/alloccase", "testdata/alloccase.go",
		[]*lint.Analyzer{lint.AllocLint})
}

func TestProbLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/probcase", "testdata/probcase.go",
		[]*lint.Analyzer{lint.ProbLint})
}

func TestParLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/parcase", "testdata/parcase.go",
		[]*lint.Analyzer{lint.ParLint})
}

// TestReachLint runs the fixture as a cmd/ program: its main and init are
// the roots.
func TestReachLint(t *testing.T) {
	runWantCase(t, "simdhtbench/cmd/reachcase", "testdata/reachcase.go",
		[]*lint.Analyzer{lint.ReachLint})
}

func TestVecLint(t *testing.T) {
	runWantCase(t, "simdhtbench/internal/veccase", "testdata/veccase.go",
		[]*lint.Analyzer{lint.VecLint})
}

// TestChargeLintScoping checks that the same kernel code outside
// internal/cuckoo and internal/kvs (and outside near-miss sibling
// directories like internal/cuckoomap) is not reported at all.
func TestChargeLintScoping(t *testing.T) {
	loader, _ := sharedLoader(t)
	for _, path := range []string{"simdhtbench/internal/other/chargescope", "simdhtbench/internal/cuckoomap/chargescope"} {
		mod, err := loader.LoadSynthetic(path, "testdata/chargecase.go")
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, d := range lint.Run(mod, []*lint.Analyzer{lint.ChargeLint}) {
			t.Errorf("unexpected diagnostic for out-of-scope package %s: %s", path, d)
		}
	}
}

// TestSuppressionRequiresReason checks that //lint:ignore without a written
// reason is itself reported and does not suppress the underlying finding.
func TestSuppressionRequiresReason(t *testing.T) {
	loader, _ := sharedLoader(t)
	fn := filepath.Join(t.TempDir(), "suppress.go")
	src := `package lintcase

import "time"

func f() time.Time {
	//lint:ignore determlint
	return time.Now()
}
`
	if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := loader.LoadSynthetic("simdhtbench/internal/experiments/suppresscase", fn)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := lint.Run(mod, []*lint.Analyzer{lint.DetermLint})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (bad suppression + unsuppressed finding):\n%s", len(diags), renderAll(diags))
	}
	if diags[0].Analyzer != "lint" || !strings.Contains(diags[0].Message, "requires an analyzer name and a written reason") {
		t.Errorf("first diagnostic = %s, want the missing-reason report", diags[0])
	}
	if diags[1].Analyzer != "determlint" || !strings.Contains(diags[1].Message, "time.Now") {
		t.Errorf("second diagnostic = %s, want the unsuppressed time.Now finding", diags[1])
	}
}

// TestStaleSuppressionReported checks that a //lint:ignore naming an
// analyzer of the run that found nothing on the directive's line or the next
// is reported, while a load-bearing directive, a directive naming an
// analyzer outside the run and a reachlint root directive are not.
func TestStaleSuppressionReported(t *testing.T) {
	loader, _ := sharedLoader(t)
	fn := filepath.Join(t.TempDir(), "stale.go")
	src := `package lintcase

import "time"

//lint:ignore reachlint fixture: a root, not a suppression
func F() time.Time {
	//lint:ignore determlint profiling-only timestamp
	start := time.Now()
	//lint:ignore determlint stale: nothing on the next line reads a clock
	_ = start
	//lint:ignore chargelint names an analyzer this run leaves out
	return start
}
`
	if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := loader.LoadSynthetic("simdhtbench/internal/experiments/stalecase", fn)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := lint.Run(mod, []*lint.Analyzer{lint.DetermLint, lint.ReachLint})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (the stale determlint directive):\n%s", len(diags), renderAll(diags))
	}
	if d := diags[0]; d.Analyzer != "lint" || d.Pos.Line != 9 || !strings.Contains(d.Message, "determlint suppresses nothing") {
		t.Errorf("diagnostic = %s, want the stale determlint directive on line 9", d)
	}
}

// TestMultiAnalyzerSuppression checks that one //lint:ignore line with a
// comma-separated analyzer list silences findings from every listed analyzer
// on the next line — and that the same code without the suppression yields
// both findings, so the suppression is known to be load-bearing.
func TestMultiAnalyzerSuppression(t *testing.T) {
	loader, _ := sharedLoader(t)
	const body = `package lintcase

import (
	"time"

	"simdhtbench/internal/engine"
	"simdhtbench/internal/mem"
)

const cost = 1.0

func kernel(e *engine.Engine, a *mem.Arena) (uint64, time.Time) {
	e.ChargeCycles(cost)
	%s
	return a.ReadUint(0, 64), time.Now()
}
`
	run := func(path, suppression string) []lint.Diagnostic {
		t.Helper()
		fn := filepath.Join(t.TempDir(), "multi.go")
		if err := os.WriteFile(fn, []byte(fmt.Sprintf(body, suppression)), 0o644); err != nil {
			t.Fatal(err)
		}
		mod, err := loader.LoadSynthetic(path, fn)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		return lint.Run(mod, []*lint.Analyzer{lint.ChargeLint, lint.DetermLint})
	}

	suppressed := run("simdhtbench/internal/kvs/multicase",
		"//lint:ignore chargelint,determlint fixture: the raw read is charged out of band and the timestamp is display-only")
	if len(suppressed) != 0 {
		t.Errorf("suppressed run produced diagnostics:\n%s", renderAll(suppressed))
	}

	bare := run("simdhtbench/internal/kvs/multicase2", "")
	if len(bare) != 2 {
		t.Fatalf("unsuppressed run: got %d diagnostics, want 2 (chargelint + determlint):\n%s", len(bare), renderAll(bare))
	}
	if bare[0].Analyzer != "chargelint" || !strings.Contains(bare[0].Message, "raw arena access") {
		t.Errorf("first diagnostic = %s, want the chargelint raw-access finding", bare[0])
	}
	if bare[1].Analyzer != "determlint" || !strings.Contains(bare[1].Message, "time.Now") {
		t.Errorf("second diagnostic = %s, want the determlint time.Now finding", bare[1])
	}
}

// runWantCase loads one testdata file under the given synthetic import path,
// runs the analyzers, and checks the produced diagnostics against the file's
// "want" comments: every diagnostic must match a want on its line, and every
// want must be matched by exactly one diagnostic.
func runWantCase(t *testing.T, importPath, filename string, analyzers []*lint.Analyzer) {
	t.Helper()
	loader, _ := sharedLoader(t)
	mod, err := loader.LoadSynthetic(importPath, filename)
	if err != nil {
		t.Fatalf("load %s: %v", filename, err)
	}
	diags := lint.Run(mod, analyzers)
	wants := parseWants(t, filename)

	for _, d := range diags {
		ws := wants[d.Pos.Line]
		found := false
		for _, w := range ws {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", filename, line, w.re)
			}
		}
	}
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantPattern = regexp.MustCompile("`([^`]*)`")

// parseWants extracts `// want `re`...` expectations per line (1-based).
func parseWants(t *testing.T, filename string) map[int][]*want {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]*want)
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		for _, m := range wantPattern.FindAllStringSubmatch(line[idx:], -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, m[1], err)
			}
			wants[i+1] = append(wants[i+1], &want{re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no want comments found", filename)
	}
	return wants
}

func renderAll(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
