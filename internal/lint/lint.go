// Package lint is a small stdlib-only static-analysis framework with
// project-specific analyzers guarding the invariants the simulation's
// scientific claims rest on:
//
//   - alloclint: functions marked //lint:hotpath, and everything the call
//     graph reaches from them, must not allocate.
//   - chargelint: in charged kernels (functions that use an
//     *engine.Engine) under internal/cuckoo and internal/kvs, every read or
//     write of simulated memory must be billed through the engine
//     (MemAccess/ScalarLoad/StreamLoad/Gather/...), and ChargeCycles must
//     take named cost constants, not magic literals.
//   - determlint: experiment output must be byte-identical run to run and
//     at any -parallel worker count, so the output-producing packages and
//     the cmd/ mains may not read the wall clock, use the globally-seeded
//     math/rand functions, or range over maps.
//   - parlint: goroutine worker bodies may write shared state only through
//     the canonical-order merge.
//   - problint: every obs probe call must be dominated by a nil guard on
//     that probe.
//   - reachlint: every production function must be reachable from a main,
//     an init or a sanctioned entry point.
//   - veclint: internal/vec call sites must use legal register widths
//     (128/256/512) and lane widths (16/32/64), and may not mix register
//     widths or lane interpretations between operands, masks and ops.
//
// Analyzers run over non-test files only; tests are exempt by design (they
// routinely read simulated memory raw to assert on it, and benchmark tests
// time themselves).
//
// A diagnostic can be suppressed with a comment on its line or the line
// directly above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory: a suppression without one is itself reported.
// One line can name several comma-separated analyzers when a single site
// legitimately trips more than one check. A suppression that names an
// analyzer of the run, sits in a package that analyzer checks, and covers
// none of its findings is stale, and is reported too. reachlint directives
// are exempt: they mark roots, not findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, printable as "file:line: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Render formats the diagnostic with the filename relative to root when
// possible.
func (d Diagnostic) Render(root string) string {
	name := d.Pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d: [%s] %s", name, d.Pos.Line, d.Analyzer, d.Message)
}

func (d Diagnostic) String() string { return d.Render("") }

// Pass is the per-run context handed to an analyzer.
type Pass struct {
	Module   *Module
	Universe []*Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Module.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Scope lists the package path prefixes the analyzer checks; nil
	// checks every package.
	Scope []string
	Run   func(*Pass)
}

// All returns the full analyzer suite in deterministic order: alloclint,
// chargelint, determlint, parlint, problint, reachlint and veclint. Together
// with the framework's built-in suppression-hygiene check (reported under
// the analyzer name "lint"), this is the eight-check suite CI runs.
func All() []*Analyzer {
	return []*Analyzer{AllocLint, ChargeLint, DetermLint, ParLint, ProbLint, ReachLint, VecLint}
}

// Run executes the analyzers over the module's packages, applies
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position. Suppressions lacking a reason, and stale suppressions (see
// the package doc), are reported under the "lint" analyzer name.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	universe := m.Universe()
	ran := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{Module: m, Universe: universe, analyzer: a, diags: &diags}
		a.Run(pass)
		ran[a.Name] = a
	}

	supps, badSupps := collectSuppressions(m)
	diags = append(diags, badSupps...)

	kept := diags[:0]
	for _, d := range diags {
		if !suppress(supps, d) {
			kept = append(kept, d)
		}
	}
	for _, s := range supps {
		a := ran[s.analyzer]
		if a != nil && a != ReachLint && !s.used && (a.Scope == nil || inScope(s.pkg, a.Scope...)) {
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing: no %s finding on this line or the next", s.analyzer, s.analyzer),
			})
		}
	}
	diags = kept

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedupe identical findings (e.g. two operands of one call each tripping
	// the same mismatch).
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// suppression is one analyzer named by a parsed //lint:ignore comment.
type suppression struct {
	pos      token.Position
	pkg      string // import path of the directive's package
	analyzer string
	used     bool // it covered at least one finding
}

const ignorePrefix = "//lint:ignore"

// collectSuppressions scans every file's comments for //lint:ignore
// directives. Directives without a written reason are returned as
// diagnostics instead of suppressions.
func collectSuppressions(m *Module) ([]suppression, []Diagnostic) {
	var supps []suppression
	var bad []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "//lint:ignore requires an analyzer name and a written reason",
						})
						continue
					}
					// One directive can suppress several analyzers at one
					// site: //lint:ignore alloclint,chargelint reason.
					for _, name := range strings.Split(fields[0], ",") {
						if name = strings.TrimSpace(name); name != "" {
							supps = append(supps, suppression{pos: pos, pkg: pkg.Path, analyzer: name})
						}
					}
				}
			}
		}
	}
	return supps, bad
}

// suppress reports whether a suppression covers d (same file and analyzer,
// on d's line or the line above) and marks every one that does as used.
func suppress(supps []suppression, d Diagnostic) bool {
	covered := false
	for i := range supps {
		s := &supps[i]
		if s.analyzer == d.Analyzer && s.pos.Filename == d.Pos.Filename &&
			(s.pos.Line == d.Pos.Line || s.pos.Line == d.Pos.Line-1) {
			s.used = true
			covered = true
		}
	}
	return covered
}

// inScope reports whether the package path lies under one of the given
// prefixes, segment-aware (prefix "a/b" matches "a/b" and "a/b/c", not
// "a/bc").
func inScope(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// eachFuncDecl visits every function declaration with a body in the file.
func eachFuncDecl(f *ast.File, fn func(*ast.FuncDecl)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd)
		}
	}
}
