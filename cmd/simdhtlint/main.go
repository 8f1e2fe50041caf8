// Command simdhtlint runs the project's static-analysis suite (alloclint,
// chargelint, determlint, parlint, problint, reachlint, veclint, plus the
// built-in suppression-hygiene check — see internal/lint) over the module
// and exits non-zero if any diagnostic survives //lint:ignore suppression.
//
// Usage:
//
//	simdhtlint [-C dir] [-json] [-baseline file]
//
// -C names any directory inside the module; the module root is located by
// walking up to go.mod.
//
// -json replaces the human rendering with a machine-readable report on
// stdout: the findings (root-relative file, line, column, analyzer,
// message, in deterministic order) plus per-analyzer counts and the total.
// The report is its own baseline format: a clean run's output can be
// checked in and fed back via -baseline.
//
// -baseline reads a previous -json report and turns the exit status into a
// count-regression gate: the run fails only if some analyzer produces more
// findings than the baseline records (analyzers absent from the baseline
// count as zero). Without -baseline any finding is fatal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"simdhtbench/internal/lint"
)

// report is the -json output and the -baseline input.
type report struct {
	Format   string         `json:"format"`
	Findings []finding      `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Total    int            `json:"total"`
}

type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	dir := flag.String("C", ".", "directory inside the module to lint")
	jsonOut := flag.Bool("json", false, "emit a machine-readable report on stdout instead of the human rendering")
	baseline := flag.String("baseline", "", "per-analyzer count baseline (a previous -json report); fail only on count regressions")
	flag.Parse()

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	mod, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}

	analyzers := lint.All()
	diags := lint.Run(mod, analyzers)

	counts := make(map[string]int, len(analyzers)+1)
	for _, a := range analyzers {
		counts[a.Name] = 0
	}
	counts["lint"] = 0 // the built-in suppression-hygiene check
	for _, d := range diags {
		counts[d.Analyzer]++
	}

	if *jsonOut {
		rep := report{Format: "simdhtlint-v1", Findings: make([]finding, 0, len(diags)), Counts: counts, Total: len(diags)}
		for _, d := range diags {
			rep.Findings = append(rep.Findings, finding{
				File:     relTo(root, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.Render(root))
		}
	}

	if *baseline != "" {
		regressions, err := regressionsAgainst(*baseline, counts)
		if err != nil {
			fatal(err)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "simdhtlint: count regression vs %s: %s\n", *baseline, strings.Join(regressions, ", "))
			os.Exit(1)
		}
		return
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simdhtlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// regressionsAgainst compares the run's per-analyzer counts to the baseline
// report, returning a description per analyzer that got worse.
func regressionsAgainst(path string, counts map[string]int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	names := make([]string, 0, len(counts))
	//lint:ignore determlint iteration only collects the keys; the slice is sorted below before any output
	for name := range counts {
		names = append(names, name)
	}
	// Insertion sort: deterministic regression order without importing sort.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	var regressions []string
	for _, name := range names {
		if got, want := counts[name], base.Counts[name]; got > want {
			regressions = append(regressions, fmt.Sprintf("%s %d > %d", name, got, want))
		}
	}
	return regressions, nil
}

func relTo(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simdhtlint: %v\n", err)
	os.Exit(2)
}
