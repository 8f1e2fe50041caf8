package simdhtbench_test

import (
	"testing"

	"simdhtbench/internal/lint"
)

// BenchmarkLintModule times one full static-analysis pass over the module:
// all eight checks (alloclint, chargelint, determlint, parlint, problint,
// reachlint, veclint, suppression hygiene) on the already-loaded,
// already-type-checked package set. Loading and type-checking are excluded —
// they are dominated by the stdlib source importer and measured implicitly
// by the setup — so the number tracks the cost of the CFG/call-graph/dataflow
// engine itself as analyzers are added.
func BenchmarkLintModule(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := loader.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := lint.Run(mod, lint.All()); len(diags) != 0 {
			b.Fatalf("module not lint-clean: %d finding(s), first: %s", len(diags), diags[0].Render(root))
		}
	}
}
