package lint_test

import (
	"testing"

	"simdhtbench/internal/lint"
)

// TestRealModuleClean is the regression gate: the committed tree must lint
// clean under all eight checks (alloclint, chargelint, determlint, parlint,
// problint, reachlint, veclint, suppression hygiene) — every finding either
// fixed or carrying a reasoned //lint:ignore. A new allocation in a hot
// path, a raw arena access reachable from a charged kernel, a wall-clock
// read in an experiment, an unguarded probe deref, a shared write in a sweep
// worker, a function no main reaches, or a lane-width mix-up fails this test
// (and `make check`).
func TestRealModuleClean(t *testing.T) {
	loader, root := sharedLoader(t)
	mod, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(mod.Pkgs))
	}
	for _, d := range lint.Run(mod, lint.All()) {
		t.Errorf("%s", d.Render(root))
	}
}
