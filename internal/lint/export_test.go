package lint

import "fmt"

// The analyzers' test harness. It lives in a test file, exported to the
// external lint_test package, so no production code carries it.

// LoadSynthetic type-checks the given files as a package under a caller-
// chosen import path (which controls which analyzers consider it in scope)
// and returns it wrapped in a single-package Module. Module-internal imports
// in the files resolve against the loader's module.
func (l *Loader) LoadSynthetic(importPath string, filenames ...string) (*Module, error) {
	files, err := l.parseFiles(filenames)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(importPath, "", files)
	if err != nil {
		return nil, err
	}
	return &Module{Root: l.root, Path: l.modPath, Fset: l.fset, Pkgs: []*Package{pkg}, loader: l}, nil
}

// CheckInvariants validates structural CFG invariants (used by the CFG tests
// and the fuzz target): consistent block indices, edge endpoint symmetry, and
// Exit having no successors.
func (c *CFG) CheckInvariants() error {
	for i, blk := range c.Blocks {
		if blk.Index != i {
			return fmt.Errorf("block %d has index %d", i, blk.Index)
		}
		for _, e := range blk.Succs {
			if e.From != blk {
				return fmt.Errorf("block %d: successor edge with From != block", i)
			}
			if !containsEdge(e.To.Preds, e) {
				return fmt.Errorf("block %d: successor edge missing from %d's preds", i, e.To.Index)
			}
		}
		for _, e := range blk.Preds {
			if e.To != blk {
				return fmt.Errorf("block %d: predecessor edge with To != block", i)
			}
			if !containsEdge(e.From.Succs, e) {
				return fmt.Errorf("block %d: predecessor edge missing from %d's succs", i, e.From.Index)
			}
		}
	}
	if len(c.Exit.Succs) != 0 {
		return fmt.Errorf("exit block has %d successors", len(c.Exit.Succs))
	}
	return nil
}

func containsEdge(edges []*Edge, e *Edge) bool {
	for _, x := range edges {
		if x == e {
			return true
		}
	}
	return false
}
