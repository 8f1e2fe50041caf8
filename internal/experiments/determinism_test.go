package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"simdhtbench/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The sweep runner promises bit-for-bit identical output regardless of the
// worker count. These tests pin that promise two ways: Parallel:1 vs
// Parallel:8 renderings are compared byte-for-byte, and both are compared
// against a committed golden file so a cross-version drift (not just a
// sequential/parallel divergence) also fails the build. Regenerate with
//
//	go test ./internal/experiments -run Determinism -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// checkDeterminism prints the named artifact at -parallel 1 and 8 and pins
// both printouts against its golden.
func checkDeterminism(t *testing.T, name string) {
	t.Helper()
	seq := printArtifact(t, name, artifactGoldens[name].at(1, nil))
	par := printArtifact(t, name, artifactGoldens[name].at(8, nil))
	if !bytes.Equal(seq, par) {
		t.Fatalf("%s diverges between -parallel 1 and -parallel 8:\n--- p1 ---\n%s\n--- p8 ---\n%s", name, seq, par)
	}
	checkArtifactGolden(t, name, seq)
}

func TestDeterminismFig2(t *testing.T) { checkDeterminism(t, "fig2") }

func TestDeterminismFig11b(t *testing.T) { checkDeterminism(t, "fig11b") }

// TestSweepStatsObserved pins the OnSweep plumbing: the observer must fire
// once per fan-out with one timing entry per job, without perturbing output.
// Fig. 11a and 11b print one sweep, so an invocation that prints both fans
// out once.
func TestSweepStatsObserved(t *testing.T) {
	var jobs, calls int
	inv := artifactGoldens["fig11b"].at(8, nil)
	inv.KVS.OnSweep = func(s *sweep.Stats) { calls++; jobs += len(s.Jobs) }
	printArtifact(t, "fig11a", inv)
	out := printArtifact(t, "fig11b", inv)
	if calls != 1 {
		t.Errorf("OnSweep fired %d times, want 1", calls)
	}
	// 2 batches x 3 backends.
	if jobs != 6 {
		t.Errorf("observed %d job stats, want 6", jobs)
	}
	checkArtifactGolden(t, "fig11b", out)
}
