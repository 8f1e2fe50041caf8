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

func renderFig2(t *testing.T, parallel int) []byte {
	t.Helper()
	tbl, err := Fig2(Options{Queries: 6000, Seed: 1, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.Bytes()
}

func TestDeterminismFig2(t *testing.T) {
	seq := renderFig2(t, 1)
	par := renderFig2(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("fig2 diverges between -parallel 1 and -parallel 8:\n--- p1 ---\n%s\n--- p8 ---\n%s", seq, par)
	}
	checkGolden(t, "fig2_seed1.golden", seq)
}

func kvsGoldenOptions(parallel int) KVSOptions {
	return KVSOptions{
		Items: 4000, Workers: 4, Clients: 4, Requests: 150,
		Batches: []int{8, 16}, Seed: 7, Parallel: parallel,
	}
}

func renderFig11b(t *testing.T, parallel int) []byte {
	t.Helper()
	res, err := Fig11StudyResult(kvsGoldenOptions(parallel))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Fig11bTable(res).Fprint(&buf)
	return buf.Bytes()
}

func TestDeterminismFig11b(t *testing.T) {
	seq := renderFig11b(t, 1)
	par := renderFig11b(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("fig11b diverges between -parallel 1 and -parallel 8:\n--- p1 ---\n%s\n--- p8 ---\n%s", seq, par)
	}
	checkGolden(t, "fig11b_seed7.golden", seq)
}

// TestSweepStatsObserved pins the OnSweep plumbing: the observer must fire
// once per fan-out with one timing entry per job, without perturbing output.
func TestSweepStatsObserved(t *testing.T) {
	var jobs, calls int
	o := kvsGoldenOptions(8)
	o.OnSweep = func(s *sweep.Stats) { calls++; jobs += len(s.Jobs) }
	res, err := Fig11StudyResult(o)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("OnSweep fired %d times, want 1", calls)
	}
	// 2 batches x 3 backends.
	if jobs != 6 {
		t.Errorf("observed %d job stats, want 6", jobs)
	}
	var buf bytes.Buffer
	Fig11bTable(res).Fprint(&buf)
	if !bytes.Equal(buf.Bytes(), renderFig11b(t, 8)) {
		t.Error("attaching OnSweep changed the rendered table")
	}
}
