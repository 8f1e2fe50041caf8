package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare command reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two directories of result records (--out files):
// per workload and end-to-end metric, each side's median and quartiles, the
// change against the metric's bound, and whether the simulated statistics
// of each seed run on both sides are identical. It refuses records from
// hosts with different core counts.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent's result records")
	newDir := fs.String("new", "", "directory of the change's result records")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *newDir == "" {
		fmt.Fprintln(stderr, "simbench compare: --base and --new are required")
		return 2
	}
	var def benchmarkFile
	b, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(b, &def)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simbench compare: reading %s: %v\n", *bench, err)
		return 2
	}
	base, err := loadRecords(*baseDir)
	if err != nil {
		fmt.Fprintf(stderr, "simbench compare: %v\n", err)
		return 2
	}
	cur, err := loadRecords(*newDir)
	if err != nil {
		fmt.Fprintf(stderr, "simbench compare: %v\n", err)
		return 2
	}
	if err := sameCores(append(append([]record(nil), base...), cur...)); err != nil {
		fmt.Fprintf(stderr, "simbench compare: refusing: %v\n", err)
		return 2
	}
	worse := false
	for _, wl := range workloadsIn(base, cur) {
		for _, m := range def.EndToEnd {
			bv, cv := values(base, wl, m.Name), values(cur, wl, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			b1, b3 := quartiles(bv)
			c1, c3 := quartiles(cv)
			change := ratio(cm-bm, bm)
			verdict := "ok"
			if (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound) {
				verdict, worse = "WORSE", true
			}
			fmt.Fprintf(stdout, "%-12s %-22s base %.6g [%.6g, %.6g] n=%d  new %.6g [%.6g, %.6g] n=%d  change %+.2f%% (bound %.0f%%, %s) %s\n",
				wl, m.Name, bm, b1, b3, len(bv), cm, c1, c3, len(cv), 100*change, 100*m.Bound, m.Better, verdict)
		}
		same, differ := digestsMatch(base, cur, wl)
		fmt.Fprintf(stdout, "%-12s sim_sha256: %d seeds identical, %d differ\n", wl, same, differ)
	}
	if worse {
		return 1
	}
	return 0
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no untraced result records in %s", dir)
	}
	return recs, nil
}

// sameCores refuses a comparison across hosts with different core counts.
func sameCores(recs []record) error {
	for _, r := range recs[1:] {
		if r.Host.NProc != recs[0].Host.NProc || r.Host.GOMAXPROCS != recs[0].Host.GOMAXPROCS {
			return fmt.Errorf("records from hosts with different core counts (nproc %d/gomaxprocs %d vs %d/%d)",
				recs[0].Host.NProc, recs[0].Host.GOMAXPROCS, r.Host.NProc, r.Host.GOMAXPROCS)
		}
	}
	return nil
}

func workloadsIn(sets ...[]record) []string {
	seen := map[string]bool{}
	for _, recs := range sets {
		for _, r := range recs {
			seen[r.Workload] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func values(recs []record, wl, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == wl {
			out = append(out, m.Value)
		}
	}
	return out
}

// digestsMatch counts the seeds run on both sides whose simulated-statistics
// digests agree and differ.
func digestsMatch(base, cur []record, wl string) (same, differ int) {
	bd := map[int64]string{}
	for _, r := range base {
		if r.Workload == wl {
			bd[r.Seed] = r.SimDigest
		}
	}
	for _, r := range cur {
		if d, ok := bd[r.Seed]; ok && r.Workload == wl {
			if d == r.SimDigest {
				same++
			} else {
				differ++
			}
		}
	}
	return same, differ
}
