package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// hostInfo stamps every result with the machine and code that produced it.
// Results from hosts with different core counts are not comparable, and the
// compare command refuses them.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"git_revision"`
	SourceHash string `json:"source_sha256"`
}

// collectHost reads the host record. root is the repository checkout whose
// Go sources the source hash covers.
func collectHost(root string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Revision:   gitRevision(),
		SourceHash: sourceHash(root),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision returns the VCS revision the binary was built from, as the Go
// toolchain stamped it, or "unknown" when the build tree was no git checkout.
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash digests go.mod and every .go file under root outside hidden,
// testdata and benchmark-build directories, so results can be matched to
// the code under test even where no git revision is available.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's peak resident set in MB (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// sharePackages maps a profiled function's package to its host_share
// metric suffix. Functions of other packages count as "other".
var sharePackages = map[string]string{
	"simdhtbench/internal/vec":     "vec",
	"simdhtbench/internal/engine":  "engine",
	"simdhtbench/internal/cache":   "cache",
	"simdhtbench/internal/cuckoo":  "cuckoo",
	"simdhtbench/internal/mem":     "mem",
	"simdhtbench/internal/des":     "des",
	"simdhtbench/internal/netsim":  "netsim",
	"simdhtbench/internal/kvs":     "kvs",
	"simdhtbench/internal/memslap": "memslap",
	"runtime":                      "runtime",
}

// funcPackage returns the import path of a pprof function name such as
// "simdhtbench/internal/cache.(*level).access" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i] // receiver types and type arguments may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// hostShares runs the installed `go tool pprof` on a CPU profile and sums
// the flat (self) share of every function by package.
func hostShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-symbolize=none", "-nodefraction=0", "-nodecount=1000000", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parsePprofTop(out)
}

// parsePprofTop parses `pprof -top` text: after the "flat flat%" header,
// each row is "flat flat% sum% cum cum% function".
func parsePprofTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64)
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		fn := strings.Join(f[5:], " ")
		key, ok := sharePackages[funcPackage(fn)]
		if !ok {
			key = "other"
		}
		shares[key] += pct / 100
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no rows:\n%s", out)
	}
	return shares, nil
}
