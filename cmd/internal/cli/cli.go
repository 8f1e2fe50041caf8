// Package cli is the run harness the benchmark commands share: the flags
// both take (-csv -seed -parallel -sweepstats -trace -metrics -profile
// -manifest -heartbeat -faults -fault-seed -cpuprofile -memprofile), the
// collector, profiler and heartbeat those flags imply, report output, and
// the end-of-run artifact, folded-profile, manifest and pprof writing.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"simdhtbench/internal/obs"
	"simdhtbench/internal/obs/prof"
	"simdhtbench/internal/report"
	"simdhtbench/internal/sweep"
)

// Tool describes one command to the harness: its name (the error prefix
// and the manifest's tool field), its -seed default, and the help text of
// the shared flags whose meaning differs between the commands.
type Tool struct {
	Name string
	Seed int64

	SeedHelp, TraceHelp, ProfileHelp, ManifestHelp, HeartbeatHelp, FaultsHelp, FaultSeedHelp string
}

// Harness holds one invocation's shared flag values and the observability
// state they select.
type Harness struct {
	tool Tool

	CSV       bool
	Seed      int64
	Parallel  int
	Faults    string // fault.Spec text; each command parses it where it applies
	FaultSeed int64

	sweepStats                        bool
	trace, metrics, profile, manifest string
	heartbeat                         int
	cpuProfile, memProfile            string

	// Out receives report tables: stdout, or stderr under -profile, where
	// the folded account stacks own stdout.
	Out io.Writer
	// Col collects traces, metrics and the time account; nil unless
	// -trace, -metrics, -profile or -manifest is set.
	Col *obs.Collector
	// Heartbeat prints stderr liveness; nil unless -heartbeat is set.
	Heartbeat *obs.Heartbeat

	cpuFile   *os.File
	wallStart time.Time
}

// New defines the shared flags on the default flag set. Call Start after
// flag.Parse.
func New(t Tool) *Harness {
	h := &Harness{tool: t, Out: os.Stdout}
	flag.BoolVar(&h.CSV, "csv", false, "emit CSV instead of aligned tables")
	flag.Int64Var(&h.Seed, "seed", t.Seed, t.SeedHelp)
	flag.IntVar(&h.Parallel, "parallel", 0, "sweep workers fanning configurations out (0 = all cores, 1 = sequential); output is identical at every setting")
	flag.BoolVar(&h.sweepStats, "sweepstats", false, "print per-job sweep timing to stderr after each experiment")
	flag.StringVar(&h.trace, "trace", "", t.TraceHelp)
	flag.StringVar(&h.metrics, "metrics", "", "write the metrics registry as CSV")
	flag.StringVar(&h.profile, "profile", "", t.ProfileHelp)
	flag.StringVar(&h.manifest, "manifest", "", t.ManifestHelp)
	flag.IntVar(&h.heartbeat, "heartbeat", 0, t.HeartbeatHelp)
	flag.StringVar(&h.Faults, "faults", "", t.FaultsHelp)
	flag.Int64Var(&h.FaultSeed, "fault-seed", 0, t.FaultSeedHelp)
	flag.StringVar(&h.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	flag.StringVar(&h.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	return h
}

// Start applies the parsed shared flags: it validates -profile, moves the
// report tables to stderr in profile mode, starts the CPU profile and sets
// up the heartbeat, the collector and its profiler set.
func (h *Harness) Start() {
	h.wallStart = obs.WallNow()
	if h.profile != "" && h.profile != "cycles" {
		h.Fatal(fmt.Errorf("unknown -profile kind %q (want cycles)", h.profile))
	}
	if h.profile != "" {
		h.Out = os.Stderr
	}
	// pprof output is wall-clock-shaped by nature and goes to its own
	// files, never into tables, -trace or -metrics, so the deterministic
	// artifacts stay byte-identical whether or not profiling is enabled.
	if h.cpuProfile != "" {
		f, err := os.Create(h.cpuProfile)
		h.Check(err)
		h.Check(pprof.StartCPUProfile(f))
		h.cpuFile = f
	}
	h.Heartbeat = obs.NewHeartbeat(h.heartbeat, os.Stderr)
	if h.trace != "" || h.metrics != "" || h.profile != "" || h.manifest != "" {
		h.Col = obs.NewCollector()
	}
	if h.profile != "" || h.manifest != "" {
		h.Col.EnableProfiling(prof.NewSet())
	}
}

// OnSweep returns the -sweepstats observer, or nil when the flag is off.
// It renders sweep wall-clock profiling to stderr through a throwaway
// registry — profiling output never mixes into -metrics, which must stay
// deterministic.
func (h *Harness) OnSweep() func(*sweep.Stats) {
	if !h.sweepStats {
		return nil
	}
	return func(s *sweep.Stats) {
		reg := obs.NewRegistry()
		s.Record(reg)
		h.Check(reg.WriteText(os.Stderr))
		fmt.Fprintln(os.Stderr)
	}
}

// Emit writes a report table to Out, as CSV under -csv, followed by a blank
// line.
func (h *Harness) Emit(t *report.Table) {
	if h.CSV {
		t.CSV(h.Out)
	} else {
		t.Fprint(h.Out)
	}
	fmt.Fprintln(h.Out)
}

// EmitGrid writes a grid to Out followed by a blank line. A grid has no
// CSV form, so under -csv it writes nothing.
func (h *Harness) EmitGrid(g *report.Grid) {
	if !h.CSV {
		g.Fprint(h.Out)
		fmt.Fprintln(h.Out)
	}
}

// EmitText writes s to Out followed by a newline.
func (h *Harness) EmitText(s string) { fmt.Fprintln(h.Out, s) }

// Finish writes the end-of-run outputs: the -trace and -metrics artifacts,
// the time account (breakdown table to stderr, folded stacks to stdout)
// under -profile, the -manifest (archName names the simulated architecture,
// if one applies) and the pprof profiles.
func (h *Harness) Finish(archName string) {
	digests, err := obs.WriteArtifacts(h.Col, h.trace, h.metrics)
	h.Check(err)
	if h.profile != "" {
		set := h.Col.ProfilerSet()
		h.Check(set.WriteTable(os.Stderr))
		h.Check(set.WriteFolded(os.Stdout))
	}
	if h.manifest != "" {
		seeds := map[string]string{"seed": fmt.Sprint(h.Seed)}
		if h.FaultSeed != 0 {
			seeds["fault-seed"] = fmt.Sprint(h.FaultSeed)
		}
		m, err := obs.BuildManifest(h.tool.Name, archName, flag.CommandLine,
			seeds, digests, h.Col, obs.WallSince(h.wallStart).Seconds())
		h.Check(err)
		h.Check(m.WriteFile(h.manifest))
	}
	if h.memProfile != "" {
		f, err := os.Create(h.memProfile)
		h.Check(err)
		runtime.GC()
		h.Check(pprof.WriteHeapProfile(f))
		h.Check(f.Close())
	}
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		h.Check(h.cpuFile.Close())
	}
}

// Check exits through Fatal on a non-nil error.
func (h *Harness) Check(err error) {
	if err != nil {
		h.Fatal(err)
	}
}

// Fatal prints err to stderr, prefixed with the command name, and exits 1.
func (h *Harness) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", h.tool.Name, err)
	os.Exit(1)
}
