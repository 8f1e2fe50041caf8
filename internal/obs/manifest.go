package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
)

// Manifest is the structured description of one CLI run (`run.json`):
// everything obsdiff needs to decide whether two runs are the same
// experiment and whether anything regressed. All fields except WallSeconds
// are deterministic for a given config — two identical runs produce
// byte-identical manifests apart from that one wall-derived field, which
// diffs skip.
type Manifest struct {
	// Tool names the producing binary (simdhtbench / kvsbench).
	Tool string `json:"tool"`
	// GitRev is the VCS revision baked into the build, or "unknown" when
	// the binary carries no VCS info (e.g. `go run` outside a checkout).
	GitRev string `json:"git_rev"`
	// Arch is the architecture model the run simulated, when one applies.
	Arch string `json:"arch,omitempty"`
	// Args are the non-flag CLI arguments (the experiment selectors).
	Args []string `json:"args,omitempty"`
	// Config maps every flag name to its effective value, output-path
	// flags excluded (see ExcludedConfigFlags) so two runs writing their
	// artifacts to different paths still compare clean.
	Config map[string]string `json:"config"`
	// Seeds calls out the RNG seeds (also present in Config) explicitly.
	Seeds map[string]string `json:"seeds,omitempty"`
	// Artifacts maps each emitted artifact name to "sha256:<hex>" of its
	// exact bytes.
	Artifacts map[string]string `json:"artifacts,omitempty"`
	// Metrics is the full metric snapshot (the CSV rows, structured).
	Metrics []MetricPoint `json:"metrics,omitempty"`
	// Account holds the cycle-account tree as folded flamegraph lines;
	// AccountDigest is sha256 over exactly those bytes.
	Account       []string `json:"account,omitempty"`
	AccountDigest string   `json:"account_digest,omitempty"`
	// WallSeconds is the run's wall-clock duration — the sim-speed record.
	// It is wall-derived and therefore excluded from diffs.
	WallSeconds float64 `json:"wall_seconds"`
}

// ExcludedConfigFlags are the flag names FlagConfig drops from the manifest
// Config: output paths (and the manifest itself) vary between otherwise-
// identical runs, and the -parallel sweep fan-out is proven
// output-invariant — obsdiff between runs at different worker counts must
// come back clean, which is the determinism check ci.sh performs.
var ExcludedConfigFlags = map[string]bool{
	"manifest":   true,
	"trace":      true,
	"metrics":    true,
	"cpuprofile": true,
	"memprofile": true,
	"parallel":   true,
}

// FlagConfig captures every flag of fs (set or default) as a name→value map,
// excluding ExcludedConfigFlags. flag.VisitAll iterates in sorted name order
// and JSON objects marshal with sorted keys, so the result is deterministic.
func FlagConfig(fs *flag.FlagSet) map[string]string {
	cfg := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		if ExcludedConfigFlags[f.Name] {
			return
		}
		cfg[f.Name] = f.Value.String()
	})
	return cfg
}

// GitRevision returns the VCS revision embedded in the running binary, or
// "unknown" when none is available.
func GitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// HashBytes returns "sha256:<hex>" of b — the artifact digest format used in
// Manifest.Artifacts.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Write renders the manifest as indented JSON. Map keys and metric rows are
// already in deterministic order, so identical runs render identical bytes
// (modulo WallSeconds).
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path, propagating write/close errors.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing manifest %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: closing manifest %s: %w", path, err)
	}
	return nil
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	return &m, nil
}

// BuildManifest assembles the run manifest for one CLI invocation: flags
// (output paths excluded), positional args, seeds, artifact digests, the
// metric snapshot, and — when profiling was enabled — the cycle account as
// folded lines plus its digest. Everything except wallSeconds is
// deterministic for a given config.
func BuildManifest(tool, archName string, fs *flag.FlagSet, seeds, artifacts map[string]string, col *Collector, wallSeconds float64) (*Manifest, error) {
	m := &Manifest{
		Tool:        tool,
		GitRev:      GitRevision(),
		Arch:        archName,
		Args:        fs.Args(),
		Config:      FlagConfig(fs),
		Seeds:       seeds,
		Artifacts:   artifacts,
		WallSeconds: wallSeconds,
	}
	if col != nil {
		m.Metrics = col.Registry.Snapshot()
		if set := col.ProfilerSet(); set != nil && !set.Empty() {
			var buf bytes.Buffer
			if err := set.WriteFolded(&buf); err != nil {
				return nil, err
			}
			m.AccountDigest = HashBytes(buf.Bytes())
			if s := strings.TrimRight(buf.String(), "\n"); s != "" {
				m.Account = strings.Split(s, "\n")
			}
		}
	}
	return m, nil
}
