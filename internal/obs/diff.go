package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// DiffOptions tunes manifest comparison. Both tolerances default to zero —
// exact comparison — because same-config runs of this simulator are
// bit-deterministic; cross-commit comparisons pass RelTol.
type DiffOptions struct {
	// RelTol admits |new-old| <= RelTol*|old| for numeric values.
	RelTol float64
	// AbsTol admits |new-old| <= AbsTol for numeric values.
	AbsTol float64
}

// Delta is one value that differs between two manifests beyond tolerance.
type Delta struct {
	Kind string // "config", "arch", "artifact", "metric", "account"
	Key  string
	Old  string
	New  string
	// Rel is (new-old)/old for numeric values with nonzero old, else 0.
	Rel float64
}

// DiffReport is the outcome of DiffManifests.
type DiffReport struct {
	Deltas []Delta
	// OnlyOld/OnlyNew list keys present in just one manifest — drift in
	// the compared population (a metric series or account frame that
	// appeared or vanished), which counts as a difference.
	OnlyOld []string
	OnlyNew []string
}

// Clean reports whether the two manifests matched within tolerance.
func (r *DiffReport) Clean() bool {
	return len(r.Deltas) == 0 && len(r.OnlyOld) == 0 && len(r.OnlyNew) == 0
}

// wallClockMetrics are metric names whose values derive from the wall clock
// and are therefore skipped in diffs (the manifest analog of keeping
// -simspeed output out of deterministic artifacts).
var wallClockMetrics = map[string]bool{
	"sim_speed_mlookups_per_s": true,
}

// numbersEqual compares two rendered values: numerically within tolerance
// when both parse as floats, byte-equal otherwise.
func (o DiffOptions) numbersEqual(oldS, newS string) (equal bool, rel float64) {
	if oldS == newS {
		return true, 0
	}
	ov, oerr := strconv.ParseFloat(oldS, 64)
	nv, nerr := strconv.ParseFloat(newS, 64)
	if oerr != nil || nerr != nil {
		return false, 0
	}
	diff := nv - ov
	if diff < 0 {
		diff = -diff
	}
	abs := ov
	if abs < 0 {
		abs = -abs
	}
	if ov != 0 {
		rel = (nv - ov) / ov
	}
	return diff <= o.AbsTol+o.RelTol*abs, rel
}

// DiffManifests compares two run manifests: config and arch (string
// equality), artifact digests, every metric point, and every account frame.
// Wall-derived fields (WallSeconds, sim-speed metrics) are skipped. The
// report lists value deltas beyond tolerance plus keys present on only one
// side, in the deterministic order of the inputs.
func DiffManifests(old, new *Manifest, o DiffOptions) *DiffReport {
	r := &DiffReport{}

	if old.Arch != new.Arch {
		r.Deltas = append(r.Deltas, Delta{Kind: "arch", Key: "arch", Old: old.Arch, New: new.Arch})
	}
	if strings.Join(old.Args, " ") != strings.Join(new.Args, " ") {
		r.Deltas = append(r.Deltas, Delta{Kind: "config", Key: "args",
			Old: strings.Join(old.Args, " "), New: strings.Join(new.Args, " ")})
	}
	diffStringMap(r, "config", old.Config, new.Config, sortedKeys(old.Config, new.Config))
	diffStringMap(r, "artifact", old.Artifacts, new.Artifacts, sortedKeys(old.Artifacts, new.Artifacts))

	// Metrics: join on the point identity, compare values numerically.
	oldM := make(map[string]string, len(old.Metrics))
	oldOrder := make([]string, 0, len(old.Metrics))
	for _, p := range old.Metrics {
		if wallClockMetrics[p.Name] {
			continue
		}
		oldM[p.Key()] = p.Value
		oldOrder = append(oldOrder, p.Key())
	}
	newSeen := make(map[string]bool, len(new.Metrics))
	for _, p := range new.Metrics {
		if wallClockMetrics[p.Name] {
			continue
		}
		k := p.Key()
		newSeen[k] = true
		oldV, ok := oldM[k]
		if !ok {
			r.OnlyNew = append(r.OnlyNew, "metric "+k)
			continue
		}
		if eq, rel := o.numbersEqual(oldV, p.Value); !eq {
			r.Deltas = append(r.Deltas, Delta{Kind: "metric", Key: k, Old: oldV, New: p.Value, Rel: rel})
		}
	}
	for _, k := range oldOrder {
		if !newSeen[k] {
			r.OnlyOld = append(r.OnlyOld, "metric "+k)
		}
	}

	// Account: folded lines keyed by stack, values numeric.
	oldA, oldAOrder := parseFolded(old.Account)
	newA, newAOrder := parseFolded(new.Account)
	for _, stack := range newAOrder {
		oldV, ok := oldA[stack]
		if !ok {
			r.OnlyNew = append(r.OnlyNew, "account "+stack)
			continue
		}
		if eq, rel := o.numbersEqual(oldV, newA[stack]); !eq {
			r.Deltas = append(r.Deltas, Delta{Kind: "account", Key: stack, Old: oldV, New: newA[stack], Rel: rel})
		}
	}
	for _, stack := range oldAOrder {
		if _, ok := newA[stack]; !ok {
			r.OnlyOld = append(r.OnlyOld, "account "+stack)
		}
	}

	return r
}

// sortedKeys merges and sorts the keys of two maps (old's order first would
// be arbitrary; sorted is deterministic and stable across sides).
func sortedKeys(a, b map[string]string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	//lint:ignore determlint iteration only marks membership; keys are sorted below before any output
	for k := range a {
		seen[k] = true
	}
	//lint:ignore determlint iteration only marks membership; keys are sorted below before any output
	for k := range b {
		seen[k] = true
	}
	//lint:ignore determlint order is canonicalized by the sort below before any output
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func diffStringMap(r *DiffReport, kind string, old, new map[string]string, keys []string) {
	for _, k := range keys {
		oldV, inOld := old[k]
		newV, inNew := new[k]
		switch {
		case inOld && !inNew:
			r.OnlyOld = append(r.OnlyOld, kind+" "+k)
		case !inOld && inNew:
			r.OnlyNew = append(r.OnlyNew, kind+" "+k)
		case oldV != newV:
			r.Deltas = append(r.Deltas, Delta{Kind: kind, Key: k, Old: oldV, New: newV})
		}
	}
}

// parseFolded splits folded lines into stack→value plus the line order.
// The value is the text after the last space (frames may contain spaces).
func parseFolded(lines []string) (map[string]string, []string) {
	m := make(map[string]string, len(lines))
	order := make([]string, 0, len(lines))
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		stack, val := line[:i], line[i+1:]
		m[stack] = val
		order = append(order, stack)
	}
	return m, order
}

// Write renders the report for humans: one line per difference, empty output
// when clean.
func (r *DiffReport) Write(w io.Writer) error {
	for _, d := range r.Deltas {
		var err error
		if d.Rel != 0 {
			_, err = fmt.Fprintf(w, "%s %s: %s -> %s (%+.2f%%)\n", d.Kind, d.Key, d.Old, d.New, 100*d.Rel)
		} else {
			_, err = fmt.Fprintf(w, "%s %s: %s -> %s\n", d.Kind, d.Key, d.Old, d.New)
		}
		if err != nil {
			return err
		}
	}
	for _, k := range r.OnlyOld {
		if _, err := fmt.Fprintf(w, "only in old: %s\n", k); err != nil {
			return err
		}
	}
	for _, k := range r.OnlyNew {
		if _, err := fmt.Fprintf(w, "only in new: %s\n", k); err != nil {
			return err
		}
	}
	return nil
}
