// Package prof implements a deterministic virtual-time cycle-accounting
// profiler: every cycle (or microsecond) charged through the simulator is
// attributed along an explicit frame stack — experiment scope → backend →
// template phase (hash/probe/gather/license/fill) → cache level or net hop —
// and accumulated in exact charge order, so the account tree is byte-identical
// at any sweep -parallel count.
//
// Design rules that make the account exact and deterministic:
//
//   - Each Profiler is owned by a single goroutine (one sweep job / one
//     collector scope); only Set.Profiler, the get-or-create entry point,
//     takes a lock. No cross-goroutine float accumulation ever happens, so
//     no result depends on scheduling order.
//   - AddTotal mirrors the engine's own `cycles += v` additions value-for-
//     value in the same order, so Total() compares bit-exactly (==) against
//     the engine's cycle counter — the "no unattributed residue" contract.
//     TreeSum (the per-leaf sum) equals Total only up to float association,
//     since leaves re-order the additions.
//   - Rendering sorts profilers by scope path and walks each tree in child
//     creation order (itself deterministic), so WriteFolded and WriteTable
//     are byte-stable across runs and -parallel counts.
//
// The folded output (`frame;frame;... value` per line) is directly
// consumable by standard flamegraph tooling (flamegraph.pl, speedscope).
package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Handle names one node of a Profiler's account tree. Handle 0 is the root;
// callers that cache handles may therefore use 0 as the "unresolved" zero
// value, since every chargeable leaf is a descendant of the root, never the
// root itself.
type Handle = int32

// Root is the handle of the (unnamed) root node of every Profiler.
const Root Handle = 0

// none marks the absence of a child/sibling link.
const none Handle = -1

// node is one frame of the account tree. Children form a singly-linked list
// in creation order (firstChild/nextSibling), which is the deterministic
// render order.
type node struct {
	name        string
	firstChild  Handle
	lastChild   Handle
	nextSibling Handle
	self        float64 // value charged directly to this frame
	events      uint64  // charge events landing on this frame
}

// Profiler is one scope's account tree. It is NOT safe for concurrent use:
// the deterministic-merge story of this package is that each scope is owned
// by exactly one goroutine (sweep jobs carry unique scope labels), so no
// synchronization — and no scheduling-dependent float order — exists on the
// charging path.
type Profiler struct {
	path  []string // scope path (experiment config label, variant, ...)
	unit  string   // what the values count: "cycles" or "us"
	nodes []node
	total float64 // exact mirror of the producer's own total (see AddTotal)
}

func newProfiler(path []string, unit string) *Profiler {
	p := &Profiler{path: append([]string(nil), path...), unit: unit}
	p.nodes = append(p.nodes, node{firstChild: none, lastChild: none, nextSibling: none})
	return p
}

// Child returns the handle of the named child of parent, creating it (at the
// end of the sibling list) on first use. Resolution happens once per leaf —
// producers cache the returned handle — so the append below is warm-up-only.
func (p *Profiler) Child(parent Handle, name string) Handle {
	for h := p.nodes[parent].firstChild; h != none; h = p.nodes[h].nextSibling {
		if p.nodes[h].name == name {
			return h
		}
	}
	h := Handle(len(p.nodes))
	//lint:ignore alloclint handle resolution runs once per distinct leaf; hot paths hit the cached-handle fast path
	p.nodes = append(p.nodes, node{name: name, firstChild: none, lastChild: none, nextSibling: none})
	if p.nodes[parent].firstChild == none {
		p.nodes[parent].firstChild = h
	} else {
		p.nodes[p.nodes[parent].lastChild].nextSibling = h
	}
	p.nodes[parent].lastChild = h
	return h
}

// AddSelf charges v to the frame h (one event).
func (p *Profiler) AddSelf(h Handle, v float64) {
	p.nodes[h].self += v
	p.nodes[h].events++
}

// AddEvents records n events on frame h without charging a value (used for
// events-only frames such as width-license transitions).
func (p *Profiler) AddEvents(h Handle, n uint64) {
	p.nodes[h].events += n
}

// AddTotal accumulates the profiler's total. Producers MUST call it with the
// exact same values, in the exact same order, as their own running total
// (e.g. engine cycles), so Total() is bit-exact against that counter.
func (p *Profiler) AddTotal(v float64) { p.total += v }

// Total returns the exact mirrored total (see AddTotal).
//
//lint:ignore reachlint oracle a test compares against: the exact mirror the attribution tests hold equal to Engine.Cycles
func (p *Profiler) Total() float64 { return p.total }

// TreeSum returns the sum of every frame's self value. It equals Total only
// up to floating-point association (the leaves re-order the additions); use
// Total for exact comparisons.
//
//lint:ignore reachlint oracle a test compares against: the per-frame sum the attribution tests check against Total
func (p *Profiler) TreeSum() float64 {
	var s float64
	for i := range p.nodes {
		s += p.nodes[i].self
	}
	return s
}

// cum returns the cumulative (self + descendants) value of h.
func (p *Profiler) cum(h Handle) float64 {
	v := p.nodes[h].self
	for c := p.nodes[h].firstChild; c != none; c = p.nodes[c].nextSibling {
		v += p.cum(c)
	}
	return v
}

// sanitizeFrame keeps frame names legal for the folded-stack format, whose
// only reserved byte in a frame is the ';' separator.
func sanitizeFrame(s string) string {
	if !strings.ContainsAny(s, ";\n") {
		return s
	}
	s = strings.ReplaceAll(s, ";", ":")
	return strings.ReplaceAll(s, "\n", " ")
}

// formatValue renders an account value for folded output: plain decimal
// notation, shortest round-trip digits, never exponent form (flamegraph
// tooling parses the trailing token as a plain number).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// foldedVisit walks the tree under h in creation order, emitting one folded
// line per frame with nonzero self value.
func (p *Profiler) foldedVisit(w io.Writer, h Handle, stack []string) error {
	if h != Root {
		stack = append(stack, sanitizeFrame(p.nodes[h].name))
	}
	if p.nodes[h].self != 0 {
		if _, err := fmt.Fprintf(w, "%s %s\n", strings.Join(stack, ";"), formatValue(p.nodes[h].self)); err != nil {
			return err
		}
	}
	for c := p.nodes[h].firstChild; c != none; c = p.nodes[c].nextSibling {
		if err := p.foldedVisit(w, c, stack); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded writes the profiler's account as folded flamegraph stacks:
// scope path frames first, then the tree path, ';'-joined, one line per
// frame holding self-value.
func (p *Profiler) WriteFolded(w io.Writer) error {
	stack := make([]string, 0, len(p.path)+8)
	for _, s := range p.path {
		stack = append(stack, sanitizeFrame(s))
	}
	return p.foldedVisit(w, Root, stack)
}

// tableVisit renders the human-readable breakdown rows under h.
func (p *Profiler) tableVisit(w io.Writer, h Handle, depth int, total float64) error {
	if h != Root {
		cum := p.cum(h)
		pct := 0.0
		if total != 0 {
			pct = 100 * cum / total
		}
		if _, err := fmt.Fprintf(w, "  %-*s%-*s %16.3f %6.1f%% %14.3f %10d\n",
			2*depth, "", 28-2*depth, p.nodes[h].name, cum, pct, p.nodes[h].self, p.nodes[h].events); err != nil {
			return err
		}
	}
	for c := p.nodes[h].firstChild; c != none; c = p.nodes[c].nextSibling {
		if err := p.tableVisit(w, c, depth+1, total); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable writes the top-down breakdown table: one header line with the
// scope path, unit and exact total, then one row per frame (cumulative value,
// share of total, self value, events), indented by depth in creation order.
func (p *Profiler) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s [%s] total=%s\n", strings.Join(p.path, " / "), p.unit, formatValue(p.total)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-28s %16s %7s %14s %10s\n", "frame", "cum", "share", "self", "events"); err != nil {
		return err
	}
	return p.tableVisit(w, Root, 0, p.total)
}

// pathSep joins scope path segments into the Set map key. 0x1f (unit
// separator) cannot appear in config labels, so keys never collide.
const pathSep = "\x1f"

// Set is the collection of per-scope profilers for one run. Profiler() — the
// only method called from worker goroutines — is mutex-guarded; everything
// else runs after the sweep has joined.
type Set struct {
	mu    sync.Mutex
	profs map[string]*Profiler
	keys  []string
}

// NewSet returns an empty profiler set.
func NewSet() *Set {
	return &Set{profs: make(map[string]*Profiler)}
}

// Profiler returns the profiler for the given scope path, creating it with
// the given unit on first use. Safe for concurrent callers; returns nil on a
// nil Set so profiling stays nil-means-free end to end.
func (s *Set) Profiler(unit string, path ...string) *Profiler {
	if s == nil {
		return nil
	}
	key := strings.Join(path, pathSep)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.profs[key]; ok {
		return p
	}
	p := newProfiler(path, unit)
	s.profs[key] = p
	s.keys = append(s.keys, key)
	return p
}

// Empty reports whether no profiler has recorded any value or event.
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore determlint order-insensitive any-nonzero scan; nothing is emitted
	for _, p := range s.profs {
		if p.total != 0 {
			return false
		}
		for i := range p.nodes {
			if p.nodes[i].self != 0 || p.nodes[i].events != 0 {
				return false
			}
		}
	}
	return true
}

// sorted returns the profilers ordered by scope-path key — the deterministic
// render order.
func (s *Set) sorted() []*Profiler {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := append([]string(nil), s.keys...)
	sort.Strings(keys)
	out := make([]*Profiler, len(keys))
	for i, k := range keys {
		out[i] = s.profs[k]
	}
	return out
}

// WriteFolded writes every profiler's folded stacks, profilers sorted by
// scope path. The output is byte-identical across runs and -parallel counts.
func (s *Set) WriteFolded(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, p := range s.sorted() {
		if err := p.WriteFolded(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable writes every profiler's breakdown table, profilers sorted by
// scope path.
func (s *Set) WriteTable(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, p := range s.sorted() {
		if err := p.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}
