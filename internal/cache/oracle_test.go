package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simdhtbench/internal/mem"
)

// refLevel is a straightforward reference implementation of one
// set-associative LRU level: a slice per set kept in MRU-first order — the
// formulation the flat-array level was derived from. The property test
// drives both against the same access stream and requires identical
// observable behaviour at every step.
type refLevel struct {
	sets    [][]uint64
	numSets uint64
	assoc   int
	hits    uint64
	misses  uint64
	last    uint64 // line number of the latest access, or hotLineNone
}

func newRefLevel(cfg Config) *refLevel {
	lines := cfg.Size / mem.LineSize
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	return &refLevel{sets: make([][]uint64, numSets), numSets: uint64(numSets), assoc: cfg.Assoc, last: hotLineNone}
}

func (r *refLevel) access(line uint64) (hit, evicted bool) {
	r.last = line / mem.LineSize
	idx := (line / mem.LineSize) % r.numSets
	set := r.sets[idx]
	for i, tag := range set {
		if tag == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			r.hits++
			return true, false
		}
	}
	r.misses++
	if len(set) < r.assoc {
		set = append(set, 0)
	} else {
		evicted = true
	}
	copy(set[1:], set)
	set[0] = line
	r.sets[idx] = set
	return false, evicted
}

// TestLevelMatchesReferenceLRU drives the optimized level and the reference
// LRU over identical random access streams — including hot-register-friendly
// repeats — across power-of-two and non-power-of-two set counts, and checks
// hit/eviction decisions and stats match access by access.
func TestLevelMatchesReferenceLRU(t *testing.T) {
	configs := []Config{
		{Name: "L1-pow2", Size: 32 << 10, Assoc: 8, Latency: 4},
		{Name: "L3-nonpow2", Size: 11 * 64 * 37, Assoc: 11, Latency: 40}, // 37 sets
		{Name: "direct", Size: 4 << 10, Assoc: 1, Latency: 1},
		{Name: "one-set", Size: 4 * 64, Assoc: 4, Latency: 1},
	}
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			fast := newLevel(cfg)
			ref := newRefLevel(cfg)
			rng := rand.New(rand.NewSource(42))
			lines := int(ref.numSets)*cfg.Assoc*2 + 3 // force conflicts
			var prev uint64
			for step := 0; step < 20000; step++ {
				var line uint64
				switch rng.Intn(4) {
				case 0: // repeat the previous line (hot-register path)
					line = prev
				default:
					line = uint64(rng.Intn(lines)) * mem.LineSize
				}
				prev = line
				h1, e1 := fast.access(uint32(line / mem.LineSize))
				h2, e2 := ref.access(line)
				if h1 != h2 || e1 != e2 {
					t.Fatalf("%s step %d line %#x: fast (hit=%v evicted=%v) vs ref (hit=%v evicted=%v)",
						cfg.Name, step, line, h1, e1, h2, e2)
				}
			}
			if fast.stats.Hits != ref.hits || fast.stats.Misses != ref.misses {
				t.Fatalf("%s stats: fast %d/%d vs ref %d/%d",
					cfg.Name, fast.stats.Hits, fast.stats.Misses, ref.hits, ref.misses)
			}
			if err := sameContents(fast, ref); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		})
	}
}

// sameContents compares a level's resident lines with the reference's set
// by set, in LRU order, as 32-bit line tags, and checks its stride.
func sameContents(fast *level, ref *refLevel) error {
	for s := uint64(0); s < fast.numSets; s++ {
		got := fast.tags[s*uint64(fast.stride):][:fast.used[s]]
		want := ref.sets[s]
		if len(got) != len(want) {
			return fmt.Errorf("set %d: %d resident vs %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != uint32(want[i]/mem.LineSize) {
				return fmt.Errorf("set %d way %d: tag %#x vs %#x", s, i, got[i], want[i]/mem.LineSize)
			}
		}
	}
	return sameStride(fast, ref)
}

// sameStride checks that a level's stride is the occupancy of the
// reference's fullest set and that it holds exactly numSets·stride tags.
func sameStride(fast *level, ref *refLevel) error {
	fullest := 0
	for _, set := range ref.sets {
		fullest = max(fullest, len(set))
	}
	if fast.stride != fullest || uint64(len(fast.tags)) != fast.numSets*uint64(fullest) {
		return fmt.Errorf("stride %d over %d tags, want the fullest set's %d over %d sets", fast.stride, len(fast.tags), fullest, fast.numSets)
	}
	return nil
}

// refHierarchy runs refLevels the way Hierarchy runs its levels: a charged
// access probes them in order until one hits and then goes to DRAM, and
// Touch accesses every level line by line.
type refHierarchy struct {
	cfgs        []Config
	levels      []*refLevel
	dramLatency float64
	penalty     float64
	dram        uint64
}

// access charges one line and returns its latency, contention excess and
// serving level, with the probe events Hierarchy must fire for it.
func (r *refHierarchy) access(line uint64) (cycles, excess float64, served int, events []string) {
	for i, l := range r.levels {
		cycles += r.cfgs[i].Latency
		hit, evicted := l.access(line)
		events = append(events, fmt.Sprintf("%s:%v", r.cfgs[i].Name, hit))
		if evicted {
			events = append(events, "evict:"+r.cfgs[i].Name)
		}
		if hit {
			return cycles, 0, i, events
		}
	}
	r.dram++
	events = append(events, "DRAM:true")
	return cycles + r.dramLatency*r.penalty, r.dramLatency * (r.penalty - 1), len(r.levels), events
}

func (r *refHierarchy) touch(first uint64, n int) {
	for i := 0; i < n; i++ {
		for _, l := range r.levels {
			l.access(first + uint64(i)*mem.LineSize)
		}
	}
}

// recProbe records the probe events of a charged access.
type recProbe struct{ events []string }

func (p *recProbe) LevelAccess(level string, hit bool) {
	p.events = append(p.events, fmt.Sprintf("%s:%v", level, hit))
}

func (p *recProbe) Eviction(level string) { p.events = append(p.events, "evict:"+level) }

// take returns the events recorded since the last call.
func (p *recProbe) take() []string {
	ev := p.events
	p.events = nil
	return ev
}

type progReader struct{ data []byte }

func (r *progReader) done() bool { return len(r.data) == 0 }

func (r *progReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *progReader) u16() int {
	return int(r.byte()) | int(r.byte())<<8
}

// fuzzSetCounts are the set counts a fuzzed level picks from: a single set,
// powers of two, and counts the multiply-high remainder serves.
var fuzzSetCounts = []int{1, 2, 4, 16, 64, 3, 5, 7, 37, 100}

// growSeed is a program for one level of assoc ways over
// fuzzSetCounts[setIdx] sets that charges assoc+1 lines of set 0, so the
// level widens through every stride up to assoc and then evicts. With
// copyAt in [0, assoc] it continues on a copy before charging line copyAt:
// into a fresh hierarchy when into is 0, else into the spare.
func growSeed(assoc, setIdx, copyAt int, into byte) []byte {
	// One level at latency 1, DRAM latency 100 without penalty, lines from 1 MiB.
	prog := []byte{0, byte(assoc - 1), byte(setIdx), 0, 0, 0, 1}
	for k := 0; k <= assoc; k++ {
		if k == copyAt {
			prog = append(prog, 6, 0, 0, 0, into)
		}
		off := k * fuzzSetCounts[setIdx]
		prog = append(prog, 1, byte(off), byte(off>>8), 0)
	}
	return prog
}

// FuzzHierarchyMatchesReference builds a random geometry of one to three
// levels (1–20 ways, set counts from fuzzSetCounts) and runs a random
// program on it and on a refHierarchy: Access, AccessLineServed,
// AccessLineDetailServed, Touch ranges up to three times the largest
// level's capacity — on empty levels when the program starts with one —
// ResetStats, and CopyFrom, after which the program continues on the copy.
// The copy goes into a fresh hierarchy or into a spare of the same
// geometry: at first one whose levels a Touch of twice their capacity
// filled, later the hierarchy the previous copy left behind, so copies land
// on destinations at a narrower, equal and wider stride. Lines come from a
// window of four capacities placed at the bottom of the tag range, at
// 1 MiB, or at its top. Every step must agree on latency, contention
// excess, serving level and probe events (evictions included), and every
// level's stride must be its fullest set's occupancy; at the end the
// per-level stats, DRAMAccesses, hot registers and the contents of every
// set must agree.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add([]byte{2, 7, 3, 4, 1, 9, 30, 0, 1, 3, 0, 0, 1, 200, 0, 0, 5, 0, 0, 0, 1, 40, 0, 0})
	f.Add(growSeed(20, 9, -1, 0)) // 20 ways over 100 sets
	f.Add(growSeed(11, 8, 5, 0))  // an L3-like 11 ways over 37 sets, copied into a fresh hierarchy halfway
	f.Add(growSeed(8, 0, 3, 1))   // 8 ways over one set, copied into the full spare
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &progReader{data: prog}
		ref := &refHierarchy{}
		capLines := 0
		for i := 1 + int(r.byte()%3); i > 0; i-- {
			assoc := 1 + int(r.byte()%20)
			sets := fuzzSetCounts[int(r.byte())%len(fuzzSetCounts)]
			cfg := Config{Name: fmt.Sprintf("L%d", len(ref.cfgs)+1), Size: sets * assoc * mem.LineSize, Assoc: assoc, Latency: float64(1 + r.byte()%50)}
			ref.cfgs = append(ref.cfgs, cfg)
			ref.levels = append(ref.levels, newRefLevel(cfg))
			capLines = max(capLines, sets*assoc)
		}
		ref.dramLatency = float64(100 + int(r.byte()))
		ref.penalty = 1 + float64(r.byte()%4)/4
		probe := &recProbe{}
		build := func() *Hierarchy {
			h := New(ref.dramLatency, ref.cfgs...)
			h.DRAMPenalty = ref.penalty
			h.Probe = probe
			return h
		}
		h, spare := build(), build()
		spare.Touch(0, 2*capLines*mem.LineSize)

		const tagLines = uint64(math.MaxUint32) + 1
		window := uint64(4*capLines + 8)
		base := [...]uint64{0, (1 << 20) / mem.LineSize, tagLines - window}[r.byte()%3]
		for step := 0; !r.done() && step < 256; step++ {
			op := r.byte() % 7
			line := base + uint64(r.u16())%window
			addr := line*mem.LineSize + uint64(r.byte()%mem.LineSize)
			switch op {
			case 0: // Access of 1–256 bytes, clipped at the tag range
				size := int(min(1+uint64(r.byte()), tagSpan-addr))
				got := h.Access(addr, size)
				var want float64
				var events []string
				for i, n := 0, mem.LinesTouched(addr, size); i < n; i++ {
					c, _, _, ev := ref.access(mem.LineOf(addr) + uint64(i)*mem.LineSize)
					want += c
					events = append(events, ev...)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: Access(%#x, %d) = %v, reference %v", step, addr, size, got, want)
				}
				checkEvents(t, step, probe.take(), events)
			case 1, 2:
				wantC, wantX, wantS, events := ref.access(line * mem.LineSize)
				var gotC, gotX float64
				var gotS int
				if op == 1 {
					gotC, gotS = h.AccessLineServed(addr)
				} else {
					gotC, gotX, gotS = h.AccessLineDetailServed(addr)
				}
				if math.Float64bits(gotC) != math.Float64bits(wantC) || gotS != wantS ||
					(op == 2 && math.Float64bits(gotX) != math.Float64bits(wantX)) {
					t.Fatalf("step %d op %d line %#x: (%v, %v, %d), reference (%v, %v, %d)",
						step, op, line, gotC, gotX, gotS, wantC, wantX, wantS)
				}
				checkEvents(t, step, probe.take(), events)
			case 3, 4: // Touch of up to three capacities, clipped at the tag range
				n := 1 + r.u16()%(3*capLines)
				n = int(min(uint64(n), tagLines-line))
				h.Touch(addr, (n-1)*mem.LineSize+1)
				ref.touch(line*mem.LineSize, n)
				checkEvents(t, step, probe.take(), nil)
			case 5:
				h.ResetStats()
				ref.dram = 0
				for _, l := range ref.levels {
					l.hits, l.misses = 0, 0
				}
			case 6:
				dst := spare
				if r.byte()%2 == 0 {
					dst = build()
				}
				dst.CopyFrom(h)
				h, spare = dst, h
			}
			for i, l := range h.levels {
				if err := sameStride(l, ref.levels[i]); err != nil {
					t.Fatalf("step %d %s: %v", step, ref.cfgs[i].Name, err)
				}
			}
		}

		if h.DRAMAccesses() != ref.dram {
			t.Fatalf("DRAMAccesses = %d, reference %d", h.DRAMAccesses(), ref.dram)
		}
		for i, l := range h.levels {
			rl := ref.levels[i]
			if st, _ := h.LevelStats(ref.cfgs[i].Name); st.Hits != rl.hits || st.Misses != rl.misses {
				t.Fatalf("%s stats %d/%d, reference %d/%d", ref.cfgs[i].Name, st.Hits, st.Misses, rl.hits, rl.misses)
			}
			if l.hotLine != rl.last {
				t.Fatalf("%s hot register %#x, reference last line %#x", ref.cfgs[i].Name, l.hotLine, rl.last)
			}
			if err := sameContents(l, rl); err != nil {
				t.Fatalf("%s: %v", ref.cfgs[i].Name, err)
			}
		}
	})
}

func checkEvents(t *testing.T, step int, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step %d: probe events %v, reference %v", step, got, want)
	}
}
