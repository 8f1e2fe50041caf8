// Package cache implements a set-associative, LRU, multi-level cache
// hierarchy simulator.
//
// The performance engine charges every simulated memory access through a
// Hierarchy, which walks L1 → L2 → L3 → DRAM and returns the access latency
// in CPU cycles. Because the cuckoo hash tables in this repository live in
// simulated arenas (internal/mem) with stable addresses, the hierarchy sees
// the same line-granularity behaviour the paper's hardware saw: bucketized
// tables that fit a bucket in one line cost one miss per probe, N-way tables
// cost up to N, skewed workloads keep their hot set resident, and tables
// larger than a level spill to the next one.
package cache

import (
	"fmt"
	"math/bits"

	"simdhtbench/internal/mem"
	"simdhtbench/internal/obs"
)

// Config describes one cache level.
type Config struct {
	Name    string  // "L1D", "L2", ...
	Size    int     // total bytes
	Assoc   int     // ways per set
	Latency float64 // access latency in cycles on hit at this level
}

// Stats accumulates per-level hit/miss counters.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 when the level was never touched.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// maxAssoc is the most ways a level can have: a set's occupancy is one byte.
const maxAssoc = 255

// tagSpan is the first address a 32-bit line tag cannot hold (256 GiB).
// Every simulated address comes from a mem.AddressSpace, which starts at
// 1 MiB, so only a bug reaches it.
const tagSpan = (1 << 32) * mem.LineSize

// hotLineNone is the sentinel for an empty per-level hot register; no line
// number can equal it (line numbers are 32-bit).
const hotLineNone = ^uint64(0)

// lineNumber returns the 32-bit tag of the line holding addr.
func lineNumber(addr uint64) uint32 {
	if addr >= tagSpan {
		panic(fmt.Sprintf("cache: address %#x is at or beyond the 256 GiB a 32-bit line tag covers", addr))
	}
	return uint32(addr / mem.LineSize)
}

// level is one set-associative cache level with LRU replacement. All sets
// live in one flat array of 32-bit line numbers — set i occupies
// tags[i*stride : i*stride+used[i]] in recency order (offset 0 = most
// recently used) — so an access touches one contiguous span. The stride is
// the most lines any set has held, so the array holds numSets·stride tags
// rather than numSets·assoc: a level starts with stride 0 and no tags,
// takes its first stride from a bulk warm-up or its first install, and then
// widens by one only when an install would overflow a set that is full at
// the current stride but below assoc. Sets never lose lines (an eviction
// replaces one), so the stride always equals the fullest set's occupancy.
// An access computes its set once: with a mask when the set count is a
// power of two, else with a multiply-high remainder, exact for every 32-bit
// line number.
type level struct {
	cfg     Config
	tags    []uint32 // numSets*stride line numbers, each set MRU first
	used    []uint8  // resident lines per set
	numSets uint64
	setMask uint64 // numSets-1 when numSets is a power of two, else 0
	modMul  uint64 // ^uint64(0)/numSets + 1, the remainder's multiplier
	assoc   int
	stride  int // tag slots per set: the fullest set's occupancy, 0 until the first install
	stats   Stats

	// hotLine short-circuits repeated accesses to the most recently
	// accessed line number: after any access (hit or install) that line is
	// at the MRU position of its set, so the next access to the same line
	// is a hit that needs no scan and no reorder.
	hotLine uint64
}

func newLevel(cfg Config) *level {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.Assoc > maxAssoc {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	lines := cfg.Size / mem.LineSize
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	l := &level{
		cfg:     cfg,
		used:    make([]uint8, numSets),
		numSets: uint64(numSets),
		modMul:  ^uint64(0)/uint64(numSets) + 1,
		assoc:   cfg.Assoc,
		hotLine: hotLineNone,
	}
	if numSets&(numSets-1) == 0 {
		l.setMask = uint64(numSets) - 1
	}
	return l
}

// setIndex maps a line number to its set: num % numSets, computed as
// hi64((modMul·num mod 2^64) · numSets) when numSets is not a power of two.
// With a 64-bit multiplier that remainder is exact for every 32-bit
// numerator and divisor (Lemire, Kaser and Kurz, "Faster Remainder by
// Direct Computation", 2019).
func (l *level) setIndex(num uint32) uint64 {
	if l.setMask != 0 {
		return uint64(num) & l.setMask
	}
	hi, _ := bits.Mul64(l.modMul*uint64(num), l.numSets)
	return hi
}

// access looks up a line number; on miss the line is installed in the same
// set, possibly evicting the LRU way. Returns whether it hit and whether the
// install evicted a resident line.
func (l *level) access(num uint32) (hit, evicted bool) {
	if uint64(num) == l.hotLine {
		// The previous access left this line at its set's MRU position;
		// nothing to scan or reorder.
		l.stats.Hits++
		return true, false
	}
	l.hotLine = uint64(num)
	s := l.setIndex(num)
	set := l.tags[s*uint64(l.stride):][:l.stride]
	live := set[:l.used[s]]
	i := 0
	for i < len(live) && live[i] != num {
		i++
	}
	switch {
	case i < len(live):
		l.stats.Hits++
		hit = true
	case len(live) < l.assoc:
		l.stats.Misses++
		if len(live) == l.stride {
			l.grow(l.stride + 1)
			set = l.tags[s*uint64(l.stride):][:l.stride]
		}
		l.used[s]++
	default:
		l.stats.Misses++
		i-- // the LRU way makes room
		evicted = true
	}
	// Shift the ways ahead of slot i back by one and put num at MRU.
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = num
	return hit, evicted
}

// grow widens every set to stride tag slots, keeping each set's lines in
// recency order.
func (l *level) grow(stride int) {
	//lint:ignore alloclint a level widens at most assoc times, each time to the occupancy its fullest set needs
	tags := make([]uint32, l.numSets*uint64(stride))
	for s := uint64(0); s < l.numSets; s++ {
		copy(tags[s*uint64(stride):], l.tags[s*uint64(l.stride):][:l.used[s]])
	}
	l.tags, l.stride = tags, stride
}

// bulkTouch installs the n > 0 consecutive line numbers from first, in order,
// into a level at stride 0, with the stats and end state of n accesses.
// Every line misses, since the lines are distinct and the level starts
// empty. Within any assoc·numSets consecutive lines each set receives
// exactly assoc of them, so only the last keep = min(n, assoc·numSets)
// survive, and consecutive lines fall in consecutive sets, so the fullest
// set holds ⌈keep/numSets⌉ of them, the stride the level takes. Walking back
// from the last line, each survivor goes straight to the next free slot of
// its set, which is its final recency position.
func (l *level) bulkTouch(first uint32, n int) {
	l.stats.Misses += uint64(n)
	sets := int(l.numSets)
	keep := min(n, l.assoc*sets)
	l.grow((keep + sets - 1) / sets)
	num := first + uint32(n-1)
	l.hotLine = uint64(num)
	s := l.setIndex(num)
	for k := 0; k < keep; k++ {
		l.tags[s*uint64(l.stride)+uint64(l.used[s])] = num
		l.used[s]++
		num--
		if s == 0 {
			s = l.numSets
		}
		s--
	}
}

// Hierarchy is a multi-level cache backed by DRAM. Its levels are
// independent: a miss installs the line in every level it probed, and no
// level ever back-invalidates another (an L3 eviction leaves the line in L1
// and L2), so no level's state depends on another's.
type Hierarchy struct {
	levels      []*level
	dramLatency float64
	dramAccess  uint64
	// DRAMPenalty multiplies the DRAM latency; the execution engine sets it
	// above 1.0 to model memory-bandwidth contention when all cores of a
	// node probe a shared table (full-subscription mode in the paper).
	DRAMPenalty float64
	// Probe, when non-nil, observes charged accesses level by level (obs
	// layer). Touch stays silent, so probes see only latency-charged
	// traffic.
	Probe obs.CacheProbe
}

// New builds a hierarchy from outermost-first level configs and a DRAM
// latency in cycles.
func New(dramLatency float64, levels ...Config) *Hierarchy {
	h := &Hierarchy{dramLatency: dramLatency, DRAMPenalty: 1.0}
	for _, cfg := range levels {
		h.levels = append(h.levels, newLevel(cfg))
	}
	return h
}

// Access simulates a data access of size bytes at addr and returns its
// latency in cycles. Accesses spanning multiple cache lines charge each line
// independently (the paper's layouts are engineered around exactly this
// effect: a (2,4) BCHT bucket fits one line, a 3-way probe touches three).
func (h *Hierarchy) Access(addr uint64, size int) float64 {
	var cycles float64
	first := mem.LineOf(addr)
	n := mem.LinesTouched(addr, size)
	for i := 0; i < n; i++ {
		c, _, _ := h.accessLineServed(first + uint64(i)*mem.LineSize)
		cycles += c
	}
	return cycles
}

// AccessLineServed performs a single-line access and additionally reports
// which level served it: the index into Levels() of the hitting level, or
// len(Levels()) when the fill went to DRAM. The cycle accounting is the
// accessLineServed path Access uses too — identical float operations in
// identical order — so profiled and unprofiled runs charge bit-identical
// latencies.
func (h *Hierarchy) AccessLineServed(line uint64) (cycles float64, served int) {
	c, _, s := h.accessLineServed(line)
	return c, s
}

// AccessLineDetailServed performs a single-line access and returns its
// latency, the contention excess — the portion of the latency contributed by
// the multi-core DRAM-bandwidth penalty — and the serving-level index (see
// AccessLineServed). Overlapped access mechanisms (gathers) can hide
// uncontended latency behind memory-level parallelism but cannot hide
// bandwidth saturation, so the engine scales only the non-excess part.
func (h *Hierarchy) AccessLineDetailServed(line uint64) (cycles, contentionExcess float64, served int) {
	return h.accessLineServed(line)
}

func (h *Hierarchy) accessLineServed(addr uint64) (float64, float64, int) {
	num := lineNumber(addr)
	var cycles float64
	for i, l := range h.levels {
		cycles += l.cfg.Latency
		hit, evicted := l.access(num)
		if h.Probe != nil {
			h.Probe.LevelAccess(l.cfg.Name, hit)
			if evicted {
				h.Probe.Eviction(l.cfg.Name)
			}
		}
		if hit {
			return cycles, 0, i
		}
	}
	h.dramAccess++
	if h.Probe != nil {
		h.Probe.LevelAccess("DRAM", true)
	}
	return cycles + h.dramLatency*h.DRAMPenalty, h.dramLatency * (h.DRAMPenalty - 1), len(h.levels)
}

// Touch accesses every line of [addr, addr+size) in every level, installing
// the ones that miss, without charging latency or firing the probe. Hits and
// misses count in the level stats; DRAMAccesses does not move. It warms
// caches before a measured run (the paper's discarded warm-up iterations),
// and it is the path of every uncharged access and of the charged stream
// accesses, whose cost the engine bills itself.
//
// Because the levels are independent, Touch walks one level at a time. A
// level nothing has been installed in (stride 0) takes a range of more than
// one line in bulk, in O(level capacity) rather than O(range).
func (h *Hierarchy) Touch(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first, last := lineNumber(addr), lineNumber(addr+uint64(size-1))
	n := int(last-first) + 1
	for _, l := range h.levels {
		if n > 1 && l.stride == 0 {
			l.bulkTouch(first, n)
			continue
		}
		for i := 0; i < n; i++ {
			l.access(first + uint32(i))
		}
	}
}

// Pristine reports whether the hierarchy is as New built it: nothing has
// been installed in any level and no access went to DRAM.
func (h *Hierarchy) Pristine() bool {
	if h.dramAccess != 0 {
		return false
	}
	for _, l := range h.levels {
		if l.stride != 0 {
			return false
		}
	}
	return true
}

// CopyFrom makes h's simulated state equal src's, whatever h held before:
// each level's resident lines and their recency order, its stride, its
// stats and its hot-line register, plus the DRAM access count. Every later
// access then behaves on h exactly as it would on src. The DRAM
// latency, DRAMPenalty and Probe stay h's own. It panics unless both
// hierarchies have the same level configs, since only a bug pairs
// different geometries.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	if len(h.levels) != len(src.levels) {
		panic(fmt.Sprintf("cache: CopyFrom between hierarchies of %d and %d levels", len(h.levels), len(src.levels)))
	}
	for i, l := range h.levels {
		s := src.levels[i]
		if l.cfg != s.cfg {
			panic(fmt.Sprintf("cache: CopyFrom between levels %+v and %+v", l.cfg, s.cfg))
		}
		if len(l.tags) != len(s.tags) {
			l.tags = make([]uint32, len(s.tags))
		}
		copy(l.tags, s.tags)
		copy(l.used, s.used)
		l.stride, l.stats, l.hotLine = s.stride, s.stats, s.hotLine
	}
	h.dramAccess = src.dramAccess
}

// ResetStats clears statistics but keeps resident lines, so a measured run
// can follow a warm-up without refilling the caches.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.stats = Stats{}
	}
	h.dramAccess = 0
}

// LevelStats returns the stats of the named level, and whether it exists.
func (h *Hierarchy) LevelStats(name string) (Stats, bool) {
	for _, l := range h.levels {
		if l.cfg.Name == name {
			return l.stats, true
		}
	}
	return Stats{}, false
}

// DRAMAccesses returns how many line fills went all the way to memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramAccess }

// Levels returns the names of the configured levels, outermost first.
func (h *Hierarchy) Levels() []string {
	names := make([]string, len(h.levels))
	for i, l := range h.levels {
		names[i] = l.cfg.Name
	}
	return names
}
