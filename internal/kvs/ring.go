package kvs

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"simdhtbench/internal/hashfn"
)

// Ring is the client-side consistent-hash ring of Section VI-A's request
// phase: "each key in MGet(K1..Kn) is mapped to a specific Memcached server
// using consistent hashing, and requests are batched by their respective
// servers". Virtual nodes smooth the key distribution across servers, as in
// libmemcached's ketama.
//
// A ring is immutable: membership changes (Join/Leave) return a new ring at
// the next epoch, with only the departing/arriving server's vnode arcs
// changing ownership (minimal remapping). Fleet-scale replication walks the
// same ring for successor replicas via ReplicaOwners, whose first entry is
// the key's primary owner. Lookups take the key's 64-bit
// hashfn.HashBytes value rather than its bytes, so a caller that places
// the same keys again (a fleet at every epoch) hashes each key once.
type Ring struct {
	points  []ringPoint
	members []int // sorted distinct server ids
	vnodes  int
	epoch   int

	// arcStart indexes the points by the top bits of their hashes: the
	// points whose hash has top bits b are points[arcStart[b]:arcStart[b+1]].
	// It has 2^k+1 entries for the smallest k with 2^k > len(points), so a
	// bucket holds less than one point on average and Arc scans about one.
	arcStart []int32
	arcShift uint // 64 − k
}

type ringPoint struct {
	hash   uint64
	server int
}

// DefaultVNodes is the virtual-node count per server (ketama uses 100–200).
const DefaultVNodes = 160

// NewRing builds a ring over servers 0..servers-1 with vnodes virtual nodes
// each (0 picks DefaultVNodes), at epoch 0.
func NewRing(servers, vnodes int) (*Ring, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("kvs: ring needs at least one server")
	}
	members := make([]int, servers)
	for s := range members {
		members[s] = s
	}
	return NewRingMembers(members, vnodes)
}

// NewRingMembers builds a ring at epoch 0 over an explicit member set.
// Member ids must be distinct and non-negative; vnodes 0 picks
// DefaultVNodes. The vnode hash of a member depends only on its id, so two
// rings over the same member set own identical key ranges regardless of how
// they were constructed.
func NewRingMembers(members []int, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("kvs: ring needs at least one server")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	for i, s := range sorted {
		if s < 0 {
			return nil, fmt.Errorf("kvs: ring member %d is negative", s)
		}
		if i > 0 && sorted[i-1] == s {
			return nil, fmt.Errorf("kvs: duplicate ring member %d", s)
		}
	}
	r := &Ring{members: sorted, vnodes: vnodes}
	for _, s := range sorted {
		r.points = append(r.points, vnodePoints(s, vnodes)...)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.indexArcs()
	return r, nil
}

// indexArcs builds arcStart over the sorted points. Every constructor calls
// it once its points are in place.
func (r *Ring) indexArcs() {
	k := bits.Len(uint(len(r.points)))
	r.arcShift = uint(64 - k)
	r.arcStart = make([]int32, 1<<k+1)
	i := 0
	for b := range r.arcStart {
		for i < len(r.points) && r.points[i].hash>>r.arcShift < uint64(b) {
			i++
		}
		r.arcStart[b] = int32(i)
	}
}

// vnodePoints hashes one server's virtual nodes. The hash strings are the
// ketama-style "server-S-vnode-V" labels the original single-epoch ring
// used, so epoch-0 rings place keys exactly as before.
func vnodePoints(server, vnodes int) []ringPoint {
	pts := make([]ringPoint, vnodes)
	for v := 0; v < vnodes; v++ {
		h := hashfn.HashBytes([]byte(fmt.Sprintf("server-%d-vnode-%d", server, v)))
		pts[v] = ringPoint{hash: h, server: server}
	}
	return pts
}

// Servers returns the current member count.
func (r *Ring) Servers() int { return len(r.members) }

// Epoch returns the membership epoch (0 for a freshly built ring; +1 per
// Join or Leave).
func (r *Ring) Epoch() int { return r.epoch }

// HasMember reports whether server id is currently in the ring.
func (r *Ring) HasMember(id int) bool {
	i := sort.SearchInts(r.members, id)
	return i < len(r.members) && r.members[i] == id
}

// Join returns a new ring at the next epoch with server id added. Only
// keys landing on the new server's vnode arcs change owner (minimal
// remapping).
//
// The ring is already sorted, so Join sorts only the joiner's vnode points
// and merges them into it in one pass. Ties: a joiner's point goes after
// every ring point of equal hash, and the joiner's own points of equal hash
// keep vnode order. For distinct hashes the merged order is the only sorted
// order, and no ring over servers 0–1023 at up to DefaultVNodes vnodes has
// a tie (TestVNodeHashesDistinct).
func (r *Ring) Join(id int) (*Ring, error) {
	if id < 0 {
		return nil, fmt.Errorf("kvs: ring member %d is negative", id)
	}
	if r.HasMember(id) {
		return nil, fmt.Errorf("kvs: server %d already in ring", id)
	}
	at := sort.SearchInts(r.members, id)
	members := make([]int, 0, len(r.members)+1)
	members = append(append(append(members, r.members[:at]...), id), r.members[at:]...)
	nr := &Ring{members: members, vnodes: r.vnodes, epoch: r.epoch + 1}
	add := vnodePoints(id, r.vnodes)
	slices.SortStableFunc(add, func(a, b ringPoint) int { return cmp.Compare(a.hash, b.hash) })
	nr.points = make([]ringPoint, 0, len(r.points)+len(add))
	rest := r.points
	for _, p := range add {
		i := sort.Search(len(rest), func(i int) bool { return rest[i].hash > p.hash })
		nr.points = append(append(nr.points, rest[:i]...), p)
		rest = rest[i:]
	}
	nr.points = append(nr.points, rest...)
	nr.indexArcs()
	return nr, nil
}

// Leave returns a new ring at the next epoch with server id removed. Only
// keys the departing server owned change owner. The last member cannot
// leave.
func (r *Ring) Leave(id int) (*Ring, error) {
	if !r.HasMember(id) {
		return nil, fmt.Errorf("kvs: server %d not in ring", id)
	}
	if len(r.members) == 1 {
		return nil, fmt.Errorf("kvs: cannot remove last ring member %d", id)
	}
	members := make([]int, 0, len(r.members)-1)
	for _, s := range r.members {
		if s != id {
			members = append(members, s)
		}
	}
	nr := &Ring{members: members, vnodes: r.vnodes, epoch: r.epoch + 1}
	nr.points = make([]ringPoint, 0, len(r.points)-r.vnodes)
	for _, p := range r.points {
		if p.server != id {
			nr.points = append(nr.points, p)
		}
	}
	nr.indexArcs()
	return nr, nil
}

// Arcs returns the number of ring points. Point a ends arc a: the hashes
// after point a-1, up to and including point a's own (arc 0 also takes
// every hash after the last point).
func (r *Ring) Arcs() int { return len(r.points) }

// Arc returns the arc of hash h: the index of the first ring point at or
// after h, wrapping to point 0. Among points of equal hash it is the
// first. It scans only the points that share h's top bits (arcStart):
// every point before them hashes below h and every point after them above,
// so the first of them at or after h, or else the first point after them,
// is the answer, found in nearly constant time.
func (r *Ring) Arc(h uint64) int {
	b := h >> r.arcShift
	i, end := int(r.arcStart[b]), int(r.arcStart[b+1])
	for i < end && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		return 0
	}
	return i
}

// ArcHash returns the hash of point a, the end of arc a.
func (r *Ring) ArcHash(a int) uint64 { return r.points[a].hash }

// ReplicaOwners returns the replica set of the key whose hashfn.HashBytes
// value is h: up to n distinct servers collected by walking clockwise from
// h, the first being the key's primary owner (the server of the first ring
// point at or after h, wrapping around). When n exceeds the member count
// every member is returned. dst, when non-nil, is reused to avoid
// allocation; the result is dst[:m].
//
// A ring over a subset of another ring's members, at the same vnode count,
// holds a subset of its points (a vnode's hash depends on its server id
// alone). So on the smaller ring every hash on one arc of the larger ring
// gets the same replica set as that arc's ArcHash.
func (r *Ring) ReplicaOwners(h uint64, n int, dst []int) []int {
	if n < 1 {
		n = 1
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	dst = dst[:0]
	i := r.Arc(h)
	for scanned := 0; scanned < len(r.points) && len(dst) < n; scanned++ {
		if i == len(r.points) {
			i = 0
		}
		s := r.points[i].server
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
		i++
	}
	return dst
}
