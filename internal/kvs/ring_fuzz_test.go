package kvs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"simdhtbench/internal/hashfn"
)

// FuzzRingMembership drives an arbitrary Join/Leave history over the ring —
// each op byte encodes join/leave of a server id in [0, 16) — and checks
// the membership invariants after every successful transition: epochs
// advance by exactly one, members stay sorted and distinct, and
// ReplicaOwners never returns a non-member or panics on clamped n, and its
// rank-0 entry is the first ring point at or after the hash (checked at the
// ends of the hash space and on both sides of ring points). Arc must agree
// with searchArc, the binary search it replaced, on the ring and on rings
// of the same points with equal hashes (checkArcs, tiedRings). The ring
// converges: rebuilding a fresh ring over the surviving member set places
// keys identically to the ring that got there incrementally, and holds the
// same points in the same order (Join merges, a fresh ring sorts).
func FuzzRingMembership(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0x03, 0x05, 0x04}, uint8(3))             // joins then leaves
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x01}, uint8(1))       // drain to last member
	f.Add([]byte{0x1e, 0x1f, 0x1e, 0x1f, 0x00, 0xff}, uint8(7)) // join/leave churn on one id
	f.Fuzz(func(t *testing.T, ops []byte, vn uint8) {
		vnodes := int(vn)%32 + 1
		ring, err := NewRing(3, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		var keyHashes []uint64
		for _, key := range []string{"k-alpha", "k-bravo", "", "k-\x00\xff"} {
			keyHashes = append(keyHashes, hashfn.HashBytes([]byte(key)))
		}
		keyHashes = append(keyHashes, 0, 1, ^uint64(0))
		checkArcs(t, "the first ring", ring)
		for step, b := range ops {
			id := int(b>>1) % 16
			var next *Ring
			if b&1 == 0 {
				if ring.HasMember(id) {
					continue
				}
				next, err = ring.Join(id)
			} else {
				if !ring.HasMember(id) || ring.Servers() == 1 {
					continue
				}
				next, err = ring.Leave(id)
			}
			if err != nil {
				t.Fatalf("step %d: legal op on id %d failed: %v", step, id, err)
			}
			if next.Epoch() != ring.Epoch()+1 {
				t.Fatalf("step %d: epoch %d -> %d", step, ring.Epoch(), next.Epoch())
			}
			ring = next
			checkArcs(t, fmt.Sprintf("step %d", step), ring)
			for _, tied := range tiedRings(ring, uint(vn)%64) {
				checkArcs(t, fmt.Sprintf("step %d, equal hashes", step), tied)
			}
			members := ring.members
			inSet := make(map[int]bool, len(members))
			for i, m := range members {
				if m < 0 || (i > 0 && members[i-1] >= m) {
					t.Fatalf("step %d: members not sorted/distinct: %v", step, members)
				}
				inSet[m] = true
			}
			hs := keyHashes
			for _, i := range []int{0, len(ring.points) / 2, len(ring.points) - 1} {
				p := ring.points[i].hash
				hs = append(hs, p-1, p, p+1)
			}
			for _, h := range hs {
				if got, want := owner(ring, h), scanOwner(ring, h); got != want {
					t.Fatalf("step %d: owner of %#x is %d, first point at or after it is on %d", step, h, got, want)
				}
				for _, n := range []int{0, 1, 3, len(members), len(members) + 5} {
					owners := ring.ReplicaOwners(h, n, nil)
					want := n
					if want < 1 {
						want = 1
					}
					if want > len(members) {
						want = len(members)
					}
					if len(owners) != want {
						t.Fatalf("step %d: %d replicas for n=%d over %v", step, len(owners), n, members)
					}
					for i, s := range owners {
						if !inSet[s] {
							t.Fatalf("step %d: replica %d not a member of %v", step, s, members)
						}
						for j := 0; j < i; j++ {
							if owners[j] == s {
								t.Fatalf("step %d: duplicate replica %d in %v", step, s, owners)
							}
						}
					}
				}
			}
		}
		// Convergence: the incremental ring and a fresh ring over the same
		// member set agree on placement.
		rebuilt, err := NewRingMembers(append([]int(nil), ring.members...), vnodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(ring.points) != len(rebuilt.points) {
			t.Fatalf("non-convergent: %d points incrementally, %d rebuilt", len(ring.points), len(rebuilt.points))
		}
		for i, p := range ring.points {
			if p != rebuilt.points[i] {
				t.Fatalf("non-convergent: point %d is %+v incrementally, %+v rebuilt", i, p, rebuilt.points[i])
			}
		}
		for i := 0; i < 64; i++ {
			h := hashfn.HashBytes([]byte(fmt.Sprintf("conv-key-%d", i)))
			if owner(ring, h) != owner(rebuilt, h) {
				t.Fatalf("non-convergent: hash %#x owned by %d incrementally, %d rebuilt", h, owner(ring, h), owner(rebuilt, h))
			}
		}
	})
}

// searchArc is Arc's oracle: the binary search Arc replaced, for the first
// point at or after h, wrapping to point 0.
func searchArc(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// checkArcs fails unless Arc agrees with searchArc at both ends of the hash
// space and at every point's hash and its two neighbours.
func checkArcs(t *testing.T, what string, r *Ring) {
	t.Helper()
	hs := []uint64{0, math.MaxUint64}
	for _, p := range r.points {
		hs = append(hs, p.hash-1, p.hash, p.hash+1)
	}
	for _, h := range hs {
		if got, want := r.Arc(h), searchArc(r, h); got != want {
			t.Fatalf("%s: Arc(%#x) = %d, the first of %d points at or after it is %d", what, h, got, len(r.points), want)
		}
	}
}

// tiedRings returns rings over r's points with their hashes coarsened,
// which keeps them sorted and gives many points equal hashes: with the low
// sh, 56 or 63 bits cleared (equal hashes spread over the arc index), and
// with the hashes shifted down by 60 bits (every point in the first bucket
// of the arc index, most of them tied).
func tiedRings(r *Ring, sh uint) []*Ring {
	var out []*Ring
	for _, coarsen := range []func(uint64) uint64{
		func(h uint64) uint64 { return h &^ (1<<sh - 1) },
		func(h uint64) uint64 { return h &^ (1<<56 - 1) },
		func(h uint64) uint64 { return h &^ (1<<63 - 1) },
		func(h uint64) uint64 { return h >> 60 },
	} {
		tied := &Ring{points: slices.Clone(r.points), members: r.members, vnodes: r.vnodes, epoch: r.epoch}
		for i := range tied.points {
			tied.points[i].hash = coarsen(tied.points[i].hash)
		}
		tied.indexArcs()
		out = append(out, tied)
	}
	return out
}
