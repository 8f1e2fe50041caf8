package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/hashfn"
)

// FuzzRingMembership drives an arbitrary Join/Leave history over the ring —
// each op byte encodes join/leave of a server id in [0, 16) — and checks
// the membership invariants after every successful transition: epochs
// advance by exactly one, members stay sorted and distinct, and
// ReplicaOwners never returns a non-member or panics on clamped n, and its
// rank-0 entry is the first ring point at or after the hash (checked at the
// ends of the hash space and on both sides of ring points). The ring
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
