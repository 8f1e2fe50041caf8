package kvs

import (
	"fmt"
	"math/rand"
	"testing"

	"simdhtbench/internal/hashfn"
)

// propHashes returns the hashfn.HashBytes values of n distinct keys, the
// form every ring lookup takes.
func propHashes(n int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = hashfn.HashBytes([]byte(fmt.Sprintf("prop-key-%012d", i)))
	}
	return hs
}

// owner returns the primary owner of the key hashing to h.
func owner(r *Ring, h uint64) int { return r.ReplicaOwners(h, 1, nil)[0] }

// scanOwner is owner's oracle: a linear scan for the first ring point at or
// after h, wrapping to the first point.
func scanOwner(r *Ring, h uint64) int {
	for _, p := range r.points {
		if p.hash >= h {
			return p.server
		}
	}
	return r.points[0].server
}

// Property: replica sets are distinct servers, lead with the primary owner,
// are capped at the member count, and smaller sets are prefixes of larger
// ones (rank k does not depend on how many replicas were requested).
func TestReplicaOwnersDistinctPrefix(t *testing.T) {
	ring, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []int
	hs := propHashes(5000)
	for _, p := range ring.points[:16] {
		hs = append(hs, p.hash-1, p.hash, p.hash+1)
	}
	hs = append(hs, 0, ^uint64(0))
	for _, h := range hs {
		full := ring.ReplicaOwners(h, 8, nil)
		if len(full) != 8 {
			t.Fatalf("hash %#x: %d replicas for n=8 over 8 servers", h, len(full))
		}
		seen := make(map[int]bool)
		for _, s := range full {
			if s < 0 || s >= 8 {
				t.Fatalf("hash %#x: replica %d out of range", h, s)
			}
			if seen[s] {
				t.Fatalf("hash %#x: duplicate replica %d in %v", h, s, full)
			}
			seen[s] = true
		}
		if want := scanOwner(ring, h); full[0] != want {
			t.Fatalf("hash %#x: rank-0 replica %d != owner %d", h, full[0], want)
		}
		for n := 1; n < 8; n++ {
			part := ring.ReplicaOwners(h, n, scratch)
			scratch = part
			if len(part) != n {
				t.Fatalf("hash %#x: %d replicas for n=%d", h, len(part), n)
			}
			for i := range part {
				if part[i] != full[i] {
					t.Fatalf("hash %#x: n=%d not a prefix of n=8: %v vs %v", h, n, part, full)
				}
			}
		}
		// Out-of-range requests clamp instead of panicking.
		if got := ring.ReplicaOwners(h, 0, nil); len(got) != 1 {
			t.Fatalf("n=0 returned %v", got)
		}
		if got := ring.ReplicaOwners(h, 100, nil); len(got) != 8 {
			t.Fatalf("n=100 returned %d replicas", len(got))
		}
	}
}

// Property: on a ring over any subset of a full ring's members, every hash
// gets the same replica set as the point that ends its arc of the full
// ring (Arc, ArcHash) — the invariant a fleet's per-arc placement rests
// on. Full rings have 1–16 servers and 1–32 vnodes. Each subset is reached
// the ways a fleet reaches one (Leave of every non-member in random order,
// then a Join that re-sorts the points) and built directly. The hashes are
// both ends of the hash space and every full-ring point, one below it and
// one above it; Arc itself is checked against a linear scan.
func TestSubsetRingOwnersFollowArc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		servers, vnodes := 1+trial%16, 1+rng.Intn(32)
		full, err := NewRing(servers, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		hs := []uint64{0, ^uint64(0)}
		for a := 0; a < full.Arcs(); a++ {
			p := full.ArcHash(a)
			hs = append(hs, p-1, p, p+1)
		}
		var members, out []int
		for s := 0; s < servers; s++ {
			if rng.Intn(2) == 0 {
				out = append(out, s)
			} else {
				members = append(members, s)
			}
		}
		if len(members) == 0 {
			members, out = out[:1], out[1:]
		}
		left := full
		for _, i := range rng.Perm(len(out)) {
			if left, err = left.Leave(out[i]); err != nil {
				t.Fatal(err)
			}
		}
		built, err := NewRingMembers(members, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		rings := []*Ring{full, left, built}
		if len(out) > 0 {
			joined, err := left.Join(out[rng.Intn(len(out))])
			if err != nil {
				t.Fatal(err)
			}
			rings = append(rings, joined)
		}
		for _, h := range hs {
			a := full.Arc(h)
			if want := scanArc(full, h); a != want {
				t.Fatalf("trial %d: Arc(%#x) = %d, first point at or after it is %d", trial, h, a, want)
			}
			for _, r := range rings {
				got := r.ReplicaOwners(h, r.Servers(), nil)
				want := r.ReplicaOwners(full.ArcHash(a), r.Servers(), nil)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d (%d servers, %d vnodes, members %v): hash %#x on arc %d gets %v, the arc's point hash %#x gets %v",
						trial, servers, vnodes, r.members, h, a, got, full.ArcHash(a), want)
				}
			}
		}
	}
}

// scanArc is Arc's oracle: the index of the first point at or after h by
// linear scan, wrapping to point 0.
func scanArc(r *Ring, h uint64) int {
	for i, p := range r.points {
		if p.hash >= h {
			return i
		}
	}
	return 0
}

// Property: ownership is a function of the member set alone. A ring built
// directly over a member set places keys identically to one that reached
// the same membership through any Join/Leave history, epoch counters aside.
func TestRingOwnershipStableAcrossIdenticalMemberships(t *testing.T) {
	base, err := NewRing(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 servers -> leave 2 -> join 7 -> join 2 -> leave 7: members {0..5} again.
	r, err := base.Leave(2)
	if err != nil {
		t.Fatal(err)
	}
	if r, err = r.Join(7); err != nil {
		t.Fatal(err)
	}
	if r, err = r.Join(2); err != nil {
		t.Fatal(err)
	}
	if r, err = r.Leave(7); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 4 {
		t.Fatalf("epoch = %d after 4 membership changes, want 4", r.Epoch())
	}
	if got, want := fmt.Sprint(r.members), fmt.Sprint(base.members); got != want {
		t.Fatalf("members %s, want %s", got, want)
	}
	for _, h := range propHashes(20000) {
		if owner(r, h) != owner(base, h) {
			t.Fatalf("hash %#x: owner %d via history, %d direct", h, owner(r, h), owner(base, h))
		}
		a := r.ReplicaOwners(h, 3, nil)
		b := base.ReplicaOwners(h, 3, nil)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("hash %#x: replicas %v via history, %v direct", h, a, b)
		}
	}
}

// Property: a single Leave remaps only the leaver's keys, and the moved
// fraction of a large key sample stays within the leaver's owned share of
// the hash space plus a sampling epsilon (minimal remapping).
func TestRingLeaveMinimalRemap(t *testing.T) {
	const nKeys = 100000
	ring, err := NewRing(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := propHashes(nKeys)
	const leaver = 3
	share := ownedShare(ring, leaver)
	next, err := ring.Leave(leaver)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, h := range hs {
		oldOwner, newOwner := owner(ring, h), owner(next, h)
		if oldOwner == newOwner {
			continue
		}
		if oldOwner != leaver {
			t.Fatalf("hash %#x moved %d->%d, but server %d left", h, oldOwner, newOwner, leaver)
		}
		moved++
	}
	frac := float64(moved) / nKeys
	// Sampling noise at p~1/8, n=100k is sigma ~1e-3; 5e-3 is five sigma.
	const eps = 5e-3
	if frac > share+eps {
		t.Fatalf("leave moved %.4f of keys, owned share was %.4f (+eps %.0e)", frac, share, eps)
	}
	if moved == 0 {
		t.Fatal("leave moved no keys at all — remap accounting is broken")
	}
}

// Property: a single Join pulls keys only onto the joining server, bounded
// by its share of the new ring; every surviving replica of every key is
// preserved across the epoch.
func TestRingJoinMinimalRemap(t *testing.T) {
	const nKeys = 100000
	ring, err := NewRing(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := propHashes(nKeys)
	const joiner = 7
	next, err := ring.Join(joiner)
	if err != nil {
		t.Fatal(err)
	}
	share := ownedShare(next, joiner)
	moved := 0
	for _, h := range hs {
		oldOwner, newOwner := owner(ring, h), owner(next, h)
		if oldOwner != newOwner {
			if newOwner != joiner {
				t.Fatalf("hash %#x moved %d->%d, but server %d joined", h, oldOwner, newOwner, joiner)
			}
			moved++
		}
		// R=3 replica sets: survivors are preserved, at most one new member.
		oldSet := ring.ReplicaOwners(h, 3, nil)
		newSet := next.ReplicaOwners(h, 3, nil)
		fresh := 0
		for _, s := range newSet {
			found := false
			for _, o := range oldSet {
				if o == s {
					found = true
					break
				}
			}
			if !found {
				fresh++
				if s != joiner {
					t.Fatalf("hash %#x: replica set gained %d, but server %d joined", h, s, joiner)
				}
			}
		}
		if fresh > 1 {
			t.Fatalf("hash %#x: single join added %d replicas", h, fresh)
		}
	}
	frac := float64(moved) / nKeys
	const eps = 5e-3
	if frac > share+eps {
		t.Fatalf("join moved %.4f of keys, new share is %.4f (+eps %.0e)", frac, share, eps)
	}
	if moved == 0 {
		t.Fatal("join moved no keys at all — remap accounting is broken")
	}
}

// OwnedShare sums to 1 across members, so it is a meaningful remap bound.
func TestRingOwnedShareSumsToOne(t *testing.T) {
	ring, err := NewRing(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range ring.members {
		sum += ownedShare(ring, s)
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("owned shares sum to %.9f, want 1", sum)
	}
}

func TestRingMembershipErrors(t *testing.T) {
	ring, err := NewRing(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Join(0); err == nil {
		t.Error("joining an existing member must fail")
	}
	if _, err := ring.Join(-1); err == nil {
		t.Error("joining a negative id must fail")
	}
	if _, err := ring.Leave(5); err == nil {
		t.Error("leaving a non-member must fail")
	}
	solo, err := ring.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Leave(0); err == nil {
		t.Error("last member must not leave")
	}
	if _, err := NewRingMembers(nil, 0); err == nil {
		t.Error("empty member set must fail")
	}
	if _, err := NewRingMembers([]int{1, 1}, 0); err == nil {
		t.Error("duplicate members must fail")
	}
	if _, err := NewRingMembers([]int{0, -2}, 0); err == nil {
		t.Error("negative members must fail")
	}
}

// ownedShare returns the fraction of the hash space server id owns as
// primary: the summed arc length preceding its vnode points, as a share of
// 2^64. It bounds the remap fraction a membership change may cause.
func ownedShare(r *Ring, id int) float64 {
	if len(r.points) == 0 {
		return 0
	}
	var owned uint64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // wraps correctly with uint64 arithmetic
		if p.server == id {
			owned += arc
		}
		prev = p.hash
	}
	return float64(owned) / (1 << 64)
}

// TestVNodeHashesDistinct: the vnode hashes of servers 0–1023 at
// DefaultVNodes are pairwise distinct. A server's first v vnodes are the
// same points at any vnode count v, so no ring over those servers at up to
// DefaultVNodes vnodes has two points of equal hash, and Join's merge
// (whose tie rule would otherwise decide their order) builds the one sorted
// order a fresh ring has.
func TestVNodeHashesDistinct(t *testing.T) {
	const servers = 1024
	seen := make(map[uint64]int, servers*DefaultVNodes)
	for s := 0; s < servers; s++ {
		for v, p := range vnodePoints(s, DefaultVNodes) {
			if prev, dup := seen[p.hash]; dup {
				t.Fatalf("server %d vnode %d hashes to %#x, as does vnode point %d", s, v, p.hash, prev)
			}
			seen[p.hash] = s*DefaultVNodes + v
		}
	}
}
