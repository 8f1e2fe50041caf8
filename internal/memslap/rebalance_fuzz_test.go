package memslap

import (
	"encoding/binary"
	"fmt"
	"testing"

	"simdhtbench/internal/kvs"
)

// refPlacement is the per-key rebalance planner the arc table replaced,
// kept as its oracle: R slots of replica set per key, and at every epoch
// a ring walk per key with the same donor rule and group order.
type refPlacement struct {
	R         int
	ring      *kvs.Ring
	hashes    []uint64
	placement []int // key k's set is placement[k*R:][:min(R, members)]
}

func newRefPlacement(ring *kvs.Ring, R int, hashes []uint64) *refPlacement {
	p := &refPlacement{R: R, ring: ring, hashes: hashes, placement: make([]int, len(hashes)*R)}
	for k, h := range hashes {
		at := k * R
		ring.ReplicaOwners(h, R, p.placement[at:at:at+R])
	}
	return p
}

func (p *refPlacement) owners(k int) []int {
	at := k * p.R
	return p.placement[at : at+min(p.R, p.ring.Servers())]
}

// advance is the per-key loop: every key's new set is walked on nr and
// each gained server d is streamed from the first old owner that is not d
// and still a member, grouped by (src, dst) in first-seen order.
func (p *refPlacement) advance(nr *kvs.Ring) (groups []moveGroup, moved, lost int) {
	R := p.R
	oldM := min(R, p.ring.Servers())
	p.ring = nr
	groupIdx := make(map[[2]int]int)
	oldSet := make([]int, 0, R)
	for k, h := range p.hashes {
		at := k * R
		oldSet = append(oldSet[:0], p.placement[at:at+oldM]...)
		for _, d := range nr.ReplicaOwners(h, R, p.placement[at:at:at+R]) {
			if containsInt(oldSet, d) {
				continue
			}
			src := -1
			for _, s := range oldSet {
				if s != d && nr.HasMember(s) {
					src = s
					break
				}
			}
			if src < 0 {
				lost++
				continue
			}
			gi, ok := groupIdx[[2]int{src, d}]
			if !ok {
				gi = len(groups)
				groupIdx[[2]int{src, d}] = gi
				groups = append(groups, moveGroup{src: src, dst: d})
			}
			groups[gi].keys = append(groups[gi].keys, int32(k))
			moved++
		}
	}
	return groups, moved, lost
}

// FuzzRebalanceMatchesReference drives the arc table and the per-key
// reference through one Join/Leave history and fails on the first epoch
// where they differ: in any key's replica set, the move groups, their
// order, any group's key order, or the moved and lost counts. No servers
// are built; the keys are bare hashes. servers picks 1–16 fleet servers,
// repl the replication R in 1..min(4, servers), vnodes 1–32 virtual nodes
// per server. Each ops byte leaves (odd) or joins (even) server
// (b>>1) % servers, skipping ops the fleet would refuse, so rings drop
// below R members and grow back. keys is read as little-endian 64-bit
// hashes, beside both ends of the hash space and every ring point, one
// below it and one above it.
func FuzzRebalanceMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(2), uint8(15), []byte{0x01, 0x00, 0x03, 0x02}, []byte("0123456789abcdef"))
	f.Fuzz(func(t *testing.T, servers, repl, vnodes uint8, ops, keys []byte) {
		n := int(servers)%16 + 1
		R := int(repl)%min(4, n) + 1
		ring, err := kvs.NewRing(n, int(vnodes)%32+1)
		if err != nil {
			t.Fatal(err)
		}
		hashes := []uint64{0, ^uint64(0)}
		for a := 0; a < ring.Arcs(); a++ {
			p := ring.ArcHash(a)
			hashes = append(hashes, p-1, p, p+1)
		}
		for ; len(keys) >= 8; keys = keys[8:] {
			hashes = append(hashes, binary.LittleEndian.Uint64(keys))
		}
		arcs := newArcTable(ring, R)
		for _, h := range hashes {
			arcs.keyArc = append(arcs.keyArc, arcs.arcOf(h))
		}
		ref := newRefPlacement(ring, R, hashes)
		checkOwners := func(when string) {
			t.Helper()
			for k := range hashes {
				if got, want := arcs.owners(k), ref.owners(k); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: key %d (hash %#x) on %v, the reference says %v", when, k, hashes[k], got, want)
				}
			}
		}
		checkOwners("after load")
		for step, b := range ops {
			id := int(b>>1) % n
			var next *kvs.Ring
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
				t.Fatal(err)
			}
			ring = next
			when := fmt.Sprintf("step %d (join=%v %d, %d of %d servers, R=%d)", step, b&1 == 0, id, ring.Servers(), n, R)
			groups, moved, lost := arcs.advance(ring)
			wantGroups, wantMoved, wantLost := ref.advance(ring)
			if moved != wantMoved || lost != wantLost {
				t.Fatalf("%s: moved %d lost %d, the reference %d and %d", when, moved, lost, wantMoved, wantLost)
			}
			if len(groups) != len(wantGroups) {
				t.Fatalf("%s: %d groups, the reference %d", when, len(groups), len(wantGroups))
			}
			for i, g := range groups {
				w := wantGroups[i]
				if g.src != w.src || g.dst != w.dst || fmt.Sprint(g.keys) != fmt.Sprint(w.keys) {
					t.Fatalf("%s: group %d is %d->%d %v, the reference %d->%d %v", when, i, g.src, g.dst, g.keys, w.src, w.dst, w.keys)
				}
			}
			checkOwners(when)
		}
	})
}
