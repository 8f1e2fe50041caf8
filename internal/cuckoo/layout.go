// Package cuckoo implements the hash-table substrate that SimdHT-Bench
// characterizes: (N,m) bucketized and N-way non-bucketized cuckoo hash
// tables with scalar, horizontal-SIMD (Algorithm 1), vertical-SIMD
// (Algorithm 2) and hybrid vertical-over-BCHT lookups.
//
// Tables live in simulated memory (internal/mem) so the engine-charged
// lookup paths observe real cache-line behaviour. Every charged lookup has a
// native (uncharged) twin used for functional correctness and by the
// key-value store; tests assert the two always agree.
package cuckoo

import (
	"fmt"

	"simdhtbench/internal/mem"
)

// Layout describes an (N,m) cuckoo hash-table memory layout, the paper's
// first design dimension. An N-way non-bucketized table is the M=1 case.
//
// Buckets store M slots of (key, payload) pairs, in one of two
// arrangements:
//
//	interleaved (default): [ k0 v0 | k1 v1 | ... | k(M-1) v(M-1) ]
//	split (Split=true):    [ k0 k1 ... k(M-1) | v0 v1 ... v(M-1) ]
//
// The split arrangement is the one networking designs (DPDK rte_hash,
// Cuckoo++) use: all keys of a bucket are contiguous, so a horizontal probe
// can load just the key block — (2,8) buckets of 16-bit keys compare in a
// single 128-bit register. The interleaved arrangement keeps each key next
// to its payload, which is what lets the vertical template pack key+payload
// into one gather element (Section IV-C's fewer-wider-gathers).
//
// Key and payload widths are 16, 32 or 64 bits, matching Table I of the
// paper. Key value 0 is the empty-slot sentinel; stored keys must be
// non-zero.
type Layout struct {
	N          int  // number of hash functions (ways)
	M          int  // slots per bucket (1 = non-bucketized)
	KeyBits    int  // stored key (hash) width in bits
	ValBits    int  // payload width in bits
	BucketBits int  // log2 of the bucket count
	Split      bool // split key/payload blocks per bucket (m > 1 only)
}

// Validate reports whether the layout is well-formed.
func (l Layout) Validate() error {
	if l.N < 2 || l.N > 8 {
		return fmt.Errorf("cuckoo: N=%d out of range [2,8]", l.N)
	}
	if l.M < 1 || l.M > 16 {
		return fmt.Errorf("cuckoo: M=%d out of range [1,16]", l.M)
	}
	switch l.KeyBits {
	case 16, 32, 64:
	default:
		return fmt.Errorf("cuckoo: key width %d bits unsupported (want 16/32/64)", l.KeyBits)
	}
	switch l.ValBits {
	case 16, 32, 64:
	default:
		return fmt.Errorf("cuckoo: payload width %d bits unsupported (want 16/32/64)", l.ValBits)
	}
	if l.BucketBits < 1 || l.BucketBits > l.KeyBits {
		return fmt.Errorf("cuckoo: bucketBits=%d does not fit a %d-bit hash", l.BucketBits, l.KeyBits)
	}
	if l.Split && l.M < 2 {
		return fmt.Errorf("cuckoo: split layout requires m > 1")
	}
	return nil
}

// Buckets returns the bucket count.
func (l Layout) Buckets() int { return 1 << l.BucketBits }

// SlotBytes returns the size of one (key, payload) slot in bytes.
func (l Layout) SlotBytes() int { return (l.KeyBits + l.ValBits) / 8 }

// BucketBytes returns the size of one bucket in bytes.
func (l Layout) BucketBytes() int { return l.M * l.SlotBytes() }

// TableBytes returns the total table size in bytes.
func (l Layout) TableBytes() int { return l.Buckets() * l.BucketBytes() }

// Slots returns the total slot count (the paper's "hash-table size", N*m per
// key).
func (l Layout) Slots() int { return l.Buckets() * l.M }

// Bucketized reports whether the layout is a BCHT (m > 1).
func (l Layout) Bucketized() bool { return l.M > 1 }

// KeyMask returns the mask of valid key bits.
func (l Layout) KeyMask() uint64 {
	if l.KeyBits == 64 {
		return ^uint64(0)
	}
	return (1 << l.KeyBits) - 1
}

// ValMask returns the mask of valid payload bits.
func (l Layout) ValMask() uint64 {
	if l.ValBits == 64 {
		return ^uint64(0)
	}
	return (1 << l.ValBits) - 1
}

// String renders the layout the way the paper writes it: "(N, m) BCHT" or
// "N-way cuckoo HT", plus field widths.
func (l Layout) String() string {
	if l.Bucketized() {
		kind := "BCHT"
		if l.Split {
			kind = "split-BCHT"
		}
		return fmt.Sprintf("(%d,%d) %s (K,V)=(%d,%d)b %s",
			l.N, l.M, kind, l.KeyBits, l.ValBits, byteSize(l.TableBytes()))
	}
	return fmt.Sprintf("%d-way cuckoo HT (K,V)=(%d,%d)b %s",
		l.N, l.KeyBits, l.ValBits, byteSize(l.TableBytes()))
}

// LayoutForBytes builds the largest layout with the given shape whose total
// size does not exceed maxBytes (bucket counts are powers of two). The
// benchmark suite uses it to translate the paper's "1 MB HT" style
// configuration into a concrete layout.
func LayoutForBytes(n, m, keyBits, valBits, maxBytes int) (Layout, error) {
	l := Layout{N: n, M: m, KeyBits: keyBits, ValBits: valBits, BucketBits: 1}
	if maxBytes < 2*l.BucketBytes() {
		return Layout{}, fmt.Errorf("cuckoo: %d bytes cannot hold two (%d,%d) buckets", maxBytes, n, m)
	}
	for l.BucketBits < keyBits && l.TableBytes()*2 <= maxBytes {
		l.BucketBits++
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// keyBlockBytes returns the size of a bucket's contiguous key block (split
// layouts only).
func (l Layout) keyBlockBytes() int { return l.M * l.KeyBits / 8 }

var _ = mem.LineSize // package mem is used by sibling files
