// Package simdhtbench is a from-scratch Go reproduction of "SimdHT-Bench:
// Characterizing SIMD-Aware Hash Table Designs on Emerging CPU
// Architectures" (Shankar, Lu, Panda; IISWC 2019).
//
// The module contains the complete system the paper describes and every
// substrate it depends on:
//
//   - internal/core — the paper's contribution: the SimdHT-Bench suite
//     (configurable inputs, the SIMD-algorithm validation engine, the
//     performance engine), plus the design advisor and self-test.
//   - internal/cuckoo — the (N,m) cuckoo hash-table substrate with scalar,
//     AMAC, horizontal-SIMD, vertical-SIMD and hybrid lookups over both
//     interleaved and split bucket arrangements.
//   - internal/vec, internal/engine, internal/arch, internal/cache,
//     internal/mem — the architectural simulation substrate that replaces
//     AVX intrinsics: a lane-exact software vector ISA, a charged execution
//     engine, CPU models with license-based frequency scaling, and a cache
//     hierarchy simulator.
//   - internal/kvs, internal/netsim, internal/des, internal/memslap — the
//     Section-VI validation: an RDMA-Memcached-style key-value store with
//     MemC3 and SIMD-aware index backends on a discrete-event InfiniBand
//     EDR fabric, driven by a memslap-like Multi-Get client (single server
//     or a consistent-hashing cluster).
//   - internal/workload — uniform, Zipfian (mutilate-like) and Facebook-ETC
//     generators with trace record/replay.
//   - internal/cuckoomap — a native generic implementation of the
//     recommended (2,4) tag-prefiltered cuckoo map, kept for ROADMAP item
//     12's owner decision (no other module can import it).
//
// The root package holds the top-level benchmark harness (bench_test.go,
// ablation_bench_test.go): one testing.B benchmark per table and figure of
// the paper's evaluation plus ablations of the model's design choices.
//
// Start with README.md (install and quickstart), DESIGN.md (system
// inventory, substitution table, per-experiment index) and EXPERIMENTS.md
// (paper-vs-measured results for every table and figure).
package simdhtbench
