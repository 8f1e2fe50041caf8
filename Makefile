GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint check bench fuzz-smoke clean

# The tier-1 gate: everything CI (and a reviewer) needs to trust a change.
check: build vet lint test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis, eight checks: allocation, charging,
# determinism, worker-sharing, probe-guard, reachability and vec-lane
# discipline, plus suppression hygiene (see internal/lint). The committed
# baseline holds every check at zero findings; the run fails on any count
# regression.
lint:
	$(GO) run ./cmd/simdhtlint -C . -baseline lint_baseline.json

# The benchmark of record: every simbench workload, untraced, at seed 1
# (see simbench/README.md). The result records land in .bench_build/results/;
# compare two commits' records with `bash simbench/run.sh compare`.
bench:
	mkdir -p .bench_build/results
	for w in lookup-l2 update-dram fleet-churn overload-2x; do \
		bash simbench/run.sh --workload $$w --seed 1 --trace 0 \
			--out .bench_build/results/$$w.json || exit 1; \
	done

# Short native-fuzz pass, one run per fuzzer: FuzzNetsimDeliver (message
# delivery), FuzzMultiGet (the Multi-Get path), FuzzFindMatchesLookupBatch
# (the functional one-key Index.Find against the charged LookupBatch),
# FuzzServerMatchesLRUOracle (the server's Sets, Gets and Multi-Gets under
# a byte cap against a map-plus-LRU oracle),
# FuzzItemStoreBytes (the item store's byte blocks against a map oracle),
# FuzzRingMembership (ring Join/Leave histories, hash-keyed lookups and Arc
# against a binary search),
# FuzzRebalanceMatchesReference (the fleet's per-arc rebalance planner
# against the per-key loop it replaced), FuzzFleetLoadMatchesReference (the
# fleet's server-major load against the key-major loop it replaced),
# FuzzParseSpec (fault specs),
# FuzzInsertMatchesReference (the cuckoo insert path, the refusing
# InsertNew included, against its reference search), FuzzVecMatchesReference (the vector register against its
# byte-array reference), FuzzHierarchyMatchesReference (the cache hierarchy
# against its reference LRU), FuzzPartitionedMatchesReference (the DES
# engine against its reference window loop and merge), FuzzCFGBuild (the
# lint CFG builder) and FuzzStudyOptions (the option validation of every
# kvsbench registry entry plus single, each run with a collector so the
# probes and the end-of-run metric publisher see every fuzzed shape). Seed
# corpora live under testdata/fuzz/ or in the targets' f.Add calls. Bump
# FUZZTIME for a longer hunt.
fuzz-smoke:
	$(GO) test ./internal/netsim -fuzz FuzzNetsimDeliver -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvs -fuzz FuzzMultiGet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvs -run '^$$' -fuzz FuzzFindMatchesLookupBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvs -run '^$$' -fuzz FuzzServerMatchesLRUOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvs -run '^$$' -fuzz FuzzItemStoreBytes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kvs -fuzz FuzzRingMembership -fuzztime $(FUZZTIME)
	$(GO) test ./internal/memslap -run '^$$' -fuzz FuzzRebalanceMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/memslap -run '^$$' -fuzz FuzzFleetLoadMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cuckoo -run '^$$' -fuzz FuzzInsertMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vec -run '^$$' -fuzz FuzzVecMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzHierarchyMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/des -run '^$$' -fuzz FuzzPartitionedMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -run '^$$' -fuzz FuzzCFGBuild -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz FuzzStudyOptions -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
