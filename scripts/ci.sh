#!/bin/sh
# ci.sh — the full verification pipeline, runnable from a clean checkout:
# formatting, go vet, the project's static-analysis suite (simdhtlint), and
# the test suite with and without the race detector.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
$GO vet ./...

# The static-analysis suite runs in -json mode against the committed
# count baseline (any analyzer exceeding its baseline count fails); the
# machine-readable report is archived in the scratch dir for inspection.
echo "==> simdhtlint (vs lint_baseline.json)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$GO run ./cmd/simdhtlint -C . -json -baseline lint_baseline.json > "$tmp/lint.json"

echo "==> go test"
$GO test ./...

echo "==> go test -race"
$GO test -race ./...

# CLI smoke: run both binaries end-to-end with -trace/-metrics and diff the
# artifacts against the committed goldens, so the flag plumbing (not just the
# library path the Go tests exercise) is pinned byte-for-byte.
echo "==> CLI smoke (-trace/-metrics vs goldens)"
$GO run ./cmd/simdhtbench -queries 400 -seed 1 \
    -trace "$tmp/fig7a.json" -metrics "$tmp/fig7a.csv" fig7a >/dev/null
diff "$tmp/fig7a.json" internal/experiments/testdata/obs_fig7a_trace.golden.json
diff "$tmp/fig7a.csv" internal/experiments/testdata/obs_fig7a_metrics.golden.csv
$GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
    -batches 8 -seed 7 \
    -trace "$tmp/fig11a.json" -metrics "$tmp/fig11a.csv" fig11a >/dev/null
diff "$tmp/fig11a.json" internal/experiments/testdata/obs_fig11a_trace.golden.json
diff "$tmp/fig11a.csv" internal/experiments/testdata/obs_fig11a_metrics.golden.csv

# Profiler smoke: two identical -profile cycles runs must produce
# byte-identical folded cycle accounts on stdout, and obsdiff must report
# zero delta between their run manifests (wall-clock fields are ignored by
# design). Both manifests and folded stacks stay in the scratch dir for
# inspection alongside lint.json.
echo "==> profiler smoke (-profile cycles + obsdiff)"
run_prof() {
    $GO run ./cmd/simdhtbench -queries 400 -seed 1 -parallel "$1" \
        -profile cycles -manifest "$2" fig7a > "$3" 2>/dev/null
}
run_prof 1 "$tmp/run1.json" "$tmp/folded1.txt"
run_prof 1 "$tmp/run2.json" "$tmp/folded2.txt"
run_prof 4 "$tmp/run4.json" "$tmp/folded4.txt"
diff "$tmp/folded1.txt" "$tmp/folded2.txt"
diff "$tmp/folded1.txt" "$tmp/folded4.txt" # cycle account is -parallel invariant
$GO run ./cmd/obsdiff "$tmp/run1.json" "$tmp/run2.json" >/dev/null

# Fault-injection smoke: the fault-sweep experiment under an armed plan must
# reproduce its goldens byte-for-byte — table, metrics CSV and trace JSON —
# exactly as the deterministic-faults golden test pins them.
echo "==> CLI smoke (fault-sweep vs goldens)"
$GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
    -batches 8 -seed 7 \
    -faults 'drop=0.15,crash=20µs:10µs,slow=4x@15µs:5µs,pressure=50@10µs,timeout=10µs,retries=1,backoff=5µs' \
    -trace "$tmp/faults.json" -metrics "$tmp/faults.csv" \
    fault-sweep > "$tmp/faults.txt"
sed '$d' "$tmp/faults.txt" > "$tmp/faults.table" # emit() ends with one blank line
diff "$tmp/faults.table" internal/experiments/testdata/fault_sweep_table.golden.txt
diff "$tmp/faults.json" internal/experiments/testdata/fault_sweep_trace.golden.json
diff "$tmp/faults.csv" internal/experiments/testdata/fault_sweep_metrics.golden.csv

# check_study_goldens STEM OUT: diff one study run's table, metrics CSV and
# trace (by SHA-256 digest; the summary golden is the Go tests' readable
# half) against the committed goldens of study STEM.
check_study_goldens() {
    golden=internal/experiments/testdata/$1
    sed '$d' "$2.txt" > "$2.table" # emit() ends with one blank line
    diff "$2.table" "${golden}_table.golden.txt"
    diff "$2.csv" "${golden}_metrics.golden.csv"
    [ "$(sha256sum < "$2.json" | cut -d' ' -f1)" = "$(cat "${golden}_trace.golden.sha256")" ] || {
        echo "ci.sh: $2.json does not match ${golden}_trace.golden.sha256" >&2
        exit 1
    }
}

# Fleet smoke: the fleet-scale replication study (replicated reads, quorum
# writes, failover, fault-driven rebalance storms) must reproduce its goldens
# byte-for-byte through the CLI at two (-parallel, -simworkers) compositions —
# the determinism contract the fleet golden test pins.
echo "==> CLI smoke (fleet vs goldens, -parallel 1 -simworkers 1 and -parallel 4 -simworkers 8)"
fleet_cli() {
    $GO run ./cmd/kvsbench -fleet -items 2000 -workers 2 -clients 2 \
        -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5 -arrival-rate 200000 \
        -faults 'drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs' "$@"
}
run_fleet() {
    fleet_cli -parallel "$1" -simworkers "$2" -trace "$3.json" -metrics "$3.csv" > "$3.txt"
}
run_fleet 1 1 "$tmp/fleet1"
check_study_goldens fleet_study "$tmp/fleet1"
run_fleet 4 8 "$tmp/fleet8"
check_study_goldens fleet_study "$tmp/fleet8"
# Manifest diff through obsdiff: one host worker vs eight must produce a
# zero-delta run manifest (config, seeds, artifact digests, metric snapshot;
# wall-clock fields are ignored by design).
fleet_cli -simworkers 1 -manifest "$tmp/fleetm1.json" > /dev/null 2>&1
fleet_cli -simworkers 8 -manifest "$tmp/fleetm8.json" > /dev/null 2>&1
$GO run ./cmd/obsdiff "$tmp/fleetm1.json" "$tmp/fleetm8.json" >/dev/null

# Overload smoke: the metastable-overload study (admission control, queue
# deadlines, retry budgets, hedged reads vs the controls-off collapse) must
# reproduce its goldens byte-for-byte at the same two compositions.
echo "==> CLI smoke (overload vs goldens, -parallel 1 -simworkers 1 and -parallel 4 -simworkers 8)"
run_overload() {
    $GO run ./cmd/kvsbench -overload -items 2000 -workers 2 -clients 4 \
        -requests 400 -batches 8 -seed 7 -overload-servers 2 \
        -overload-mults 0.5,1,1.5,2 \
        -parallel "$1" -simworkers "$2" -trace "$3.json" -metrics "$3.csv" > "$3.txt"
}
run_overload 1 1 "$tmp/overload1"
check_study_goldens overload_study "$tmp/overload1"
run_overload 4 8 "$tmp/overload8"
check_study_goldens overload_study "$tmp/overload8"

# Cluster smoke: the consistent-hashing cluster study (unreplicated,
# closed-loop fleets of 1, 2 and 4 servers) must reproduce its table golden
# byte-for-byte through the CLI at two (-parallel, -simworkers) compositions.
echo "==> CLI smoke (cluster vs golden, -parallel 1 -simworkers 1 and -parallel 4 -simworkers 2)"
run_cluster() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
        -batches 8 -seed 7 -parallel "$1" -simworkers "$2" cluster > "$3.txt"
    sed '$d' "$3.txt" > "$3.table" # emit() ends with one blank line
    diff "$3.table" internal/experiments/testdata/cluster_study_table.golden.txt
}
run_cluster 1 1 "$tmp/cluster1"
run_cluster 4 2 "$tmp/cluster4"

# Sim-speed smoke: -simspeed must print the simulator-throughput table to
# stderr while leaving stdout (the deterministic tables) untouched by any
# wall-clock value, and benchdiff must accept a snapshot against itself.
echo "==> sim-speed smoke (-simspeed + benchdiff)"
$GO run ./cmd/simdhtbench -queries 200 -seed 1 -simspeed run \
    > "$tmp/simspeed.out" 2> "$tmp/simspeed.err"
grep -q "Sim Mlookups/s" "$tmp/simspeed.err"
if grep -q "Sim Mlookups/s" "$tmp/simspeed.out"; then
    echo "ci.sh: sim-speed table leaked into stdout" >&2
    exit 1
fi
scripts/benchdiff.sh BENCH_baseline.json BENCH_baseline.json >/dev/null

# Short fuzz of the delivery and Multi-Get paths (seed corpora replay plus a
# few seconds of mutation).
echo "==> fuzz smoke"
make fuzz-smoke FUZZTIME=5s

echo "==> ci.sh: all checks passed"
