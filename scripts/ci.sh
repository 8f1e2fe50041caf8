#!/bin/sh
# ci.sh — the full verification pipeline, runnable from a clean checkout:
# formatting, go vet, the project's static-analysis suite (simdhtlint), the
# test suite with and without the race detector, and the vet and tests of
# the nested simbench module.
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
# The scratch dir is removed when every check passes and kept, with its
# path on stderr, when one fails.
echo "==> simdhtlint (vs lint_baseline.json)"
tmp=$(mktemp -d)
trap 'status=$?
if [ "$status" -eq 0 ]; then
    rm -rf "$tmp"
else
    echo "ci.sh: failed (exit $status); scratch files kept in $tmp" >&2
fi' EXIT
$GO run ./cmd/simdhtlint -C . -json -baseline lint_baseline.json > "$tmp/lint.json"

echo "==> go test"
$GO test ./...

echo "==> go test -race"
$GO test -race ./...

# simbench is a nested module, so the root ./... skips it: vet it and run
# its helper tests plus the tiny-size smoke run of every workload.
echo "==> simbench vet + test"
$GO -C simbench vet ./...
$GO -C simbench test ./...

# check_trace_golden JSON STEM: compare a CLI trace with the SHA-256 digest
# of study STEM's committed trace golden (the summary golden is the Go
# tests' readable half).
check_trace_golden() {
    [ "$(sha256sum < "$1" | cut -d' ' -f1)" = "$(cat "internal/experiments/testdata/$2_trace.golden.sha256")" ] || {
        echo "ci.sh: $1 does not match $2_trace.golden.sha256" >&2
        exit 1
    }
}

# check_study_goldens STEM OUT: diff one study run's table and metrics CSV,
# and its trace by digest, against the committed goldens of study STEM.
check_study_goldens() {
    golden=internal/experiments/testdata/$1
    sed '$d' "$2.txt" > "$2.table" # emit() ends with one blank line
    diff "$2.table" "${golden}_table.golden.txt"
    diff "$2.csv" "${golden}_metrics.golden.csv"
    check_trace_golden "$2.json" "$1"
}

# CLI smoke: run both binaries end-to-end with -trace/-metrics and diff the
# artifacts against the committed goldens, so the flag plumbing (not just the
# library path the Go tests exercise) is pinned byte-for-byte. Fig. 11a runs
# at -parallel 1 and 4. `kvsbench all` prints Fig. 11a and 11b from one
# sweep, so its metrics and trace must be Fig. 11a's too: a second sweep
# would count every event twice.
echo "==> CLI smoke (-trace/-metrics vs goldens)"
$GO run ./cmd/simdhtbench -queries 400 -seed 1 \
    -trace "$tmp/fig7a.json" -metrics "$tmp/fig7a.csv" fig7a >/dev/null
diff "$tmp/fig7a.json" internal/experiments/testdata/obs_fig7a_trace.golden.json
diff "$tmp/fig7a.csv" internal/experiments/testdata/obs_fig7a_metrics.golden.csv
run_fig11() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
        -batches 8 -seed 7 -parallel "$1" \
        -trace "$2.json" -metrics "$2.csv" "$3" >/dev/null
    diff "$2.csv" internal/experiments/testdata/obs_fig11a_metrics.golden.csv
    check_trace_golden "$2.json" obs_fig11a
}
run_fig11 1 "$tmp/fig11a1" fig11a
run_fig11 4 "$tmp/fig11a4" fig11a
run_fig11 1 "$tmp/all1" all

# Profiler smoke: two identical -profile cycles runs must produce
# byte-identical folded cycle accounts on stdout, equal to the committed
# folded golden, and obsdiff must report zero delta between their run
# manifests (wall-clock fields are ignored by design). Both manifests and
# folded stacks stay in the scratch dir for inspection alongside lint.json.
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
diff "$tmp/folded1.txt" internal/experiments/testdata/prof_fig7a_folded.golden.txt
$GO run ./cmd/obsdiff "$tmp/run1.json" "$tmp/run2.json" >/dev/null

# Fault-injection smoke: the fault-sweep experiment under an armed plan must
# reproduce its goldens byte-for-byte — table, metrics CSV and trace — at
# -parallel 1 and 4, exactly as the deterministic-faults golden test pins
# them.
echo "==> CLI smoke (fault-sweep vs goldens, -parallel 1 and -parallel 4)"
run_faults() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
        -batches 8 -seed 7 -parallel "$1" \
        -faults 'drop=0.15,crash=20µs:10µs,slow=4x@15µs:5µs,pressure=50@10µs,timeout=10µs,retries=1,backoff=5µs' \
        -trace "$2.json" -metrics "$2.csv" fault-sweep > "$2.txt"
    check_study_goldens fault_sweep "$2"
}
run_faults 1 "$tmp/faults1"
run_faults 4 "$tmp/faults4"

# Fleet smoke: the fleet-scale replication study (replicated reads, quorum
# writes, failover, fault-driven rebalance storms) must reproduce its goldens
# byte-for-byte through the CLI at -parallel 1 and 4 — the determinism
# contract the fleet golden test pins.
echo "==> CLI smoke (fleet vs goldens, -parallel 1 and -parallel 4)"
fleet_cli() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 \
        -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5 -arrival-rate 200000 \
        -faults 'drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs' "$@" fleet
}
run_fleet() {
    fleet_cli -parallel "$1" -trace "$2.json" -metrics "$2.csv" > "$2.txt"
}
run_fleet 1 "$tmp/fleet1"
check_study_goldens fleet_study "$tmp/fleet1"
run_fleet 4 "$tmp/fleet4"
check_study_goldens fleet_study "$tmp/fleet4"
# Manifest diff through obsdiff: one sweep worker vs four must produce a
# zero-delta run manifest (config, seeds, artifact digests, metric snapshot;
# wall-clock fields are ignored by design).
fleet_cli -parallel 1 -manifest "$tmp/fleetm1.json" > /dev/null 2>&1
fleet_cli -parallel 4 -manifest "$tmp/fleetm4.json" > /dev/null 2>&1
$GO run ./cmd/obsdiff "$tmp/fleetm1.json" "$tmp/fleetm4.json" >/dev/null

# Overload smoke: the metastable-overload study (admission control, queue
# deadlines, retry budgets, hedged reads vs the controls-off collapse) must
# reproduce its goldens byte-for-byte at -parallel 1 and 4.
echo "==> CLI smoke (overload vs goldens, -parallel 1 and -parallel 4)"
run_overload() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 4 \
        -requests 400 -batches 8 -seed 7 -overload-servers 2 \
        -overload-mults 0.5,1,1.5,2 \
        -parallel "$1" -trace "$2.json" -metrics "$2.csv" overload > "$2.txt"
}
run_overload 1 "$tmp/overload1"
check_study_goldens overload_study "$tmp/overload1"
run_overload 4 "$tmp/overload4"
check_study_goldens overload_study "$tmp/overload4"

# Cluster smoke: the consistent-hashing cluster study (unreplicated,
# closed-loop fleets of 1, 2 and 4 servers) must reproduce its table golden
# byte-for-byte through the CLI at -parallel 1 and 4.
echo "==> CLI smoke (cluster vs golden, -parallel 1 and -parallel 4)"
run_cluster() {
    $GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
        -batches 8 -seed 7 -parallel "$1" cluster > "$2.txt"
    sed '$d' "$2.txt" > "$2.table" # emit() ends with one blank line
    diff "$2.table" internal/experiments/testdata/cluster_study_table.golden.txt
}
run_cluster 1 "$tmp/cluster1"
run_cluster 4 "$tmp/cluster4"

# ETC smoke: the Multi-Get study with Facebook-ETC item sizes must
# reproduce TestETCStudy's table golden byte-for-byte through the CLI at
# -parallel 1 and 4.
echo "==> CLI smoke (etc vs golden, -parallel 1 and -parallel 4)"
run_etc() {
    $GO run ./cmd/kvsbench -items 40000 -workers 26 -clients 26 -requests 400 \
        -batches 16 -seed 7 -parallel "$1" etc > "$2.txt"
    sed '$d' "$2.txt" > "$2.table" # emit() ends with one blank line
    diff "$2.table" internal/experiments/testdata/etc_seed7.golden
}
run_etc 1 "$tmp/etc1"
run_etc 4 "$tmp/etc4"

# Sim-speed smoke: -simspeed must print the simulator-throughput table to
# stderr while leaving stdout (the deterministic tables) untouched by any
# wall-clock value.
echo "==> sim-speed smoke (-simspeed)"
$GO run ./cmd/simdhtbench -queries 200 -seed 1 -simspeed run \
    > "$tmp/simspeed.out" 2> "$tmp/simspeed.err"
grep -q "Sim Mlookups/s" "$tmp/simspeed.err"
if grep -q "Sim Mlookups/s" "$tmp/simspeed.out"; then
    echo "ci.sh: sim-speed table leaked into stdout" >&2
    exit 1
fi

# Option smoke: record rejects a bad -queries by name before it creates its
# trace file. The binary is built, not run through go run, so a panic (exit
# status 2) cannot pass for the typed rejection (exit status 1).
echo "==> option smoke (record, run and advise reject bad values by name)"
$GO build -o "$tmp/simdhtbench" ./cmd/simdhtbench
status=0
"$tmp/simdhtbench" -keytrace "$tmp/record.trace" -queries -5 record \
    2> "$tmp/record.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "invalid config queries" "$tmp/record.err" \
    || [ -e "$tmp/record.trace" ]; then
    echo "ci.sh: record -queries -5 exited $status without a clean queries rejection:" >&2
    cat "$tmp/record.err" >&2
    exit 1
fi
# run and advise take core.Params as written: a bad value fails with status
# 1, naming the field, instead of running a default.
reject() { # FIELD ARGS...
    field=$1
    shift
    status=0
    "$tmp/simdhtbench" "$@" > /dev/null 2> "$tmp/reject.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "Params\.$field" "$tmp/reject.err"; then
        echo "ci.sh: simdhtbench $* exited $status without naming Params.$field:" >&2
        cat "$tmp/reject.err" >&2
        exit 1
    fi
}
reject Queries -queries -5 run
reject LoadFactor -lf 0 run
reject Cores -cores -3 run
reject Queries -queries 0 advise

# Command smoke: both CLIs resolve every argument before running any, so an
# unknown name, or a flag written after a command, exits 1 naming it with
# nothing on stdout.
echo "==> command smoke (unknown arguments fail before anything runs)"
$GO build -o "$tmp/kvsbench" ./cmd/kvsbench
refuse() { # ARG BINARY ARGS...
    arg=$1
    bin=$2
    shift 2
    status=0
    "$tmp/$bin" "$@" > "$tmp/refuse.out" 2> "$tmp/refuse.err" || status=$?
    if [ "$status" -ne 1 ] || [ -s "$tmp/refuse.out" ] || ! grep -q "\"$arg\"" "$tmp/refuse.err"; then
        echo "ci.sh: $bin $* exited $status with $(wc -c < "$tmp/refuse.out") bytes on stdout, not a clean rejection of \"$arg\":" >&2
        cat "$tmp/refuse.err" >&2
        exit 1
    fi
}
refuse -backend kvsbench -items 1000 -requests 20 single -backend vertical
refuse bogus kvsbench fleet bogus
refuse nosuch simdhtbench -queries 200 fig2 nosuch

# Advise smoke: every layout advise measures reports to -metrics, so the
# file holds series beyond its header line.
echo "==> advise smoke (-metrics holds series)"
"$tmp/simdhtbench" -queries 200 -metrics "$tmp/advise.csv" advise > /dev/null
if [ "$(wc -l < "$tmp/advise.csv")" -le 1 ]; then
    echo "ci.sh: advise -metrics holds only its header line" >&2
    exit 1
fi

# README smoke: the quickstart block quotes a simdhtbench command on its
# first line and the command's stdout after it; the command must still
# print exactly that, up to trailing blank lines.
echo "==> README quickstart (output vs the quoted block)"
awk '/<!-- quickstart:end -->/ { on = 0 } on && !/^```/ { print }
    /<!-- quickstart:begin -->/ { on = 1 }' README.md > "$tmp/quickstart.md"
args=$(sed -n '1s|^\$ go run ./cmd/simdhtbench ||p' "$tmp/quickstart.md")
if [ -z "$args" ]; then
    echo "ci.sh: README.md has no quoted quickstart command" >&2
    exit 1
fi
# Print blank lines only when a non-blank line follows them.
trim() { awk 'NF { for (; n > 0; n--) print ""; print; next } { n++ }'; }
sed '1d' "$tmp/quickstart.md" | trim > "$tmp/quickstart.want"
"$tmp/simdhtbench" $args > "$tmp/quickstart.out" # $args splits into flags
trim < "$tmp/quickstart.out" > "$tmp/quickstart.got"
diff "$tmp/quickstart.want" "$tmp/quickstart.got"

# Fig. 5 smoke: the table and both grids render from one 18-run sweep, so
# the output matches the Go test's golden, -sweepstats reports exactly one
# sweep of 18 jobs (every run of the sweep prints its own report), and the
# metrics carry only the sweep's own config scopes (a separate sweep for the
# grids would add config=fig5grid ones).
echo "==> CLI smoke (fig5 vs golden, one sweep)"
"$tmp/simdhtbench" -queries 800 -seed 1 -sweepstats -metrics "$tmp/fig5.csv" fig5 \
    > "$tmp/fig5.txt" 2> "$tmp/fig5.err"
diff "$tmp/fig5.txt" internal/experiments/testdata/fig5_q800_seed1.golden
sweeps=$(grep '^counter sweep_jobs_total ' "$tmp/fig5.err" || true)
if [ "$sweeps" != "counter sweep_jobs_total 18" ]; then
    echo "ci.sh: fig5 did not run exactly one sweep of 18 jobs; -sweepstats reported:" >&2
    echo "$sweeps" >&2
    exit 1
fi
if grep -q "fig5grid" "$tmp/fig5.csv"; then
    echo "ci.sh: fig5 metrics hold fig5grid scopes: the grids re-ran the sweep" >&2
    exit 1
fi

# Short fuzz of the delivery and Multi-Get paths (seed corpora replay plus a
# few seconds of mutation).
echo "==> fuzz smoke"
make fuzz-smoke FUZZTIME=5s

echo "==> ci.sh: all checks passed"
