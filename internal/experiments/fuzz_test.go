package experiments

import (
	"errors"
	"math"
	"testing"

	"simdhtbench/internal/memslap"
)

// FuzzStudyOptions drives the KVS study entries — RunKVS, FleetStudyResult,
// OverloadStudyResult, Fig11StudyResult, ETCStudy, ClusterStudy and
// FaultSweep, picked by study % 7 — with tiny options: at most
// 64 items, 4 workers and clients, 16 requests, batches of 16 and 3
// servers, each count reaching zero and negative values, and fractions,
// multipliers and non-positive, NaN and infinite rates taken as given.
// Every input must return a result or a typed error: a *memslap.ConfigError
// for an option the study rejects, or a *memslap.LoadError when an index
// this small fills before the load completes. Never another error, a panic
// or a hang (RunFleet's event-budget watchdog bounds each run). The seeds
// are the CLI inputs each study must reject, plus one run each that must
// succeed.
func FuzzStudyOptions(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, in := range []struct {
		study                                                   uint8
		items, workers, clients, requests, batch, servers, repl int8
		rate, writes, mult                                      float64
		seed                                                    int64
	}{
		{0, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},   // single: runs
		{1, 64, 2, 2, 16, 8, 3, 3, 2e5, 0.05, 1, 7},   // fleet: runs
		{2, 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, 2, 7},   // overload: runs
		{0, 0, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},    // -items 0 single
		{0, 64, 0, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},   // -workers 0 single
		{0, 64, 2, 0, 16, 8, 1, 1, 2e5, 0.05, 1, 7},   // -clients 0 single
		{0, 64, 2, 2, 0, 8, 1, 1, 2e5, 0.05, 1, 7},    // -requests 0 single
		{0, 64, 2, 2, 16, 0, 1, 1, 2e5, 0.05, 1, 7},   // -batch 0 single
		{0, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 0},   // -seed 0 single: runs
		{1, 64, 2, 2, 16, 8, 3, 0, 2e5, 0.05, 1, 7},   // -fleet -replication 0
		{1, 64, 2, 2, 16, 8, 3, 3, 0, 0.05, 1, 7},     // -fleet -arrival-rate 0
		{1, 64, 2, 2, 16, 8, 0, 3, 2e5, 0.05, 1, 7},   // -fleet -fleet-sizes 0
		{1, 64, 2, 2, 16, 8, 3, 3, nan, 0.05, 1, 7},   // -fleet -arrival-rate NaN
		{1, 64, 2, 2, 16, 8, 3, 3, inf, 0.05, 1, 7},   // -fleet -arrival-rate +Inf
		{1, 64, 2, 2, 16, 8, 3, 3, 2e5, nan, 1, 7},    // -fleet -write-frac NaN
		{1, 64, 2, 2, 16, 8, 3, 3, 2e5, -1, 1, 7},     // -fleet -write-frac -1
		{2, 64, 2, 4, 16, 8, 0, 2, 2e5, 0.05, 2, 7},   // -overload -overload-servers 0
		{2, 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, nan, 7}, // -overload -overload-mults NaN
		{2, 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, -inf, 7},
		{2, -5, -1, -3, -16, -8, -2, -1, -5, 0.05, 0, -1},
		{0, 12, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 52}, // single: runs; its 16-slot index once filled at 11 of 12 keys
		{3, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},  // fig11: runs
		{4, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},  // etc: runs
		{5, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},  // cluster: runs
		{6, 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},  // fault-sweep: runs
	} {
		f.Add(in.study, in.items, in.workers, in.clients, in.requests, in.batch, in.servers, in.repl,
			in.rate, in.writes, in.mult, in.seed)
	}
	f.Fuzz(func(t *testing.T, study uint8, items, workers, clients, requests, batch, servers, repl int8,
		rate, writes, mult float64, seed int64) {
		o := KVSOptions{
			Items:    int(items) % 65,
			Workers:  int(workers) % 5,
			Clients:  int(clients) % 5,
			Requests: int(requests) % 17,
			Batches:  []int{int(batch) % 17},
			Seed:     seed,
			Parallel: 1,
		}
		nservers := int(servers) % 4
		// The fleet's churn runs crash windows over the whole arrival span,
		// so host time grows as 1/rate (1.4 s at 1 request/s here): a floor
		// on positive rates keeps each run tiny, as the sizes above do.
		if rate > 0 {
			rate = max(rate, 1e3)
		}
		var err error
		switch study % 7 {
		case 0:
			_, err = RunKVS("vertical", o.Batches[0], o)
		case 1:
			_, err = FleetStudyResult(FleetOptions{
				KVSOptions: o, FleetSizes: []int{nservers},
				Replication: int(repl) % 4, ArrivalRate: rate, WriteFraction: writes,
			})
		case 2:
			_, err = OverloadStudyResult(OverloadOptions{
				KVSOptions: o, Servers: nservers, Multipliers: []float64{mult},
			})
		case 3:
			_, err = Fig11StudyResult(o)
		case 4:
			_, err = ETCStudy(o)
		case 5:
			_, err = ClusterStudy(o)
		case 6:
			_, err = FaultSweep(o)
		}
		var cfgErr *memslap.ConfigError
		var loadErr *memslap.LoadError
		if err != nil && !errors.As(err, &cfgErr) && !errors.As(err, &loadErr) {
			t.Fatalf("study %d: got %v, want a result, a *memslap.ConfigError or a *memslap.LoadError", study%7, err)
		}
	})
}
