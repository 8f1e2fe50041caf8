package experiments

import (
	"errors"
	"math"
	"slices"
	"testing"

	"simdhtbench/internal/memslap"
	"simdhtbench/internal/obs"
)

// FuzzStudyOptions drives kvsbench's studies — each KVSArtifacts entry,
// printed through the registry, and single's RunKVS, picked by study — with
// tiny options: at most
// 64 items, 4 workers and clients, 16 requests, batches of 16 and 3
// servers, each count reaching zero and negative values, and fractions,
// multipliers and non-positive, NaN and infinite rates taken as given.
// Every input must return a result or a typed error: a *memslap.ConfigError
// for an option the study rejects, or a *memslap.LoadError when an index
// this small fills before the load completes. Never another error, a panic
// or a hang (RunFleet's event-budget watchdog bounds each run). Each input
// runs with a fresh collector, so the probes and the end-of-run publisher
// see every fuzzed shape too. The seeds are the CLI inputs each study must
// reject, plus one run each that must succeed.
func FuzzStudyOptions(f *testing.F) {
	var studies []string
	for _, a := range KVSArtifacts {
		studies = append(studies, a.Name)
	}
	studies = append(studies, "single")
	nan, inf := math.NaN(), math.Inf(1)
	for _, in := range []struct {
		study                                                   string
		items, workers, clients, requests, batch, servers, repl int8
		rate, writes, mult                                      float64
		seed                                                    int64
	}{
		{"single", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},     // runs
		{"fleet", 64, 2, 2, 16, 8, 3, 3, 2e5, 0.05, 1, 7},      // runs
		{"overload", 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, 2, 7},   // runs
		{"single", 0, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},      // -items 0
		{"single", 64, 0, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},     // -workers 0
		{"single", 64, 2, 0, 16, 8, 1, 1, 2e5, 0.05, 1, 7},     // -clients 0
		{"single", 64, 2, 2, 0, 8, 1, 1, 2e5, 0.05, 1, 7},      // -requests 0
		{"single", 64, 2, 2, 16, 0, 1, 1, 2e5, 0.05, 1, 7},     // -batch 0
		{"single", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 0},     // -seed 0: runs
		{"fleet", 64, 2, 2, 16, 8, 3, 0, 2e5, 0.05, 1, 7},      // -replication 0
		{"fleet", 64, 2, 2, 16, 8, 3, 3, 0, 0.05, 1, 7},        // -arrival-rate 0
		{"fleet", 64, 2, 2, 16, 8, 0, 3, 2e5, 0.05, 1, 7},      // -fleet-sizes 0
		{"fleet", 64, 2, 2, 16, 8, 3, 3, nan, 0.05, 1, 7},      // -arrival-rate NaN
		{"fleet", 64, 2, 2, 16, 8, 3, 3, inf, 0.05, 1, 7},      // -arrival-rate +Inf
		{"fleet", 64, 2, 2, 16, 8, 3, 3, 2e5, nan, 1, 7},       // -write-frac NaN
		{"fleet", 64, 2, 2, 16, 8, 3, 3, 2e5, -1, 1, 7},        // -write-frac -1
		{"overload", 64, 2, 4, 16, 8, 0, 2, 2e5, 0.05, 2, 7},   // -overload-servers 0
		{"overload", 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, nan, 7}, // -overload-mults NaN
		{"overload", 64, 2, 4, 16, 8, 2, 2, 2e5, 0.05, -inf, 7},
		{"overload", -5, -1, -3, -16, -8, -2, -1, -5, 0.05, 0, -1},
		{"single", 12, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 52}, // runs; its 16-slot index once filled at 11 of 12 keys
		{"fig11a", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},
		{"etc", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},
		{"cluster", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},
		{"fault-sweep", 64, 2, 2, 16, 8, 1, 1, 2e5, 0.05, 1, 7},
	} {
		study := slices.Index(studies, in.study)
		if study < 0 {
			f.Fatalf("no KVS study %q", in.study)
		}
		f.Add(uint8(study), in.items, in.workers, in.clients, in.requests, in.batch, in.servers, in.repl,
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
			Obs:      obs.NewCollector(),
		}
		nservers := int(servers) % 4
		// The fleet's churn runs crash windows over the whole arrival span,
		// so host time grows as 1/rate (1.4 s at 1 request/s here): a floor
		// on positive rates keeps each run tiny, as the sizes above do.
		if rate > 0 {
			rate = max(rate, 1e3)
		}
		name := studies[int(study)%len(studies)]
		var err error
		if arts, ok := KVSArtifacts.Resolve(name); ok {
			err = arts[0].Print(&Invocation{
				KVS: o,
				Fleet: FleetOptions{
					KVSOptions: o, FleetSizes: []int{nservers},
					Replication: int(repl) % 4, ArrivalRate: rate, WriteFraction: writes,
				},
				Overload: OverloadOptions{KVSOptions: o, Servers: nservers, Multipliers: []float64{mult}},
			}, &bufPrinter{})
		} else {
			_, err = RunKVS("vertical", o.Batches[0], o)
		}
		var cfgErr *memslap.ConfigError
		var loadErr *memslap.LoadError
		if err != nil && !errors.As(err, &cfgErr) && !errors.As(err, &loadErr) {
			t.Fatalf("%s: got %v, want a result, a *memslap.ConfigError or a *memslap.LoadError", name, err)
		}
	})
}
