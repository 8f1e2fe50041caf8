package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/mem"
)

// warmServer builds a 4-worker Skylake-B server holding up to items keys
// on a vertical index; keys whose 32-bit hash collides are skipped, as the
// loaders do.
func warmServer(tb testing.TB, items int) (*Server, [][]byte) {
	tb.Helper()
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewVerticalIndex(space, items, 64, 1)
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(nil, arch.SkylakeClusterB(), 4, 64, idx, store)
	var keys [][]byte
	for i := 0; i < items; i++ {
		key := []byte(fmt.Sprintf("warm-key-%08d", i))
		if _, err := srv.Set(key, []byte("value-32-bytes-xxxxxxxxxxxxxxxx")); err == nil {
			keys = append(keys, key)
		}
	}
	return srv, keys
}

// warmEachWorker is the per-worker warm-up WarmCaches must reproduce: the
// index and the hot items touched into every worker's hierarchy in turn.
func warmEachWorker(s *Server) {
	hotBudget := (s.Arch.LastLevelCacheSize() * 3) / 4
	for _, e := range s.engines {
		s.Index.Warm(e.Cache)
		s.Store.WarmHot(e.Cache, hotBudget)
	}
}

// TestWarmCachesCopyMatchesPerWorkerWarm: charged batches on every worker of
// a server warmed by WarmCaches cost the same cycles and leave the same
// per-level stats as on a twin warmed worker by worker — on the pristine
// path, where WarmCaches copies worker 0's hierarchy, and on the fallback
// after a charged batch has touched worker 0.
func TestWarmCachesCopyMatchesPerWorkerWarm(t *testing.T) {
	for _, usedFirst := range []bool{false, true} {
		got, keys := warmServer(t, 3000)
		want, _ := warmServer(t, 3000)
		if usedFirst {
			got.processBatch(0, keys[17:18])
			want.processBatch(0, keys[17:18])
			if got.engines[0].Cache.Pristine() {
				t.Fatal("a charged batch left worker 0 pristine")
			}
		}
		got.WarmCaches()
		warmEachWorker(want)
		for wi := range got.engines {
			// Every worker serves a different slice of hot and cold keys plus
			// a few misses.
			batch := append([][]byte(nil), keys[wi*700:wi*700+60]...)
			batch = append(batch, []byte("absent-key-1"), []byte("absent-key-2"))
			g, w := got.processBatch(wi, batch), want.processBatch(wi, batch)
			if g.Breakdown != w.Breakdown || g.Found != w.Found {
				t.Fatalf("used first %v, worker %d: batch %+v found %d, per-worker warm %+v found %d",
					usedFirst, wi, g.Breakdown, g.Found, w.Breakdown, w.Found)
			}
		}
		for wi, e := range got.engines {
			we := want.engines[wi]
			if e.Cycles() != we.Cycles() || e.Cache.DRAMAccesses() != we.Cache.DRAMAccesses() {
				t.Fatalf("used first %v, worker %d: %v cycles, %d DRAM fills; per-worker warm %v, %d",
					usedFirst, wi, e.Cycles(), e.Cache.DRAMAccesses(), we.Cycles(), we.Cache.DRAMAccesses())
			}
			for _, name := range e.Cache.Levels() {
				gs, _ := e.Cache.LevelStats(name)
				ws, _ := we.Cache.LevelStats(name)
				if gs != ws {
					t.Fatalf("used first %v, worker %d, %s: stats %+v, per-worker warm %+v", usedFirst, wi, name, gs, ws)
				}
			}
		}
	}
}
