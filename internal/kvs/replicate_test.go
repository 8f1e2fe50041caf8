package kvs

import (
	"fmt"
	"testing"

	"simdhtbench/internal/arch"
	"simdhtbench/internal/des"
	"simdhtbench/internal/fault"
	"simdhtbench/internal/mem"
)

// replicaServer builds an empty server whose index has room for `capacity`
// items, so replica applies never hit capacity rejections, on a
// one-partition engine.
func replicaServer(t *testing.T, capacity int) (*des.Partitioned, *Server) {
	t.Helper()
	pd := des.NewPartitioned(1, 1, 1e-6)
	space := mem.NewAddressSpace()
	store := NewItemStore(space)
	idx, err := NewVerticalIndex(space, capacity, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pd, NewServer(pd.Sim(0), arch.SkylakeClusterB(), 2, 8, idx, store)
}

func TestReplaceInsertsAndOverwrites(t *testing.T) {
	_, srv, keys := faultServer(t, 10, 8)
	// Overwrite an existing key: the stale index entry must be replaced,
	// not duplicated (the index rejects duplicate 32-bit hashes).
	replaced, err := srv.Replace(keys[0], []byte("fresh-value"))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Error("Replace of a stored key must report replaced=true")
	}
	if got, ok := srv.Get(keys[0]); !ok || string(got) != "fresh-value" {
		t.Fatalf("Get after Replace = %q, %v", got, ok)
	}
	// Insert a brand-new key.
	newKey := []byte("key-replicated-new")
	replaced, err = srv.Replace(newKey, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if replaced {
		t.Error("Replace of an unknown key must report replaced=false")
	}
	if got, ok := srv.Get(newKey); !ok || string(got) != "v2" {
		t.Fatalf("Get after insert-Replace = %q, %v", got, ok)
	}
}

func TestHandleReplicateAppliesAndCharges(t *testing.T) {
	pd, srv := replicaServer(t, 64)
	items := make([]ReplicaItem, 5)
	for i := range items {
		items[i] = ReplicaItem{
			Key:   []byte(fmt.Sprintf("repl-key-%06d", i)),
			Value: []byte(fmt.Sprintf("repl-val-%d", i)),
		}
	}
	applied, fired := 0, 0
	srv.HandleReplicate(items, func(n int) { applied = n; fired++ })
	pd.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if applied != len(items) {
		t.Fatalf("applied %d of %d items", applied, len(items))
	}
	if pd.Sim(0).Now() <= 0 {
		t.Error("replica apply must consume virtual time (charged service)")
	}
	if srv.ReplicaBatches != 1 || srv.ReplicaItems != uint64(len(items)) {
		t.Errorf("counters = %d batches / %d items, want 1 / %d", srv.ReplicaBatches, srv.ReplicaItems, len(items))
	}
	for _, it := range items {
		if got, ok := srv.Get(it.Key); !ok || string(got) != string(it.Value) {
			t.Fatalf("replicated key %q = %q, %v", it.Key, got, ok)
		}
	}
}

func TestHandleReplicateCrashWindowDrops(t *testing.T) {
	pd, srv, _ := faultServer(t, 10, 8)
	spec, err := fault.ParseSpec("crash=100us:50us")
	if err != nil {
		t.Fatal(err)
	}
	srv.Faults = spec.NewPlan(1)
	item := []ReplicaItem{{Key: []byte("repl-crash-key"), Value: []byte("v")}}
	pd.Sim(0).After(110e-6, func() { // inside the first down window [100us, 150us)
		srv.HandleReplicate(item, func(int) {
			t.Error("crashed server must drop the replica batch, not ack it")
		})
	})
	pd.Run()
	if srv.CrashDrops != 1 {
		t.Errorf("CrashDrops = %d, want 1", srv.CrashDrops)
	}
	if _, ok := srv.Get(item[0].Key); ok {
		t.Error("dropped replica batch must not be applied")
	}
}

func TestWipeEmptiesServer(t *testing.T) {
	_, srv, keys := faultServer(t, 50, 8)
	wiped := srv.Wipe()
	if wiped != len(keys) {
		t.Fatalf("Wipe removed %d items, want %d", wiped, len(keys))
	}
	for _, k := range keys {
		if _, ok := srv.Get(k); ok {
			t.Fatalf("key %q survived Wipe", k)
		}
	}
	// A wiped server accepts writes again (cold restart).
	if _, err := srv.Set(keys[0], []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got, ok := srv.Get(keys[0]); !ok || string(got) != "back" {
		t.Fatalf("Get after re-Set = %q, %v", got, ok)
	}
}
