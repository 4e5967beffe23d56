package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
)

// Eviction-policy unit tests. The invariants under test: the budget
// holds after every operation (up to pinned artifacts and the exempt
// just-written one), victims leave in least-recently-used order, claim
// artifacts are never evicted, and an evicted artifact re-put later is
// byte-identical (eviction only forgets cache entries; it cannot change
// what deterministic recomputation re-publishes).

// evictKey builds a distinct work-unit key per index.
func evictKey(stage string, i int) Key {
	return Key{Func: "cospi", Stage: stage, Fingerprint: fmt.Sprintf("unit-%03d", i)}
}

// evictArtifact seals a deterministic payload of the given size.
func evictArtifact(i, size int) []byte {
	payload := bytes.Repeat([]byte{byte(i)}, size)
	return Seal("evict-test", 1, payload)
}

func TestEvictingStoreBudgetAndLRUOrder(t *testing.T) {
	backing := NewMemStore()
	art := evictArtifact(1, 64)
	budget := int64(3 * len(art))
	es := NewEvictingStore(backing, budget)

	for i := 0; i < 5; i++ {
		if err := es.Put(evictKey("solve-shard", i), "evict-test", 1, evictArtifact(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := es.Stats()
	if st.BytesLive > budget {
		t.Errorf("BytesLive %d exceeds budget %d", st.BytesLive, budget)
	}
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (5 equal-size puts, budget 3)", st.Evictions)
	}
	// The two oldest are gone; the three newest survive, byte-identical.
	for i := 0; i < 5; i++ {
		data, ok := es.Get(evictKey("solve-shard", i), "evict-test", 1)
		if i < 2 {
			if ok {
				t.Errorf("artifact %d survived; want evicted (LRU)", i)
			}
			continue
		}
		if !ok || !bytes.Equal(data, evictArtifact(i, 64)) {
			t.Errorf("artifact %d missing or corrupt after eviction pass", i)
		}
	}
	if err := es.Audit(); err != nil {
		t.Errorf("audit after evictions: %v", err)
	}
}

func TestEvictingStoreGetRefreshesLRU(t *testing.T) {
	es := NewEvictingStore(NewMemStore(), int64(3*len(evictArtifact(0, 64))))
	for i := 0; i < 3; i++ {
		if err := es.Put(evictKey("solve-shard", i), "evict-test", 1, evictArtifact(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch artifact 0: it becomes most recently used, so the next two
	// puts evict 1 and 2 instead.
	if _, ok := es.Get(evictKey("solve-shard", 0), "evict-test", 1); !ok {
		t.Fatal("artifact 0 missing before it was ever over budget")
	}
	for i := 3; i < 5; i++ {
		if err := es.Put(evictKey("solve-shard", i), "evict-test", 1, evictArtifact(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := es.Get(evictKey("solve-shard", 0), "evict-test", 1); !ok {
		t.Error("artifact 0 evicted despite being recently used")
	}
	for _, i := range []int{1, 2} {
		if _, ok := es.Get(evictKey("solve-shard", i), "evict-test", 1); ok {
			t.Errorf("artifact %d survived; want evicted as least recently used", i)
		}
	}
}

// TestEvictingStoreNeverEvictsClaims: claim artifacts are pinned — even a
// budget far smaller than the claim footprint evicts work units around
// them and leaves every claim resident.
func TestEvictingStoreNeverEvictsClaims(t *testing.T) {
	es := NewEvictingStore(NewMemStore(), 1) // absurd budget: everything unpinned must go
	var claims, units []Key
	for i := 0; i < 4; i++ {
		ck, uk := evictKey(StageClaim, i), evictKey("verify-shard", i)
		claims, units = append(claims, ck), append(units, uk)
		if err := es.Put(ck, "store-claim", 2, evictArtifact(i, 16)); err != nil {
			t.Fatal(err)
		}
		if err := es.Put(uk, "verify-shard", 1, evictArtifact(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i, ck := range claims {
		if data, ok := es.Get(ck, "store-claim", 2); !ok || !bytes.Equal(data, evictArtifact(i, 16)) {
			t.Errorf("claim %d evicted or corrupt; claims must be pinned", i)
		}
	}
	evictedUnits := 0
	for _, uk := range units {
		if _, ok := es.Get(uk, "verify-shard", 1); !ok {
			evictedUnits++
		}
	}
	// The newest unit is exempt from its own Put's pass but is evicted by
	// the claim Gets' passes above only if unpinned — either way at least
	// the three older units are gone.
	if evictedUnits < 3 {
		t.Errorf("only %d unit artifacts evicted under a 1-byte budget; want at least 3", evictedUnits)
	}
}

// TestEvictingStorePinStages: the claim and campaign-manifest stages are
// pinned by default — both survive a 1-byte budget that evicts every
// other stage around them.
func TestEvictingStorePinStages(t *testing.T) {
	es := NewEvictingStore(NewMemStore(), 1)
	if err := es.Put(evictKey(StageManifest, 0), "campaign-manifest", 1, evictArtifact(0, 256)); err != nil {
		t.Fatal(err)
	}
	if err := es.Put(evictKey(StageClaim, 0), "store-claim", 2, evictArtifact(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := es.Put(evictKey("solve", 0), "result", 2, evictArtifact(2, 256)); err != nil {
		t.Fatal(err)
	}
	if err := es.Put(evictKey("verify", 0), "result", 2, evictArtifact(3, 256)); err != nil {
		t.Fatal(err)
	}
	if data, ok := es.Get(evictKey(StageManifest, 0), "campaign-manifest", 1); !ok || !bytes.Equal(data, evictArtifact(0, 256)) {
		t.Error("campaign-manifest artifact evicted or corrupt; manifests must be pinned")
	}
	if data, ok := es.Get(evictKey(StageClaim, 0), "store-claim", 2); !ok || !bytes.Equal(data, evictArtifact(1, 16)) {
		t.Error("claim artifact evicted or corrupt; claims must be pinned")
	}
	if _, ok := es.Get(evictKey("solve", 0), "result", 2); ok {
		t.Error("unpinned solve artifact survived a 1-byte budget")
	}
}

// TestEvictingStoreSkipsJustWritten: a budget smaller than one artifact
// keeps the newest write instead of evicting the bytes it just stored.
func TestEvictingStoreSkipsJustWritten(t *testing.T) {
	art := evictArtifact(7, 256)
	es := NewEvictingStore(NewMemStore(), int64(len(art))/2)
	if err := es.Put(evictKey("solve", 7), "result", 2, art); err != nil {
		t.Fatal(err)
	}
	if data, ok := es.Get(evictKey("solve", 7), "result", 2); !ok || !bytes.Equal(data, art) {
		t.Error("the just-written artifact was evicted by its own Put")
	}
}

// TestEvictingStoreInjectedEviction: SiteStoreEvict forces an eviction
// regardless of budget, and a re-put of the evicted artifact stores
// byte-identical data (the evicted-then-refetched contract at the store
// layer; cache_test.go proves it end-to-end through the pipeline).
func TestEvictingStoreInjectedEviction(t *testing.T) {
	es := NewEvictingStore(NewMemStore(), 1<<30)
	if err := es.Put(evictKey("solve", 0), "result", 2, evictArtifact(0, 128)); err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan().At(fault.SiteStoreEvict, 1)
	es.SetFaults(plan)
	if err := es.Put(evictKey("solve", 1), "result", 2, evictArtifact(1, 128)); err != nil {
		t.Fatal(err)
	}
	es.SetFaults(nil)
	if _, ok := es.Get(evictKey("solve", 0), "result", 2); ok {
		t.Fatal("artifact 0 survived an injected eviction")
	}
	if st := es.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	// Deterministic recomputation re-publishes identical bytes.
	if err := es.Put(evictKey("solve", 0), "result", 2, evictArtifact(0, 128)); err != nil {
		t.Fatal(err)
	}
	data, ok := es.Get(evictKey("solve", 0), "result", 2)
	if !ok || !bytes.Equal(data, evictArtifact(0, 128)) {
		t.Error("re-put artifact differs from the original bytes")
	}
}

// TestEvictingStoreAdoptsPreexisting: an artifact written before the
// wrapper existed joins the accounting on its first Get and is evictable
// afterwards.
func TestEvictingStoreAdoptsPreexisting(t *testing.T) {
	backing := NewMemStore()
	if err := backing.Put(evictKey("solve", 0), "result", 2, evictArtifact(0, 256)); err != nil {
		t.Fatal(err)
	}
	es := NewEvictingStore(backing, int64(len(evictArtifact(0, 256)))+8)
	if es.Stats().Artifacts != 0 {
		t.Fatal("wrapper accounted artifacts it has never observed")
	}
	if _, ok := es.Get(evictKey("solve", 0), "result", 2); !ok {
		t.Fatal("pre-existing artifact unreadable through the wrapper")
	}
	if st := es.Stats(); st.Artifacts != 1 || st.BytesLive == 0 {
		t.Errorf("adoption did not account the artifact: %+v", st)
	}
	// A new put over budget now evicts the adopted artifact.
	if err := es.Put(evictKey("solve", 1), "result", 2, evictArtifact(1, 256)); err != nil {
		t.Fatal(err)
	}
	if _, ok := backing.Get(evictKey("solve", 0), "result", 2); ok {
		t.Error("adopted artifact not evicted from the backing store")
	}
}

// TestEvictingStoreDeleteDropsAccounting: an external delete (or one
// through the wrapper) stops counting against the budget.
func TestEvictingStoreDeleteDropsAccounting(t *testing.T) {
	es := NewEvictingStore(NewMemStore(), 1<<30)
	if err := es.Put(evictKey("solve", 0), "result", 2, evictArtifact(0, 128)); err != nil {
		t.Fatal(err)
	}
	if err := es.Delete(evictKey("solve", 0), "result", 2); err != nil {
		t.Fatal(err)
	}
	if st := es.Stats(); st.Artifacts != 0 || st.BytesLive != 0 {
		t.Errorf("accounting survives Delete: %+v", st)
	}
}
