package pipeline

import (
	"container/list"
	"sync"

	"repro/internal/fault"
)

// StageClaim names the advisory-claim stage of the distributed work
// protocol (internal/gen publishes a claim artifact next to each work
// unit it computes). The constant lives here because the evicting store
// pins the stage: a claim IS the in-progress marker of a distributed unit
// — a work-unit artifact only exists once its computation finished — so
// the eviction invariant "never evict a claimed or in-progress artifact"
// reduces to "never evict a claim artifact". Claims are a few dozen bytes
// each, so pinning them cannot defeat the byte budget.
const StageClaim = "claim"

// StageManifest names the stage of a distributed campaign's manifest: the
// pinned unit list internal/campaign seals before any peer starts. The
// evicting store pins it like a claim — a rerun that finds the manifest
// knows it resumes, and one manifest per campaign is a few hundred bytes.
const StageManifest = "campaign-manifest"

// EvictingStore bounds a backing store with a least-recently-used byte
// budget, so a long-lived shared cache survives a campaign without
// unbounded growth. It tracks every artifact observed through it — put or
// read — and, whenever the tracked bytes exceed the budget, deletes the
// least-recently-used unpinned artifact from the backing store until the
// budget holds again. Eviction removes cache entries only: the pipeline
// treats a missing artifact as a cold stage and recomputes bytes that are
// deterministic by construction, so an evicted-then-refetched artifact is
// byte-identical to the original and correctness never depends on what
// the policy keeps.
//
// Pinning is by stage: claim artifacts (StageClaim) are never evicted —
// they are the liveness markers of in-progress distributed units, and
// evicting one would make a live peer's work unit look unclaimed (see
// StageClaim) — and neither are campaign manifests (StageManifest), so a
// rerun of a campaign always recognizes itself as a resume. The artifact that
// triggered an eviction pass is itself exempt from that pass, so a budget
// smaller than one artifact degrades to "keep only the newest" instead of
// evicting the bytes just written.
//
// Accounting covers what the wrapper has observed, not what pre-exists in
// the backing store under addresses it has never seen; a pre-existing
// artifact joins the accounting (and the LRU order) on its first Get.
// Wrap the backing store before serving or sharing it, and the two views
// coincide.
//
// The wrapper is transparent for everything else: events recorded through
// it land in the backing store's probe log, Audit audits the backing
// store, and SetFaults arms both the wrapper (SiteStoreEvict — a forced
// eviction of the LRU unpinned artifact regardless of budget) and the
// backing store's own sites.
type EvictingStore struct {
	backing Store
	max     int64

	mu           sync.Mutex
	entries      map[string]*evictEntry
	order        *list.List // front = least recently used; element values are addresses
	live         int64
	evictions    int64
	evictedBytes int64

	gate faultGate
}

// evictEntry is the accounting record of one tracked artifact: enough of
// its identity to delete it from the backing store, its size, and its
// position in the LRU order.
type evictEntry struct {
	key          Key
	codecName    string
	codecVersion uint32
	size         int64
	elem         *list.Element
}

// NewEvictingStore wraps backing with an LRU byte budget. maxBytes <= 0
// disables budget-driven eviction (the wrapper still tracks sizes and
// honors SiteStoreEvict). StageClaim and StageManifest are always pinned.
func NewEvictingStore(backing Store, maxBytes int64) *EvictingStore {
	return &EvictingStore{
		backing: backing,
		max:     maxBytes,
		entries: make(map[string]*evictEntry),
		order:   list.New(),
	}
}

// EvictStats is a snapshot of the wrapper's accounting.
type EvictStats struct {
	Artifacts    int   // artifacts currently tracked
	BytesLive    int64 // tracked bytes, pinned artifacts included
	Evictions    int64 // artifacts evicted so far
	BytesEvicted int64 // bytes those evictions reclaimed
}

// Stats returns the current accounting snapshot.
func (s *EvictingStore) Stats() EvictStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return EvictStats{
		Artifacts:    len(s.entries),
		BytesLive:    s.live,
		Evictions:    s.evictions,
		BytesEvicted: s.evictedBytes,
	}
}

// Get reads through to the backing store. A hit touches (or adopts) the
// artifact's LRU entry; a miss — including an injected one — drops any
// stale accounting for the address, so an artifact deleted behind the
// wrapper's back stops counting against the budget.
func (s *EvictingStore) Get(key Key, codecName string, codecVersion uint32) ([]byte, bool) {
	data, ok := s.backing.Get(key, codecName, codecVersion)
	addr := contentAddress(key, codecName, codecVersion)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.dropLocked(addr)
		return nil, false
	}
	s.noteLocked(addr, key, codecName, codecVersion, int64(len(data)))
	s.evictLocked(addr)
	return data, true
}

// Put writes through to the backing store, then accounts the artifact as
// most recently used and runs an eviction pass that exempts it — the
// bytes just written are never the bytes reclaimed to make room for them.
func (s *EvictingStore) Put(key Key, codecName string, codecVersion uint32, data []byte) error {
	if err := s.backing.Put(key, codecName, codecVersion, data); err != nil {
		return err
	}
	addr := contentAddress(key, codecName, codecVersion)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteLocked(addr, key, codecName, codecVersion, int64(len(data)))
	if s.gate.faults().Should(fault.SiteStoreEvict) {
		s.evictOneLocked(addr)
	}
	s.evictLocked(addr)
	return nil
}

// Delete removes the artifact from the backing store and the accounting.
func (s *EvictingStore) Delete(key Key, codecName string, codecVersion uint32) error {
	err := s.backing.Delete(key, codecName, codecVersion)
	s.mu.Lock()
	s.dropLocked(contentAddress(key, codecName, codecVersion))
	s.mu.Unlock()
	return err
}

// Audit delegates to the backing store.
func (s *EvictingStore) Audit() error { return s.backing.Audit() }

// SetFaults arms the wrapper's own site (SiteStoreEvict) and the backing
// store's sites with one plan.
func (s *EvictingStore) SetFaults(p *fault.Plan) {
	s.gate.SetFaults(p)
	s.backing.SetFaults(p)
}

// The probe-event log stays the backing store's: wrapping must not split
// the event stream tests assert on.

func (s *EvictingStore) Events() []Event { return s.backing.Events() }
func (s *EvictingStore) ResetEvents()    { s.backing.ResetEvents() }
func (s *EvictingStore) CountEvents(stage string, hit bool) int {
	return s.backing.CountEvents(stage, hit)
}
func (s *EvictingStore) record(key Key, hit bool) { s.backing.record(key, hit) }

// noteLocked adopts or touches the accounting entry of addr: a known
// address moves to the most-recently-used end (adjusting its size if the
// artifact changed), an unknown one joins there.
func (s *EvictingStore) noteLocked(addr string, key Key, codecName string, codecVersion uint32, size int64) {
	if e, ok := s.entries[addr]; ok {
		s.live += size - e.size
		e.size = size
		s.order.MoveToBack(e.elem)
		return
	}
	e := &evictEntry{key: key, codecName: codecName, codecVersion: codecVersion, size: size}
	e.elem = s.order.PushBack(addr)
	s.entries[addr] = e
	s.live += size
}

// dropLocked forgets addr without touching the backing store.
func (s *EvictingStore) dropLocked(addr string) {
	e, ok := s.entries[addr]
	if !ok {
		return
	}
	s.order.Remove(e.elem)
	delete(s.entries, addr)
	s.live -= e.size
}

// evictLocked deletes least-recently-used unpinned artifacts (never the
// exempt address skip) until the budget holds or no victim remains.
func (s *EvictingStore) evictLocked(skip string) {
	for s.max > 0 && s.live > s.max {
		if !s.evictOneLocked(skip) {
			return
		}
	}
}

// evictOneLocked deletes the least-recently-used unpinned artifact other
// than skip, reporting whether one was evicted. A backing-store delete
// failure stops eviction — the bytes are still on disk, so forgetting the
// entry would underreport the live size forever.
func (s *EvictingStore) evictOneLocked(skip string) bool {
	for el := s.order.Front(); el != nil; el = el.Next() {
		addr := el.Value.(string)
		if addr == skip {
			continue
		}
		e := s.entries[addr]
		if e.key.Stage == StageClaim || e.key.Stage == StageManifest {
			continue
		}
		if err := s.backing.Delete(e.key, e.codecName, e.codecVersion); err != nil {
			return false
		}
		s.dropLocked(addr)
		s.evictions++
		s.evictedBytes += e.size
		return true
	}
	return false
}
