package gen

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// Claim heartbeat and expiry unit tests: they drive fetchUnit and
// startClaimHeartbeat directly. The contract: a computing shard keeps its
// claim's stamp advancing, a poller waits as long as the stamp moves, and a
// claim whose stamp freezes is reclaimed after claimStallBudget polls — well
// before the full claimPollAttempts window.

// hbUnitKey is a throwaway work-unit key for the claim tests.
func hbUnitKey() pipeline.Key {
	return pipeline.Key{Func: "cospi", Stage: StageVerifyShard, Fingerprint: "hb-test-0.2"}
}

// hbUnit is the fixed unit payload the tests publish or compute.
const hbUnit = 1024

// hbCodec is the unit codec of the claim tests: the payload is opaque to
// the claim protocol, so one integer stands in for a real unit.
var hbCodec = pipeline.Codec[uint64]{
	Name:    "hb-test",
	Version: 1,
	Encode:  func(e *pipeline.Enc, v uint64) { e.U64(v) },
	Decode:  func(d *pipeline.Dec) (uint64, error) { return d.U64(), d.Err() },
}

// sealUnit frames v for direct store publication, bypassing pipeline.Run
// the way a peer process's publish looks to this process.
func sealUnit(v uint64) []byte {
	var e pipeline.Enc
	hbCodec.Encode(&e, v)
	return pipeline.Seal(hbCodec.Name, hbCodec.Version, e.Bytes())
}

// TestShardHeartbeatAdvancesStamp: startClaimHeartbeat republishes the
// claim with a strictly advancing stamp, and stops advancing once stopped.
func TestShardHeartbeatAdvancesStamp(t *testing.T) {
	st := pipeline.NewMemStore()
	key := hbUnitKey()
	shard := Shard{K: 0, N: 2}
	if !claim(st, key, shard, nil) {
		t.Fatal("initial claim failed on an empty store")
	}
	stop := startClaimHeartbeat(context.Background(), st, key, shard)

	deadline := time.Now().Add(10 * time.Second)
	var seen uint64
	for seen < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("stamp reached only %d within the deadline", seen)
		}
		c, ok := claimedBy(st, key, nil)
		if !ok {
			t.Fatal("claim vanished while the heartbeat ran")
		}
		if c.Owner != shard.Owner() {
			t.Fatalf("claim owner %q, want %q", c.Owner, shard.Owner())
		}
		if c.Stamp < seen {
			t.Fatalf("stamp went backwards: %d after %d", c.Stamp, seen)
		}
		seen = c.Stamp
		time.Sleep(heartbeatInterval / 2)
	}
	stop()

	c, ok := claimedBy(st, key, nil)
	if !ok {
		t.Fatal("claim vanished after stop")
	}
	frozen := c.Stamp
	time.Sleep(4 * heartbeatInterval)
	if c, _ := claimedBy(st, key, nil); c.Stamp != frozen {
		t.Errorf("stamp advanced from %d to %d after stop", frozen, c.Stamp)
	}
}

// TestShardDeadPeerReclaimedEarly: a peer claim whose stamp never advances
// is treated as dead after claimStallBudget polls, so fetchUnit computes
// the unit locally long before the full claimPollAttempts window.
func TestShardDeadPeerReclaimedEarly(t *testing.T) {
	st := pipeline.NewMemStore()
	key := hbUnitKey()
	// The dead peer claimed the unit (stamp 7) and was then killed: the
	// stamp will never advance again.
	RefreshClaim(st, key, Shard{K: 1, N: 2}, 7)

	var computed atomic.Bool
	compute := func(context.Context) (uint64, error) {
		computed.Store(true)
		return hbUnit, nil
	}
	start := time.Now()
	v, err := fetchUnit(context.Background(), st, key, Shard{K: 0, N: 2}, nil, nil, hbCodec, compute)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !computed.Load() {
		t.Error("unit was not computed locally")
	}
	if v != hbUnit {
		t.Errorf("unit value %d, want %d", v, hbUnit)
	}
	// The stall budget is 10 polls (~500ms); the full window is 40
	// (~2s). Half the window is an ample scheduling margin that still
	// proves the early-expiry path ran.
	if budget := claimPollAttempts * ClaimPollInterval; elapsed >= budget/2 {
		t.Errorf("reclaim took %v, want well under the %v poll window", elapsed, budget)
	}
	if c, ok := claimedBy(st, key, nil); !ok || c.Owner != (Shard{K: 0, N: 2}).Owner() {
		t.Errorf("claim not taken over by the survivor: %+v ok=%v", c, ok)
	}
}

// TestShardLivePeerAwaited: while a peer's heartbeat keeps the claim
// fresh, fetchUnit keeps polling — past the stall budget — and returns the
// peer's published artifact without ever computing locally.
func TestShardLivePeerAwaited(t *testing.T) {
	st := pipeline.NewMemStore()
	key := hbUnitKey()
	peer := Shard{K: 1, N: 2}
	if !claim(st, key, peer, nil) {
		t.Fatal("peer claim failed on an empty store")
	}
	stopHB := startClaimHeartbeat(context.Background(), st, key, peer)
	defer stopHB()

	// The peer "finishes" its unit after the stall budget would have
	// expired for a dead claim, proving the heartbeat kept it alive.
	publishAfter := (claimStallBudget + 5) * ClaimPollInterval
	timer := time.AfterFunc(publishAfter, func() {
		if err := st.Put(key, hbCodec.Name, hbCodec.Version, sealUnit(hbUnit)); err != nil {
			t.Errorf("peer publish: %v", err)
		}
	})
	defer timer.Stop()

	var computed atomic.Bool
	compute := func(context.Context) (uint64, error) {
		computed.Store(true)
		return hbUnit, nil
	}
	v, err := fetchUnit(context.Background(), st, key, Shard{K: 0, N: 2}, nil, nil, hbCodec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() {
		t.Error("fetchUnit computed locally despite a live, heartbeating peer")
	}
	if v != hbUnit {
		t.Errorf("unit value %d, want %d", v, hbUnit)
	}
}
