package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bigmath"
	"repro/internal/campaign"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// Campaign acceptance tests on a deliberately small plan — one function,
// a two-level F10/F12 ladder, a three-format sweep — so the full
// plan→manifest→workers→aggregate path runs in seconds. The invariants
// are the production ones: any peer split produces the same unit
// artifacts byte for byte as a solo worker, a killed peer's slot resumes
// from the shared store, and a rerun of the same plan is a warm resume.

func testPlan(workers int) campaign.Plan {
	return campaign.Plan{
		Funcs:   []bigmath.Func{bigmath.CosPi},
		Bits:    12,
		MinBits: 10,
		Levels:  []fp.Format{fp.MustFormat(10, 8), fp.MustFormat(12, 8)},
		Seed:    1,
		Workers: workers,
	}
}

// serveStore serves backing on a loopback listener torn down with the
// test, returning the dial address.
func serveStore(t *testing.T, backing pipeline.Store) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := pipeline.Serve(l, backing, nil); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// dial opens one connection to the loopback store, closed with the test.
func dial(t *testing.T, addr string) *pipeline.RemoteStore {
	t.Helper()
	rs, err := pipeline.DialRemote(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// remotePeer is a goroutine peer whose every incarnation runs RunWorker
// on its own connection to addr, so a dying peer cannot poison a
// sibling's transport.
func remotePeer(plan campaign.Plan, addr string) func(context.Context, int, gen.Shard) (*campaign.PeerReport, error) {
	return func(ctx context.Context, _ int, shard gen.Shard) (*campaign.PeerReport, error) {
		rs, err := pipeline.DialRemote(addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		defer rs.Close()
		return campaign.RunWorker(ctx, campaign.WorkerConfig{Plan: plan, Shard: shard, Store: rs})
	}
}

// sharedPeer is a goroutine peer whose every incarnation runs RunWorker
// over the one store instance st.
func sharedPeer(plan campaign.Plan, st pipeline.Store) func(context.Context, int, gen.Shard) (*campaign.PeerReport, error) {
	return func(ctx context.Context, _ int, shard gen.Shard) (*campaign.PeerReport, error) {
		return campaign.RunWorker(ctx, campaign.WorkerConfig{Plan: plan, Shard: shard, Store: st})
	}
}

func TestPlanFingerprintAndManifest(t *testing.T) {
	p := testPlan(1)
	if p.Fingerprint() != p.Fingerprint() {
		t.Fatal("fingerprint is not stable")
	}
	q := p
	q.Seed = 2
	if p.Fingerprint() == q.Fingerprint() {
		t.Error("seed change did not change the plan fingerprint")
	}
	m := campaign.BuildManifest(p)
	// One generate unit plus one sweep unit per format (F10, F11, F12).
	if want := 1 + 3; len(m.Units) != want {
		t.Fatalf("manifest has %d units, want %d: %v", len(m.Units), want, m.Units)
	}
	if m.Fingerprint != p.Fingerprint() {
		t.Error("manifest fingerprint differs from the plan's")
	}

	// Cold publish, then a warm decode that signals resume.
	st := pipeline.NewMemStore()
	got, resumed, err := campaign.EnsureManifest(context.Background(), st, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("cold manifest reported resumed")
	}
	got2, resumed2, err := campaign.EnsureManifest(context.Background(), st, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed2 {
		t.Error("warm manifest did not report resumed")
	}
	if len(got.Units) != len(got2.Units) || got2.Fingerprint != m.Fingerprint {
		t.Errorf("warm manifest differs: %v vs %v", got, got2)
	}
}

// TestCampaignTwoPeersMatchesSolo: a 2-peer campaign over a shared
// loopback store must leave the identical sealed artifacts a solo worker
// produces — the verify artifact and every sweep unit, byte for byte —
// and aggregate the same totals.
func TestCampaignTwoPeersMatchesSolo(t *testing.T) {
	plan := testPlan(2)

	// Solo reference worker over its own store.
	soloStore := pipeline.NewMemStore()
	soloRep, err := campaign.RunWorker(context.Background(), campaign.WorkerConfig{
		Plan: plan, Store: soloStore,
	})
	if err != nil {
		t.Fatalf("solo worker: %v", err)
	}

	backing := pipeline.NewMemStore()
	addr := serveStore(t, backing)
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Plan:    plan,
		Peers:   2,
		Store:   dial(t, addr),
		RunPeer: remotePeer(plan, addr),
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	if rep.Units != len(soloRep.Units) {
		t.Errorf("campaign aggregated %d units, solo observed %d", rep.Units, len(soloRep.Units))
	}
	var soloChecked uint64
	for _, u := range soloRep.Units {
		soloChecked += u.Checked
	}
	if rep.InputsChecked != soloChecked {
		t.Errorf("campaign checked %d inputs, solo %d", rep.InputsChecked, soloChecked)
	}
	if rep.Mismatches != soloRep.Mismatches {
		t.Errorf("campaign found %d mismatches, solo %d", rep.Mismatches, soloRep.Mismatches)
	}

	// Byte-identity of every sealed artifact the campaign shares.
	opt := plan.Options()
	fn := plan.Funcs[0]
	vk := gen.VerifyKey(fn, opt)
	soloVerify, ok1 := soloStore.Get(vk, gen.ResultCodec.Name, gen.ResultCodec.Version)
	sharedVerify, ok2 := backing.Get(vk, gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok1 || !ok2 {
		t.Fatal("verify artifact missing from a store")
	}
	if !bytes.Equal(soloVerify, sharedVerify) {
		t.Error("shared verify artifact differs from the solo worker's")
	}
	for b := plan.MinBits; b <= plan.Bits; b++ {
		sk := campaign.SweepKey(fn, opt, b)
		solo, ok1 := soloStore.Get(sk, "campaign-sweep", 1)
		shared, ok2 := backing.Get(sk, "campaign-sweep", 1)
		if !ok1 || !ok2 {
			t.Fatalf("sweep unit F%d,8 missing (solo %v, shared %v)", b, ok1, ok2)
		}
		if !bytes.Equal(solo, shared) {
			t.Errorf("sweep unit F%d,8 differs between solo and campaign stores", b)
		}
	}
	if err := backing.Audit(); err != nil {
		t.Errorf("shared store audit: %v", err)
	}
}

// TestCampaignKilledPeerRestarts: peer 1's first incarnation starts with
// a canceled context — it dies on its first cold unit. The driver must
// restart the slot, and the restarted worker resumes from the shared
// store to a complete, correct campaign.
func TestCampaignKilledPeerRestarts(t *testing.T) {
	plan := testPlan(2)
	backing := pipeline.NewMemStore()
	addr := serveStore(t, backing)

	run := remotePeer(plan, addr)
	var incarnations [2]int // one counter per slot, each touched only by its own goroutine
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Plan:        plan,
		Peers:       2,
		MaxRestarts: 1,
		Store:       dial(t, addr),
		RunPeer: func(ctx context.Context, peer int, shard gen.Shard) (*campaign.PeerReport, error) {
			incarnations[peer]++
			if peer == 1 && incarnations[peer] == 1 {
				dead, cancel := context.WithCancel(ctx)
				cancel()
				ctx = dead
			}
			return run(ctx, peer, shard)
		},
	})
	if err != nil {
		t.Fatalf("campaign with killed peer: %v", err)
	}
	if got := rep.Peers[1].Restarts; got != 1 {
		t.Errorf("peer 1 restarted %d times, want 1", got)
	}
	if rep.Peers[1].Err != "" {
		t.Errorf("peer 1 ended in error after restart: %s", rep.Peers[1].Err)
	}
	wantUnits := len(campaign.BuildManifest(plan).Units)
	if rep.Units != wantUnits {
		t.Errorf("campaign aggregated %d units, want %d", rep.Units, wantUnits)
	}
	// The sealed verify artifact equals an untouched solo run's — the
	// kill changed scheduling, never bytes.
	soloStore := pipeline.NewMemStore()
	if _, err := campaign.RunWorker(context.Background(), campaign.WorkerConfig{Plan: plan, Store: soloStore}); err != nil {
		t.Fatalf("solo worker: %v", err)
	}
	vk := gen.VerifyKey(plan.Funcs[0], plan.Options())
	solo, ok1 := soloStore.Get(vk, gen.ResultCodec.Name, gen.ResultCodec.Version)
	shared, ok2 := backing.Get(vk, gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok1 || !ok2 || !bytes.Equal(solo, shared) {
		t.Error("verify artifact after the kill differs from a solo run's")
	}
}

// TestCampaignPeerExhaustsRestarts: a peer that fails every incarnation
// is relaunched MaxRestarts times and then recorded as failed, while the
// surviving peer computes its units and the campaign still succeeds with
// every manifest unit aggregated.
func TestCampaignPeerExhaustsRestarts(t *testing.T) {
	plan := testPlan(2)
	shared := pipeline.NewMemStore()
	run := sharedPeer(plan, shared)
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Plan:        plan,
		Peers:       2,
		MaxRestarts: 1,
		Store:       shared,
		RunPeer: func(ctx context.Context, peer int, shard gen.Shard) (*campaign.PeerReport, error) {
			if peer == 1 {
				return nil, errors.New("peer 1 always dies")
			}
			return run(ctx, peer, shard)
		},
	})
	if err != nil {
		t.Fatalf("campaign with one dead peer: %v", err)
	}
	if got := rep.Peers[1].Restarts; got != 1 {
		t.Errorf("peer 1 restarted %d times, want 1", got)
	}
	if rep.Peers[1].Err == "" {
		t.Error("peer 1 exhausted its restarts but has no Err")
	}
	if rep.Peers[0].Err != "" {
		t.Errorf("peer 0 failed: %s", rep.Peers[0].Err)
	}
	if want := len(campaign.BuildManifest(plan).Units); rep.Units != want {
		t.Errorf("campaign aggregated %d units, want %d", rep.Units, want)
	}
}

// TestCampaignAllPeersFail: when no peer finishes, Run reports it.
func TestCampaignAllPeersFail(t *testing.T) {
	plan := testPlan(1)
	_, err := campaign.Run(context.Background(), campaign.Config{
		Plan:  plan,
		Peers: 2,
		Store: pipeline.NewMemStore(),
		RunPeer: func(context.Context, int, gen.Shard) (*campaign.PeerReport, error) {
			return nil, errors.New("boom")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "all 2 peers failed") {
		t.Fatalf("Run error = %v, want \"all 2 peers failed\"", err)
	}
}

// TestCampaignResume: rerunning the identical plan against the same store
// is a warm resume — the manifest reports it, every unit decodes from its
// sealed artifact, and no unit is recomputed.
func TestCampaignResume(t *testing.T) {
	plan := testPlan(2)
	shared := pipeline.NewMemStore()
	cfg := campaign.Config{Plan: plan, Peers: 1, Store: shared, RunPeer: sharedPeer(plan, shared)}

	first, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("first campaign: %v", err)
	}
	if first.Resumed {
		t.Error("first campaign reported resumed")
	}
	second, err := campaign.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if !second.Resumed {
		t.Error("second campaign did not report resumed")
	}
	if second.InputsChecked != first.InputsChecked || second.Units != first.Units {
		t.Errorf("resumed campaign totals differ: %d/%d units, %d/%d inputs",
			second.Units, first.Units, second.InputsChecked, first.InputsChecked)
	}
	if n := second.Peers[0].UnitsComputed; n != 0 {
		t.Errorf("resumed campaign recomputed %d units, want 0", n)
	}
}

// TestCampaignEvictedStore: the campaign against an eviction-bounded
// store still produces artifacts byte-identical to an un-evicted solo
// run — an evicted unit is recomputed to the same bytes on demand.
func TestCampaignEvictedStore(t *testing.T) {
	plan := testPlan(2)

	soloStore := pipeline.NewMemStore()
	if _, err := campaign.RunWorker(context.Background(), campaign.WorkerConfig{Plan: plan, Store: soloStore}); err != nil {
		t.Fatalf("solo worker: %v", err)
	}

	evicting := pipeline.NewEvictingStore(pipeline.NewMemStore(), 2<<10)
	addr := serveStore(t, evicting)
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Plan:    plan,
		Peers:   2,
		Store:   dial(t, addr),
		RunPeer: remotePeer(plan, addr),
	})
	if err != nil {
		t.Fatalf("campaign over evicting store: %v", err)
	}
	if st := evicting.Stats(); st.Evictions == 0 {
		t.Error("the 2KiB budget never evicted; the scenario did not exercise eviction")
	}
	var soloChecked uint64
	soloRep, err := campaign.RunWorker(context.Background(), campaign.WorkerConfig{Plan: plan, Store: soloStore})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range soloRep.Units {
		soloChecked += u.Checked
	}
	if rep.InputsChecked != soloChecked || rep.Mismatches != soloRep.Mismatches {
		t.Errorf("evicted campaign totals differ from solo: %d/%d inputs, %d/%d mismatches",
			rep.InputsChecked, soloChecked, rep.Mismatches, soloRep.Mismatches)
	}
	// Whatever survives in the evicted store matches the solo bytes.
	fn, opt := plan.Funcs[0], plan.Options()
	for b := plan.MinBits; b <= plan.Bits; b++ {
		sk := campaign.SweepKey(fn, opt, b)
		shared, ok := evicting.Get(sk, "campaign-sweep", 1)
		if !ok {
			continue // evicted — that's the point
		}
		solo, ok := soloStore.Get(sk, "campaign-sweep", 1)
		if !ok || !bytes.Equal(solo, shared) {
			t.Errorf("surviving sweep unit F%d,8 differs from the un-evicted solo artifact", b)
		}
	}
}
