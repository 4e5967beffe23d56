package gen

import (
	"context"
	"time"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// Shared distribution machinery: the claim-poll/heartbeat protocol every
// distributed stage rides on, driven by one loop, RunUnits. Three workloads
// use it — the exhaustive verification slices (VerifyShardKey, assembled
// by internal/cli), the per-piece Clarkson solve units (SolveShardKey,
// assembled by the Solve stage itself) and the campaign's format sweeps —
// with identical semantics: a unit is an ordinary content-addressed
// artifact, a claim is an advisory last-writer-wins marker next to it, and
// liveness is judged by a monotonic heartbeat stamp, never a clock.

// claimPollAttempts × ClaimPollInterval bounds how long an assembler
// waits for a peer's claimed unit before computing it locally. The wait is
// pure scheduling — which process computes a unit never changes the unit's
// bytes — so the timing cannot influence generated coefficients.
//
// Within that window, liveness is judged by the claim's heartbeat stamp: a
// computing shard refreshes its claim every heartbeatInterval, and a poller
// that sees the same stamp for claimStallBudget consecutive polls declares
// the owner dead and reclaims the unit well before the full window expires.
// The stall budget is several heartbeats wide so scheduler hiccups on the
// computing side don't trigger spurious (harmless, but wasteful) takeovers.
const (
	claimPollAttempts = 40
	ClaimPollInterval = 50 * time.Millisecond
	heartbeatInterval = ClaimPollInterval
	claimStallBudget  = 10
)

// startClaimHeartbeat refreshes shard's claim on unit with an advancing
// stamp until the returned stop function is called or ctx is canceled —
// the loop is bounded by the unit computation it shadows, and the context
// covers the path where that computation dies without reaching its stop.
// The stamp is a local monotonic sequence — never a clock reading — so
// the sealed claim bytes stay deterministic per tick.
func startClaimHeartbeat(ctx context.Context, st pipeline.Store, unit pipeline.Key, shard Shard) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		stamp := uint64(0)
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				stamp++
				RefreshClaim(st, unit, shard, stamp)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// fetchUnit obtains one work unit another shard owns: probe the store,
// and while a peer's claim stands AND its heartbeat stamp keeps advancing,
// poll within the grace window. A unit that never appears — no claim, a
// stale claim (SiteClaimStale), a dead peer whose stamp stops advancing
// for claimStallBudget polls, or a peer that stalled past the window — is
// claimed and computed locally, which at worst duplicates a peer's
// byte-identical artifact.
func fetchUnit[T any](ctx context.Context, st pipeline.Store, key pipeline.Key, shard Shard,
	faults *fault.Plan, logf pipeline.Logf, codec pipeline.Codec[T], compute func(context.Context) (T, error)) (T, error) {

	var last ClaimInfo
	haveLast, stalls, expired := false, 0, false
	for attempt := 0; !expired; attempt++ {
		if v, ok := pipeline.Probe(st, key, codec); ok {
			return v, nil
		}
		c, claimed := claimedBy(st, key, faults)
		if !claimed || c.Owner == shard.Owner() || attempt >= claimPollAttempts {
			break
		}
		if haveLast && c == last {
			stalls++
			if stalls >= claimStallBudget {
				expired = true
				if logf != nil {
					logf("%s %s: claim by %s unrefreshed for %d polls, reclaiming",
						key.Func, key.Stage, c.Owner, stalls)
				}
				continue
			}
		} else {
			last, haveLast, stalls = c, true, 0
		}
		select {
		case <-ctx.Done():
			var zero T
			return zero, fault.New(fault.CodeCanceled, key.Stage, "fetch", ctx.Err()).WithFunc(key.Func)
		case <-time.After(ClaimPollInterval):
		}
	}
	if expired {
		// The dead peer's claim stands in the store; an ordinary claim
		// would defer to it. Take it over unconditionally — claims are
		// last-writer-wins dedup, so the worst case (the peer was alive
		// after all) is one duplicated byte-identical unit.
		RefreshClaim(st, key, shard, 0)
	} else {
		claim(st, key, shard, faults)
	}
	v, _, err := pipeline.Run(ctx, st, key, codec, logf, compute)
	return v, err
}

// RunUnits computes the n work units of one distributed step and returns
// their values in index order. With a nil store it simply calls compute
// for every unit on a workers pool — no pipeline.Run, no span, no store
// event — which is the solo path. Otherwise it claims, heartbeats and
// computes (through pipeline.Run) the units shard.Owns on the pool, then
// assembles the rest in index order with fetchUnit: peers' published units
// are read back, and units no live peer is computing are computed here.
// Unit values are deterministic, so the assembled slice is identical for
// any shard split and any worker count.
func RunUnits[T any](ctx context.Context, st pipeline.Store, shard Shard, n int,
	key func(int) pipeline.Key, codec pipeline.Codec[T], compute func(context.Context, int) (T, error),
	workers int, faults *fault.Plan, logf pipeline.Logf) ([]T, error) {

	out := make([]T, n)
	if st == nil {
		err := parallel.ForEachErr(ctx, workers, n, func(i int) (err error) {
			out[i], err = compute(ctx, i)
			return err
		})
		return out, err
	}
	unit := func(i int) func(context.Context) (T, error) {
		return func(ctx context.Context) (T, error) { return compute(ctx, i) }
	}
	done := make([]bool, n)
	if err := parallel.ForEachErr(ctx, workers, n, func(i int) error {
		k := key(i)
		if !shard.Owns(i) || !claim(st, k, shard, faults) {
			return nil // a peer's unit, or one a peer took over; assembled below
		}
		stopHB := startClaimHeartbeat(ctx, st, k, shard)
		v, _, err := pipeline.Run(ctx, st, k, codec, logf, unit(i))
		stopHB()
		if err != nil {
			return err
		}
		out[i], done[i] = v, true
		return nil
	}); err != nil {
		return out, err
	}
	for i := range out {
		if done[i] {
			continue
		}
		v, err := fetchUnit(ctx, st, key(i), shard, faults, logf, codec, unit(i))
		if err != nil {
			return out, err
		}
		out[i] = v
	}
	return out, nil
}
