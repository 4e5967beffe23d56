package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/verify"
)

// One campaign worker: the per-peer loop that walks the manifest, runs
// the sharded generate+verify pipeline for each function, then deals the
// format-sweep units round-robin across the peer set with the shared
// claim/heartbeat protocol. Everything a worker publishes is a
// deterministic artifact, so any subset of peers — including a subset
// that shrinks mid-run when a peer dies — assembles the identical unit
// results; the claims only prevent duplicate work.

// UnitResult is one worker's record of one manifest unit. It is the
// aggregation input for the campaign report: durations and the Computed
// flag are peer-local observations (volatile, never sealed), while
// Checked/Mismatches/Patched decode from the deterministic unit
// artifacts and are identical no matter which peer reports them.
type UnitResult struct {
	Func       string `json:"func"`
	FormatBits int    `json:"format_bits"` // 0 = generate+verify unit
	Checked    uint64 `json:"checked"`
	Mismatches int    `json:"mismatches"`
	Patched    int    `json:"patched"`
	Computed   bool   `json:"computed"` // this peer computed it (vs fetched a peer's artifact)
	DurMS      int64  `json:"dur_ms"`
}

// PeerReport is one worker's full campaign record: every unit it
// observed, plus peer-local throughput totals.
type PeerReport struct {
	Shard         string       `json:"shard"`
	Units         []UnitResult `json:"units"`
	InputsChecked uint64       `json:"inputs_checked"` // over units this peer computed
	UnitsComputed int          `json:"units_computed"`
	Mismatches    int          `json:"mismatches"`
	Patched       int          `json:"patched"`
	DurMS         int64        `json:"dur_ms"`
}

// sweepCodec seals one format-sweep unit's per-mode reports. It shares
// the verify-shard wire shape but has its own name/version identity, so
// sweep and verify artifacts can never alias.
var sweepCodec = verify.ReportsCodec("campaign-sweep", 1)

// WorkerConfig parameterizes one peer's campaign run.
type WorkerConfig struct {
	Plan  Plan
	Shard gen.Shard
	// Store is the peer's connection to the (usually shared) artifact
	// store. With a RemoteStore the event log — which the Computed flag is
	// derived from — is peer-local; goroutine peers sharing one in-memory
	// Store instance share one log, which only blurs the volatile
	// Computed/InputsChecked attribution, never the sealed unit bytes.
	Store pipeline.Store
	Logf  pipeline.Logf
	// OnUnit, when non-nil, observes every finished unit in manifest
	// order, as each function's units finish — the subprocess worker
	// streams these as JSON lines so the monitor has a liveness signal
	// between functions.
	OnUnit func(UnitResult)
}

// RunWorker executes one peer's share of the campaign and returns its
// report. The walk is deterministic — manifest order — so every peer
// agrees on unit indices, which is what the round-robin deal keys off.
// Durations come from the wall clock and stay out of every sealed
// artifact (the nondetflow contract): they only ever land in the plain
// JSON peer report.
func RunWorker(ctx context.Context, cfg WorkerConfig) (*PeerReport, error) {
	p := cfg.Plan.normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if _, _, err := EnsureManifest(ctx, cfg.Store, p, cfg.Logf); err != nil {
		return nil, err
	}
	rep := &PeerReport{Shard: cfg.Shard.String()}
	start := time.Now()
	formats := p.Formats()
	for _, fn := range p.Funcs {
		fnOpt := p.Options()
		if cfg.Logf != nil {
			name := fn.String()
			fnOpt.Logf = func(format string, args ...interface{}) {
				cfg.Logf("["+name+"] "+format, args...)
			}
		}
		orc := oracle.New(fn)
		fnOpt.Oracle = orc

		// Unit 1: the sharded generate+verify pipeline. Warm when a prior
		// run (or a peer racing ahead) already sealed the verify artifact.
		genStart := time.Now()
		preMiss := countColdVerify(cfg.Store, fn)
		res, patched, err := cli.GenerateVerifiedSharded(ctx, fn, fnOpt, cfg.Store, cfg.Shard)
		if err != nil {
			return rep, fmt.Errorf("campaign: %v: %w", fn, err)
		}
		record(rep, cfg, UnitResult{
			Func:     fn.String(),
			Patched:  patched,
			Computed: cfg.Store == nil || countColdVerify(cfg.Store, fn) > preMiss,
			DurMS:    time.Since(genStart).Milliseconds(),
		})

		// Units 2..: the progressive sweep, one claimable unit per format,
		// dealt round-robin so any peer-count split covers the list, each
		// checking the format's serving kernels. The store is passed even
		// for a solo peer, so a warm rerun decodes every sealed sweep
		// instead of recomputing it.
		sweeps := make([]UnitResult, len(formats))
		reps, err := gen.RunUnits(ctx, cfg.Store, cfg.Shard, len(formats),
			func(i int) pipeline.Key { return SweepKey(fn, fnOpt, formats[i].Bits()) },
			sweepCodec,
			func(_ context.Context, i int) ([]verify.Report, error) {
				swStart := time.Now()
				impl, err := verify.Compile(res, formats[i])
				if err != nil {
					return nil, err
				}
				r := verify.Exhaustive(impl, orc, formats[i], fp.StandardModes, p.Workers)
				sweeps[i] = UnitResult{Computed: true, DurMS: time.Since(swStart).Milliseconds()}
				return r, nil
			}, 1, nil, cfg.Logf)
		if err != nil {
			return rep, fmt.Errorf("campaign: %v sweep: %w", fn, err)
		}
		for i, f := range formats {
			ur := sweeps[i]
			ur.Func, ur.FormatBits = fn.String(), f.Bits()
			for _, r := range reps[i] {
				ur.Checked += r.Checked
				ur.Mismatches += len(r.Mismatches)
			}
			record(rep, cfg, ur)
		}
	}
	rep.DurMS = time.Since(start).Milliseconds()
	return rep, nil
}

// countColdVerify counts this peer's cold (miss) probes of fn's verify
// stage; the delta across one GenerateVerifiedSharded call distinguishes
// "this peer ran the pipeline" from "decoded a sealed verify artifact".
func countColdVerify(st pipeline.Store, fn bigmath.Func) int {
	if st == nil {
		return 0
	}
	n := 0
	for _, ev := range st.Events() {
		if ev.Key.Func == fn.String() && ev.Key.Stage == gen.StageVerify && !ev.Hit {
			n++
		}
	}
	return n
}

// record folds a unit result into the peer report and streams it.
func record(rep *PeerReport, cfg WorkerConfig, ur UnitResult) {
	rep.Units = append(rep.Units, ur)
	rep.Mismatches += ur.Mismatches
	rep.Patched += ur.Patched
	if ur.Computed {
		rep.UnitsComputed++
		rep.InputsChecked += ur.Checked
	}
	if cfg.OnUnit != nil {
		cfg.OnUnit(ur)
	}
}
