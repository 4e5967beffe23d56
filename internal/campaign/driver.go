package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/pipeline"
)

// The campaign driver: launches N peers against one shared store,
// monitors them, restarts the ones that die, and aggregates their peer
// reports into the campaign report and BENCH_campaign.json. Peers are
// expendable by design — every unit is a deterministic artifact and the
// claim protocol reassigns stalled units — so the driver's failure model
// is simply "rerun the dead peer's worker loop; it skips everything that
// already sealed and computes the rest". What a peer is — a goroutine, a
// subprocess — is the caller's RunPeer; the pin, fan-out, restart and
// aggregation are the driver's alone.
//
// Both reports are plain JSON files, never store artifacts: they carry
// wall-clock durations and per-peer throughput, which are volatile
// observations the nondetflow contract keeps out of sealed frames.

// Config parameterizes a driver run.
type Config struct {
	Plan  Plan
	Peers int
	// Store is the shared store the manifest is pinned in before the
	// fan-out (nil: caching disabled, the manifest is built but not
	// sealed). The driver never closes it.
	Store pipeline.Store
	// RunPeer runs one incarnation of peer slot peer over its shard and
	// returns the worker's report. It must reach the same store as Store:
	// RunWorker on a connection of its own, or a worker process pointed at
	// the same store URL.
	RunPeer func(ctx context.Context, peer int, shard gen.Shard) (*PeerReport, error)
	// MaxRestarts bounds how many times each peer is relaunched after an
	// error (0: die on first failure). Context cancellation of the whole
	// run is never retried.
	MaxRestarts int
	Logf        pipeline.Logf
}

// PeerRun is one peer's lifecycle summary: its final report (from the
// last incarnation) and how many times the driver had to restart it.
type PeerRun struct {
	Peer          int    `json:"peer"`
	Shard         string `json:"shard"`
	Restarts      int    `json:"restarts"`
	InputsChecked uint64 `json:"inputs_checked"`
	UnitsComputed int    `json:"units_computed"`
	DurMS         int64  `json:"dur_ms"`
	// InputsPerSec is the peer's computed-inputs throughput over its
	// final incarnation's wall clock.
	InputsPerSec float64 `json:"inputs_per_sec"`
	// Err records the terminal error of a peer that exhausted its
	// restarts; empty for a peer that finished.
	Err string `json:"err,omitempty"`
}

// Report is the aggregated campaign outcome. Checked/Mismatches/Patched
// are unit-level facts deduplicated across peers (every peer observes
// every unit; the values decode from deterministic artifacts, so any
// peer's observation of a unit is authoritative); the peer table holds
// the volatile throughput split.
type Report struct {
	Schema        int       `json:"schema"`
	Funcs         []string  `json:"funcs"`
	Bits          int       `json:"bits"`
	MinBits       int       `json:"min_bits"`
	Modes         int       `json:"modes"`
	ProgressiveRO bool      `json:"progressive_ro"`
	Seed          int64     `json:"seed"`
	Fingerprint   string    `json:"fingerprint"`
	Resumed       bool      `json:"resumed"`
	Units         int       `json:"units"`
	InputsChecked uint64    `json:"inputs_checked"`
	Mismatches    int       `json:"mismatches"`
	Patched       int       `json:"patched"`
	WallClockMS   int64     `json:"wall_clock_ms"`
	Peers         []PeerRun `json:"peers"`
}

// Correct reports whether the sweep found zero mismatches — the paper's
// headline claim for the swept function/format/mode cube.
func (r *Report) Correct() bool { return r.Mismatches == 0 }

// Run drives a full campaign: Peers slots, each running RunPeer over
// shard k/Peers. It returns the aggregated report; a peer that exhausts
// MaxRestarts is recorded in the report (Err set) without sinking the
// campaign, as long as at least one peer finishes — the survivors compute
// the dead peer's units through the claim-stall reclaim path. Run fails
// only when every peer fails or the run context is canceled.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	p := cfg.Plan.normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Peers < 1 {
		cfg.Peers = 1
	}
	if cfg.RunPeer == nil {
		return nil, fmt.Errorf("campaign: Config.RunPeer is nil")
	}

	// Pin the manifest once before the fan-out, and learn whether this is
	// a resume.
	_, resumed, err := EnsureManifest(ctx, cfg.Store, p, cfg.Logf)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	runs := make([]PeerRun, cfg.Peers)
	reports := make([]*PeerReport, cfg.Peers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Peers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], runs[i] = runPeer(ctx, cfg, i)
		}()
	}
	wg.Wait()

	rep := aggregate(p, resumed, reports, runs)
	rep.WallClockMS = time.Since(start).Milliseconds()
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	for _, pr := range runs {
		if pr.Err == "" {
			return rep, nil
		}
	}
	return rep, fmt.Errorf("campaign: all %d peers failed; first: %s", cfg.Peers, runs[0].Err)
}

// runPeer runs one peer slot to completion, restarting it up to
// cfg.MaxRestarts times.
func runPeer(ctx context.Context, cfg Config, peer int) (*PeerReport, PeerRun) {
	shard := gen.Shard{K: peer, N: cfg.Peers}
	pr := PeerRun{Peer: peer, Shard: shard.String()}
	for attempt := 0; ; attempt++ {
		rep, err := cfg.RunPeer(ctx, peer, shard)
		if err == nil {
			pr.InputsChecked = rep.InputsChecked
			pr.UnitsComputed = rep.UnitsComputed
			pr.DurMS = rep.DurMS
			if rep.DurMS > 0 {
				pr.InputsPerSec = float64(rep.InputsChecked) / (float64(rep.DurMS) / 1000)
			}
			return rep, pr
		}
		if ctx.Err() != nil || attempt >= cfg.MaxRestarts {
			pr.Err = err.Error()
			return nil, pr
		}
		pr.Restarts++
		if cfg.Logf != nil {
			cfg.Logf("campaign: peer %d died (%v); restart %d/%d", peer, err, pr.Restarts, cfg.MaxRestarts)
		}
	}
}

// aggregate merges the surviving peer reports. Unit facts are
// deduplicated by (func, format) — artifacts are deterministic, so the
// first observation of each unit is as good as any — while throughput
// stays per-peer.
func aggregate(p Plan, resumed bool, reports []*PeerReport, runs []PeerRun) *Report {
	rep := &Report{
		Schema:        1,
		Bits:          p.Bits,
		MinBits:       p.MinBits,
		Modes:         5,
		ProgressiveRO: p.ProgressiveRO,
		Seed:          p.Seed,
		Fingerprint:   p.Fingerprint(),
		Resumed:       resumed,
		Peers:         runs,
	}
	for _, fn := range p.Funcs {
		rep.Funcs = append(rep.Funcs, fn.String())
	}
	seen := map[string]bool{}
	for _, prep := range reports {
		if prep == nil {
			continue
		}
		for _, u := range prep.Units {
			id := fmt.Sprintf("%s/%d", u.Func, u.FormatBits)
			if seen[id] {
				continue
			}
			seen[id] = true
			rep.Units++
			rep.InputsChecked += u.Checked
			rep.Mismatches += u.Mismatches
			rep.Patched += u.Patched
		}
	}
	return rep
}

// WriteFile writes the campaign report as indented JSON.
func (r *Report) WriteFile(path string) error {
	return writeJSON(path, r)
}

// Bench is the BENCH_campaign.json shape, following the repo's bench-file
// convention: a benchmark identity block plus the measured numbers.
type Bench struct {
	Benchmark string  `json:"benchmark"`
	Command   string  `json:"command"`
	Config    any     `json:"config"`
	Result    *Report `json:"result"` // includes the per-peer throughput table
}

// WriteBench writes BENCH_campaign.json for a finished campaign.
func WriteBench(path, command string, rep *Report) error {
	b := Bench{
		Benchmark: "distributed campaign: sharded generate+verify plus the progressive format sweep, per-peer throughput over a shared store",
		Command:   command,
		Config: map[string]any{
			"funcs":          rep.Funcs,
			"bits":           rep.Bits,
			"min_bits":       rep.MinBits,
			"modes":          rep.Modes,
			"progressive_ro": rep.ProgressiveRO,
			"seed":           rep.Seed,
			"peers":          len(rep.Peers),
		},
		Result: rep,
	}
	return writeJSON(path, b)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
