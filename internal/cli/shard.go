package cli

import (
	"context"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/verify"
)

// Distributed verification. The exhaustive Verify/Repair sweeps dominate a
// cold run, so they were the first workload split across processes: each
// (level, pass) sweep of verify.RepairWith is partitioned into shard.N
// contiguous input slices, each slice a content-addressed work unit
// (gen.VerifyShardKey) in the shared store, and run through gen.RunUnits —
// every process computes the slices it owns (publishing a claim first),
// assembles the rest, polling briefly for slices a live peer has claimed
// and computing them locally otherwise, and merges the per-slice reports in
// ascending slice order. verify.MergeReports makes that merge
// bit-identical to a solo sweep for any partition, and
// gen.Result.AddSpecial keeps each level's special table sorted, so the
// patch set — and therefore every emitted coefficient — is bit-identical
// to a single-process run no matter which process computed which slice.

// shardReportCodec encodes one verification work unit's per-mode reports.
var shardReportCodec = verify.ReportsCodec("verify-shard", 1)

// repairSharded is verify.Repair with each (level, pass) sweep run as
// shard.N store-mediated work units. A solo shard or nil store sweeps
// in-process, exactly like verify.Repair.
//
// Pass 1 of a level depends on the patches of pass 0: every process
// assembles all pass-0 units and applies the identical (merged, mode-major,
// input-ascending) patch set before sweeping pass 1, so the Result each
// process sweeps against is bit-identical — which is what makes duplicate
// unit computation harmless.
func repairSharded(ctx context.Context, st pipeline.Store, fn bigmath.Func, opt gen.Options,
	shard gen.Shard, res *gen.Result, orc *oracle.Oracle) (int, error) {

	if shard.Solo() {
		st = nil
	}
	return verify.RepairWith(res, orc, func(li, pass int, modes []fp.Mode) ([]verify.Report, error) {
		lvl := res.Levels[li]
		units := parallel.SplitRange(lvl.NumValues(), shard.N)
		// One unit at a time: each slice already sweeps on the pool.
		per, err := gen.RunUnits(ctx, st, shard, len(units),
			func(j int) pipeline.Key { return gen.VerifyShardKey(fn, opt, li, pass, j, len(units)) },
			shardReportCodec,
			func(_ context.Context, j int) ([]verify.Report, error) {
				return verify.ExhaustiveLevelRange(res, orc, li, modes, opt.Workers, units[j].Lo, units[j].Hi)
			}, 1, opt.Faults, pipeline.Logf(opt.Logf))
		if err != nil {
			return nil, err
		}
		return verify.MergeReports(lvl, modes, per), nil
	})
}
