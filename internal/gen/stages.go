package gen

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bigmath"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/reduction"
)

// Stage names, as they appear in artifact keys and cache event logs.
const (
	StageEnumerate = "enumerate"
	StageReduce    = "reduce"
	StageSolve     = "solve"
	StageVerify    = "verify"
)

// stageKey addresses one stage artifact of fn. The enumerate and reduce
// stages key on the narrow enumFingerprint (levels + ProgressiveRO), so a
// seed or solver-budget change still reuses the expensive enumeration; the
// solve and verify stages key on the full fingerprint.
func stageKey(fn bigmath.Func, stage string, opt Options) pipeline.Key {
	fp := opt.Fingerprint()
	if stage == StageEnumerate || stage == StageReduce {
		fp = opt.enumFingerprint()
	}
	return pipeline.Key{Func: fn.String(), Stage: stage, Fingerprint: fp}
}

// VerifyKey returns the artifact key of the verify stage for fn under opt
// (defaults applied). internal/cli uses it with ResultCodec to stage the
// exhaustive verify/repair pass around internal/verify.
func VerifyKey(fn bigmath.Func, opt Options) pipeline.Key {
	opt.defaults()
	return stageKey(fn, StageVerify, opt)
}

// oracleFor returns the oracle to use for fn, validating a caller-provided
// one and arming it with the run's injection plan.
func oracleFor(fn bigmath.Func, opt Options) (*oracle.Oracle, error) {
	orc := opt.Oracle
	if orc == nil {
		orc = oracle.New(fn)
	}
	if orc.Func() != fn {
		return nil, fmt.Errorf("gen: oracle is for %v, not %v", orc.Func(), fn)
	}
	if opt.Faults != nil {
		orc.SetFaults(opt.Faults)
	}
	return orc, nil
}

// reduceStaged produces fn's merged constraint set, probing the store for
// the reduce artifact and, on a miss, for the enumerate artifact before
// falling back to the oracle-driven enumeration. A warm reduce artifact
// therefore skips the Enumerate stage entirely.
func reduceStaged(ctx context.Context, fn bigmath.Func, scheme reduction.Scheme, orc *oracle.Oracle,
	opt Options, store pipeline.Store, logf func(string, ...interface{})) (*constraintSet, error) {

	cs, _, err := pipeline.Run(ctx, store, stageKey(fn, StageReduce, opt), constraintCodec,
		pipeline.Logf(logf), func(ctx context.Context) (*constraintSet, error) {
			rs, _, err := pipeline.Run(ctx, store, stageKey(fn, StageEnumerate, opt), enumCodec,
				pipeline.Logf(logf), func(ctx context.Context) (*rawSet, error) {
					logf("%v: enumerating %d levels ...", fn, len(opt.Levels))
					rs, err := enumerate(ctx, fn, scheme, orc, opt.Levels, opt.ProgressiveRO, opt.Workers, logf)
					if err == nil {
						obs.SpanFrom(ctx).Add(obs.CtrRowsEnumerated, int64(rs.rawCount))
					}
					return rs, err
				})
			if err != nil {
				return nil, err
			}
			cs := reduce(rs, len(opt.Levels), opt.Workers)
			obs.SpanFrom(ctx).Add(obs.CtrRowsReduced, int64(cs.mergedRows()))
			return cs, nil
		})
	return cs, err
}

// EnumerateStaged is Enumerate with an artifact store: it runs (or loads)
// the Enumerate and Reduce stages and reports the system size. Tooling
// uses it to warm a cache without paying for a solve.
func EnumerateStaged(ctx context.Context, fn bigmath.Func, opt Options, store pipeline.Store) (rawConstraints, mergedRows int, err error) {
	opt.defaults()
	if err := checkLevels(opt.Levels); err != nil {
		return 0, 0, err
	}
	orc, err := oracleFor(fn, opt)
	if err != nil {
		return 0, 0, err
	}
	cs, err := reduceStaged(ctx, fn, reduction.ForFunc(fn), orc, opt, store, nopLogf(opt.Logf))
	if err != nil {
		return 0, 0, err
	}
	return cs.rawCount, cs.mergedRows(), nil
}

// GenerateStaged runs the full RLIBM-Prog pipeline for fn as explicit
// stages — Enumerate, Reduce, Solve — checkpointing each stage's artifact
// in store (nil store: everything runs in memory, exactly like Generate).
// The stages nest lazily: a warm solve artifact answers immediately; a
// cold solve probes the reduce artifact, which in turn probes the
// enumerate artifact, so an interrupted run resumes at stage granularity
// and sibling commands sharing one store enumerate each function exactly
// once. The returned result is bit-identical for every worker count and
// cache state.
func GenerateStaged(ctx context.Context, fn bigmath.Func, opt Options, store pipeline.Store) (*Result, error) {
	return GenerateStagedSharded(ctx, fn, opt, store, Shard{})
}

// GenerateStagedSharded is GenerateStaged for one process of a distributed
// run: the per-piece Clarkson solves inside the Solve stage become
// claimable work units in the shared store (see SolveShardKey and
// RunUnits), so N processes sharing one store split each
// escalation attempt's pieces and assemble the solve artifact
// bit-identically to a solo run for any partition. A solo shard (or nil
// store) is exactly GenerateStaged. Sharding is a separate parameter
// rather than an Options field because it never influences generated
// bytes — it must stay out of the options fingerprint.
func GenerateStagedSharded(ctx context.Context, fn bigmath.Func, opt Options, store pipeline.Store, shard Shard) (*Result, error) {
	opt.defaults()
	if err := checkLevels(opt.Levels); err != nil {
		return nil, err
	}
	//lint:ignore wallclock duration statistic only; the value never feeds a coefficient.
	start := time.Now()
	logf := nopLogf(opt.Logf)
	scheme := reduction.ForFunc(fn)
	orc, err := oracleFor(fn, opt)
	if err != nil {
		return nil, err
	}

	res, _, err := pipeline.Run(ctx, store, stageKey(fn, StageSolve, opt), ResultCodec,
		pipeline.Logf(logf), func(ctx context.Context) (*Result, error) {
			cs, err := reduceStaged(ctx, fn, scheme, orc, opt, store, logf)
			if err != nil {
				return nil, err
			}
			logf("%v: %s", fn, cs.describe())
			return solveAll(ctx, fn, scheme, cs, orc, opt, store, shard, logf)
		})
	if err != nil {
		return nil, err
	}

	//lint:ignore wallclock duration statistic only; the value never feeds a coefficient.
	res.Stats.Duration = time.Since(start) //lint:ignore nondetflow EmitGo renders coefficients and specials, never Stats; the object-granular taint cannot see the field split.
	res.Stats.Oracle = orc.Stats()
	logf("%v: done in %v (%d attempts, %d iters, %d lucky, %d exact solves)",
		fn, res.Stats.Duration.Round(time.Millisecond), res.Stats.Attempts,
		res.Stats.Iters, res.Stats.Lucky, res.Stats.ExactSolves)
	return res, nil
}

// nopLogf returns logf, or a no-op logger when logf is nil.
func nopLogf(logf func(string, ...interface{})) func(string, ...interface{}) {
	if logf == nil {
		return func(string, ...interface{}) {}
	}
	return logf
}
