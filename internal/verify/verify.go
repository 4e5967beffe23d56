// Package verify checks math-library implementations for correct rounding
// against the arbitrary-precision oracle, exhaustively or by sampling,
// reproducing the methodology behind Table 2 of the paper. A generated
// result is checked through the compiled eval kernels that libm and
// rlibm-serve run (Compile, ExhaustiveLevel), so a verdict speaks for the
// code users call; gen.Result.Eval is only the specification the kernels
// are tested against.
//
// The (input × rounding-mode) space of every check is sharded into
// contiguous bit-ranges and verified on a worker pool (the workers argument
// resolves through parallel.WorkerCount: 0 means one per logical CPU, 1
// runs serially). Per-shard reports are merged in deterministic shard
// order, so mismatch counts, mismatch lists and first-failure witnesses are
// bit-identical to a serial sweep for every worker count. Impl
// implementations must therefore be safe for concurrent Bits calls — the
// compiled kernels, the baselines and the oracle all are.
package verify

import (
	"fmt"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/pipeline"
)

// Impl is any math-library implementation of one elementary function that
// can answer "f(x) rounded into out under mode": the compiled kernels of a
// generated library (Compile) and the double-precision comparators of
// internal/baseline satisfy it. Bits must be safe for concurrent calls.
type Impl interface {
	// Bits returns the result bit pattern of f(x) in out under mode; x is
	// always a value of out, the format being checked.
	Bits(x float64, out fp.Format, mode fp.Mode) uint64
}

// kernels is the Impl of a generated result in one output format: one
// compiled eval kernel per rounding mode, indexed by mode.
type kernels [fp.RoundToOdd + 1]*eval.Kernel

// Bits evaluates x through the kernel of mode; out is the format the
// kernels were compiled for.
func (k *kernels) Bits(x float64, _ fp.Format, mode fp.Mode) uint64 { return k[mode].Eval(x) }

// compileModes compiles one kernel per mode with compile.
func compileModes(modes []fp.Mode, compile func(fp.Mode) (*eval.Kernel, error)) (*kernels, error) {
	var k kernels
	for _, m := range modes {
		kern, err := compile(m)
		if err != nil {
			return nil, err
		}
		k[m] = kern
	}
	return &k, nil
}

// Compile returns the Impl that evaluates res in format f the way libm and
// rlibm-serve do: eval.Compile(res, f, m) for every rounding mode, each
// serving from the level res.ServingLevel picks. Its Bits answers queries
// in f only. The error wraps eval.ErrTooWide when f is wider than res's
// largest level. The kernels snapshot res: recompile after changing it.
func Compile(res *gen.Result, f fp.Format) (Impl, error) {
	return compileModes(fp.AllModes, func(m fp.Mode) (*eval.Kernel, error) {
		return eval.Compile(res, f, m)
	})
}

// Report summarizes one exhaustive check.
type Report struct {
	Format     fp.Format
	Mode       fp.Mode
	Checked    uint64
	Mismatches []uint64 // input bit patterns (capped)
}

// Correct reports whether no mismatches were found.
func (r Report) Correct() bool { return len(r.Mismatches) == 0 }

func (r Report) String() string {
	status := "correct"
	if !r.Correct() {
		status = fmt.Sprintf("%d WRONG", len(r.Mismatches))
	}
	return fmt.Sprintf("%v %v: %d inputs, %s", r.Format, r.Mode, r.Checked, status)
}

// maxRecorded caps the mismatch list so broken implementations don't
// accumulate gigabytes.
const maxRecorded = 1 << 16

// roProxy returns the oracle's round-to-odd answer for x in ext, a format
// two bits wider than the checked one. Rounding it into the checked format
// under any standard mode gives the correctly rounded result: RLIBM-ALL's
// round-to-odd property (property-tested in fp).
func roProxy(orc *oracle.Oracle, ext fp.Format, x float64) float64 {
	return ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
}

// Want returns the correctly rounded result of the oracle's function at x
// in f under mode: the answer every check compares against.
func Want(orc *oracle.Oracle, x float64, f fp.Format, mode fp.Mode) uint64 {
	return f.FromFloat64(roProxy(orc, f.Extend(2), x), mode)
}

// check evaluates one input bit pattern against the oracle's round-to-odd
// proxy under every requested mode, recording mismatches into reports. The
// proxy is rounded into f through one precompiled fp.Rounder per mode, the
// same bits as Want's FromFloat64.
type check struct {
	f, ext  fp.Format
	modes   []fp.Mode
	rnds    []fp.Rounder
	orc     *oracle.Oracle
	got     func(x float64, m fp.Mode) uint64
	reports []Report
}

func newCheck(f fp.Format, modes []fp.Mode, orc *oracle.Oracle, got func(float64, fp.Mode) uint64) *check {
	c := &check{f: f, ext: f.Extend(2), modes: modes, orc: orc, got: got}
	c.rnds = make([]fp.Rounder, len(modes))
	c.reports = make([]Report, len(modes))
	for i, m := range modes {
		c.rnds[i] = fp.NewRounder(f, m)
		c.reports[i] = Report{Format: f, Mode: m}
	}
	return c
}

func (c *check) input(b uint64) {
	x := c.f.Decode(b)
	roVal := roProxy(c.orc, c.ext, x)
	for i, m := range c.modes {
		want := c.rnds[i].Round(roVal)
		got := c.got(x, m)
		c.reports[i].Checked++
		if got != want && len(c.reports[i].Mismatches) < maxRecorded {
			c.reports[i].Mismatches = append(c.reports[i].Mismatches, b)
		}
	}
}

// sweep shards the bit patterns of inputs[lo:hi] ranges over the pool and
// merges the per-shard reports in shard order. bits(i) maps a work index to
// the input bit pattern; n is the work-list length.
func sweep(f fp.Format, modes []fp.Mode, orc *oracle.Oracle, workers int, n uint64,
	bits func(uint64) uint64, got func(float64, fp.Mode) uint64) []Report {

	shards := parallel.SplitRange(n, parallel.ShardCount(workers))
	per := make([][]Report, len(shards))
	parallel.ForEach(workers, len(shards), func(s int) {
		c := newCheck(f, modes, orc, got)
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			c.input(bits(i))
		}
		per[s] = c.reports
	})
	// Merge in shard order: the shards partition the ascending work list,
	// so concatenating mismatch lists (capped like the serial sweep)
	// reproduces the serial reports exactly.
	return MergeReports(f, modes, per)
}

// MergeReports merges per-slice report sets produced over an ascending
// partition of one work list — the same merge sweep applies to its
// worker-pool shards, exported for the distributed assembler in
// internal/cli. Each element of per holds one Report per mode, in mode
// order. Because the slices partition the ascending input space and the
// mismatch cap is applied in slice order, the merged reports are
// bit-identical to a serial sweep for any partition.
func MergeReports(f fp.Format, modes []fp.Mode, per [][]Report) []Report {
	merged := make([]Report, len(modes))
	for i, m := range modes {
		merged[i] = Report{Format: f, Mode: m}
	}
	for _, reps := range per {
		for i := range merged {
			merged[i].Checked += reps[i].Checked
			room := maxRecorded - len(merged[i].Mismatches)
			if room > len(reps[i].Mismatches) {
				room = len(reps[i].Mismatches)
			}
			merged[i].Mismatches = append(merged[i].Mismatches, reps[i].Mismatches[:room]...)
		}
	}
	return merged
}

// ReportsCodec is the sealed form of one work unit's per-mode reports —
// the shape of every distributed verification unit — under the codec
// identity (name, version) of the unit kind, so units of different kinds
// share one wire shape yet can never alias.
func ReportsCodec(name string, version uint32) pipeline.Codec[[]Report] {
	return pipeline.Codec[[]Report]{
		Name:    name,
		Version: version,
		Encode: func(e *pipeline.Enc, reps []Report) {
			e.Int(len(reps))
			for _, r := range reps {
				e.Int(r.Format.Bits())
				e.Int(r.Format.ExpBits())
				e.Int(int(r.Mode))
				e.U64(r.Checked)
				e.Int(len(r.Mismatches))
				for _, b := range r.Mismatches {
					e.U64(b)
				}
			}
		},
		Decode: func(d *pipeline.Dec) ([]Report, error) {
			n := d.Len()
			reps := make([]Report, 0, n)
			for i := 0; i < n; i++ {
				bits, expBits := d.Int(), d.Int()
				mode := fp.Mode(d.Int())
				checked := d.U64()
				var mm []uint64
				for m := d.Len(); m > 0; m-- {
					mm = append(mm, d.U64())
				}
				if d.Err() != nil {
					return nil, d.Err()
				}
				f, err := fp.NewFormat(bits, expBits)
				if err != nil {
					return nil, fmt.Errorf("%w: report %d: %v", pipeline.ErrCorrupt, i, err)
				}
				if mode < fp.RoundNearestEven || mode > fp.RoundToOdd {
					return nil, fmt.Errorf("%w: report %d: invalid mode %d", pipeline.ErrCorrupt, i, mode)
				}
				reps = append(reps, Report{Format: f, Mode: mode, Checked: checked, Mismatches: mm})
			}
			return reps, nil
		},
	}
}

// Exhaustive checks impl against the oracle over every input of format f
// under mode, sharded over up to workers goroutines. The oracle derives
// every standard mode from one round-to-odd result at f+2 bits (the
// RLibm-All theorem, property-tested in fp), so a multi-mode sweep costs a
// single oracle pass.
func Exhaustive(impl Impl, orc *oracle.Oracle, f fp.Format, modes []fp.Mode, workers int) []Report {
	return sweep(f, modes, orc, workers, f.NumValues(),
		func(i uint64) uint64 { return i },
		func(x float64, m fp.Mode) uint64 { return impl.Bits(x, f, m) })
}

// Sampled checks impl against the oracle on n random inputs of format f
// plus a structured corpus (specials, boundaries, values near 1), under
// each mode. Used where exhaustive enumeration is too slow (the largest
// format in quick runs). The input list is drawn serially from the seed —
// so the checked set does not depend on workers — and then verified on the
// pool.
func Sampled(impl Impl, orc *oracle.Oracle, f fp.Format, modes []fp.Mode, n int, seed int64, workers int) []Report {
	rng := rand.New(rand.NewSource(seed))
	inputs := []uint64{
		f.Zero(false), f.Zero(true), f.Inf(false), f.Inf(true), f.NaN(),
		f.MinSubnormal(), f.MaxFinite(), f.FromFloat64(1, fp.RoundNearestEven),
		f.FromFloat64(-1, fp.RoundNearestEven), f.NextUp(f.FromFloat64(1, fp.RoundNearestEven)),
		f.NextDown(f.FromFloat64(1, fp.RoundNearestEven)),
	}
	for i := 0; i < n; i++ {
		inputs = append(inputs, uint64(rng.Int63())&(f.NumValues()-1))
	}
	return sweep(f, modes, orc, workers, uint64(len(inputs)),
		func(i uint64) uint64 { return inputs[i] },
		func(x float64, m fp.Mode) uint64 { return impl.Bits(x, f, m) })
}

// repairBudget bounds how many mismatched inputs Repair may patch per
// level before declaring the implementation broken.
const repairBudget = 64

// LevelSweep checks every input of level li of the result being repaired
// under modes, in sweep-and-patch pass pass (0 or 1), and returns one
// Report per mode. RepairWith calls it with the patches of every earlier
// sweep already applied.
type LevelSweep func(li, pass int, modes []fp.Mode) ([]Report, error)

// Repair exhaustively verifies each level of a generated result and
// patches mismatching inputs into the level's special-input table (with
// the all-modes round-to-odd proxy). The smaller levels are verified under
// round-to-nearest (the paper's progressive guarantee); the largest level
// under all five standard modes. It returns the number of patches applied
// and an error when a level exceeds the budget — which indicates a
// generation bug rather than the handful of expected stragglers. The
// verification sweeps run on up to workers goroutines; patching is serial
// and in mismatch order, so the repaired result is worker-count-
// independent.
func Repair(res *gen.Result, orc *oracle.Oracle, workers int) (int, error) {
	return RepairWith(res, orc, func(li, _ int, modes []fp.Mode) ([]Report, error) {
		return ExhaustiveLevel(res, orc, li, modes, workers)
	})
}

// RepairWith is Repair with the per-(level, pass) sweep supplied by the
// caller — the distributed verifier in internal/cli runs each sweep as
// store-mediated work units. Any sweep whose reports equal ExhaustiveLevel's
// yields the identical patch set.
func RepairWith(res *gen.Result, orc *oracle.Oracle, sweep LevelSweep) (int, error) {
	patched := 0
	for li, lvl := range res.Levels {
		modes := []fp.Mode{fp.RoundNearestEven}
		if li == len(res.Levels)-1 || res.ProgressiveRO {
			modes = fp.StandardModes
		}
		ext := lvl.Extend(2)
		for pass := 0; pass < 2; pass++ {
			reps, err := sweep(li, pass, modes)
			if err != nil {
				return patched, err
			}
			total := 0
			for _, rep := range reps {
				total += len(rep.Mismatches)
				for _, b := range rep.Mismatches {
					x := lvl.Decode(b)
					res.AddSpecial(li, x, roProxy(orc, ext, x))
					patched++
				}
			}
			if total == 0 {
				break
			}
			if total > repairBudget {
				return patched, fmt.Errorf("verify: level %v has %d mismatches (budget %d)",
					lvl, total, repairBudget)
			}
		}
	}
	return patched, nil
}

// ExhaustiveLevel verifies one level of a generated result: every input of
// the level's format, evaluated through kernels compiled at that level's
// term counts and special table, sharded over up to workers goroutines.
func ExhaustiveLevel(res *gen.Result, orc *oracle.Oracle, li int, modes []fp.Mode, workers int) ([]Report, error) {
	lvl := res.Levels[li]
	return ExhaustiveLevelRange(res, orc, li, modes, workers, 0, lvl.NumValues())
}

// ExhaustiveLevelRange verifies the contiguous input slice [lo, hi) of one
// level of a generated result — the work unit of distributed verification:
// a full level sweep is the shard-order concatenation of its slice sweeps,
// so per-slice reports merged in ascending slice order are bit-identical
// to ExhaustiveLevel's (the same merge the worker pool already performs
// within one process). The kernels (eval.CompileAt) are compiled on every
// call, so a sweep always sees the result's current specials and
// coefficients — RepairWith patches specials between passes.
func ExhaustiveLevelRange(res *gen.Result, orc *oracle.Oracle, li int, modes []fp.Mode, workers int, lo, hi uint64) ([]Report, error) {
	lvl := res.Levels[li]
	k, err := compileModes(modes, func(m fp.Mode) (*eval.Kernel, error) {
		return eval.CompileAt(res, li, lvl, m)
	})
	if err != nil {
		return nil, err
	}
	if hi > lvl.NumValues() {
		hi = lvl.NumValues()
	}
	if lo > hi {
		lo = hi
	}
	return sweep(lvl, modes, orc, workers, hi-lo,
		func(i uint64) uint64 { return lo + i },
		func(x float64, m fp.Mode) uint64 { return k.Bits(x, lvl, m) }), nil
}
