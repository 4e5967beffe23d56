package gen

import (
	"fmt"
	"sort"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/pipeline"
)

// This file defines the on-disk codecs of the three generator artifacts:
// the raw rounding-interval set (Enumerate), the merged constraint set
// (Reduce) and the generated result (Solve/Verify). All three use the
// deterministic pipeline encoding — fixed-width little-endian, float64 as
// IEEE bits — so equal values encode to equal bytes and a warm cache is
// byte-identical to the cold run that filled it. Bump a codec's Version
// whenever its layout or the semantics of the stage feeding it change;
// the content address changes with it and stale artifacts are orphaned,
// never misread.

// encodeLevels/decodeLevels encode a level list as (bits, expBits) pairs.
func encodeLevels(e *pipeline.Enc, levels []fp.Format) {
	e.Int(len(levels))
	for _, l := range levels {
		e.Int(l.Bits())
		e.Int(l.ExpBits())
	}
}

func decodeLevels(d *pipeline.Dec) ([]fp.Format, error) {
	n := d.Len()
	levels := make([]fp.Format, 0, n)
	for i := 0; i < n; i++ {
		bits, expBits := d.Int(), d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		f, err := fp.NewFormat(bits, expBits)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", pipeline.ErrCorrupt, i, err)
		}
		levels = append(levels, f)
	}
	return levels, nil
}

// enumCodec encodes the Enumerate-stage artifact (rawSet).
var enumCodec = pipeline.Codec[*rawSet]{
	Name:    "gen-intervals",
	Version: 1,
	Encode: func(e *pipeline.Enc, rs *rawSet) {
		e.Grow(rs.encodedSize())
		e.Int(len(rs.raw))
		if len(rs.raw) > 0 {
			e.Int(len(rs.raw[0]))
		} else {
			e.Int(0)
		}
		e.Int(rs.rawCount)
		for _, perLevel := range rs.raw {
			for _, raw := range perLevel {
				e.Int(len(raw))
				for _, rc := range raw {
					e.F64(rc.r)
					e.F64(rc.lo)
					e.F64(rc.hi)
					e.U64(rc.xbits)
				}
			}
		}
		e.Int(len(rs.specials))
		for _, sp := range rs.specials {
			e.Int(len(sp))
			for _, b := range sp {
				e.U64(b)
			}
		}
	},
	Decode: func(d *pipeline.Dec) (*rawSet, error) {
		nk, nLevels := d.Int(), d.Int()
		rs := &rawSet{rawCount: d.Int()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if nk < 0 || nLevels < 0 {
			return nil, fmt.Errorf("%w: negative shape %d×%d", pipeline.ErrCorrupt, nk, nLevels)
		}
		rs.raw = make([][][]rawConstraint, nk)
		for p := range rs.raw {
			rs.raw[p] = make([][]rawConstraint, nLevels)
			for li := range rs.raw[p] {
				n := d.Len()
				raw := make([]rawConstraint, 0, n)
				for i := 0; i < n; i++ {
					raw = append(raw, rawConstraint{
						r: d.F64(), lo: d.F64(), hi: d.F64(), xbits: d.U64(),
					})
				}
				rs.raw[p][li] = raw
			}
		}
		nSp := d.Len()
		rs.specials = make([][]uint64, nSp)
		for li := range rs.specials {
			n := d.Len()
			sp := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				sp = append(sp, d.U64())
			}
			rs.specials[li] = sp
		}
		return rs, d.Err()
	},
}

// encodedSize is the exact length of rs's enumCodec payload: four header
// words, then a length word per level list and four words per row, then a
// length word per special set and one word per input.
func (rs *rawSet) encodedSize() int {
	size := 4 * 8
	for _, perLevel := range rs.raw {
		for _, raw := range perLevel {
			size += 8 + 4*8*len(raw)
		}
	}
	for _, sp := range rs.specials {
		size += 8 + 8*len(sp)
	}
	return size
}

// constraintCodec encodes the Reduce-stage artifact (constraintSet).
var constraintCodec = pipeline.Codec[*constraintSet]{
	Name:    "gen-constraints",
	Version: 1,
	Encode: func(e *pipeline.Enc, cs *constraintSet) {
		e.Grow(cs.encodedSize())
		e.Int(len(cs.perKernel))
		if len(cs.perKernel) > 0 {
			e.Int(len(cs.perKernel[0]))
		} else {
			e.Int(0)
		}
		e.Int(cs.rawCount)
		for _, perLevel := range cs.perKernel {
			for _, lc := range perLevel {
				e.Int(len(lc.merged))
				for mi, m := range lc.merged {
					e.F64(m.r)
					e.F64(m.lo)
					e.F64(m.hi)
					e.Int(int(m.inputs))
					e.Int(len(lc.rowInputs[mi]))
					for _, b := range lc.rowInputs[mi] {
						e.U64(b)
					}
				}
			}
		}
		e.Int(len(cs.specials))
		for _, set := range cs.specials {
			keys := make([]uint64, 0, len(set))
			for b := range set {
				//lint:ignore mapiter keys are fully sorted below before encoding, erasing map order.
				keys = append(keys, b)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			e.Int(len(keys))
			for _, b := range keys {
				e.U64(b)
			}
		}
	},
	Decode: func(d *pipeline.Dec) (*constraintSet, error) {
		nk, nLevels := d.Int(), d.Int()
		cs := &constraintSet{rawCount: d.Int()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if nk < 0 || nLevels < 0 {
			return nil, fmt.Errorf("%w: negative shape %d×%d", pipeline.ErrCorrupt, nk, nLevels)
		}
		cs.perKernel = make([][]levelConstraints, nk)
		for p := range cs.perKernel {
			cs.perKernel[p] = make([]levelConstraints, nLevels)
			for li := range cs.perKernel[p] {
				lc := &cs.perKernel[p][li]
				n := d.Len()
				lc.merged = make([]mergedRow, 0, n)
				lc.rowInputs = make([][]uint64, 0, n)
				for i := 0; i < n; i++ {
					m := mergedRow{r: d.F64(), lo: d.F64(), hi: d.F64(), inputs: int32(d.Int())}
					ni := d.Len()
					in := make([]uint64, 0, ni)
					for j := 0; j < ni; j++ {
						in = append(in, d.U64())
					}
					lc.merged = append(lc.merged, m)
					lc.rowInputs = append(lc.rowInputs, in)
				}
			}
		}
		nSp := d.Len()
		cs.specials = make([]map[uint64]struct{}, nSp)
		for li := range cs.specials {
			n := d.Len()
			set := make(map[uint64]struct{}, n)
			for i := 0; i < n; i++ {
				set[d.U64()] = struct{}{}
			}
			cs.specials[li] = set
		}
		return cs, d.Err()
	},
}

// encodedSize is the exact length of cs's constraintCodec payload: four
// header words, then a length word per level and five words plus one per
// input for each merged row, then a length word per special set and one
// word per input.
func (cs *constraintSet) encodedSize() int {
	size := 4 * 8
	for _, perLevel := range cs.perKernel {
		for _, lc := range perLevel {
			size += 8
			for mi := range lc.merged {
				size += 5*8 + 8*len(lc.rowInputs[mi])
			}
		}
	}
	for _, set := range cs.specials {
		size += 8 + 8*len(set)
	}
	return size
}

// ResultCodec encodes a generated Result for the solve and verify stage
// artifacts. The volatile Stats fields — Duration (wall clock), Oracle
// (path counters that depend on cache warmth) and Retries (injected-fault
// replays) — are deliberately excluded: everything encoded is
// deterministic, so a warm decode is bit-identical to the cold result.
// Version 2 added the rescue-ladder consumption counters (SeedRotations,
// BudgetEscalations, Degradations). Exported for internal/cli, which
// stages the verify pass around internal/verify (gen cannot import
// verify).
var ResultCodec = pipeline.Codec[*Result]{
	Name:    "gen-result",
	Version: 2,
	Encode: func(e *pipeline.Enc, res *Result) {
		e.Int(int(res.Fn))
		encodeLevels(e, res.Levels)
		e.Bool(res.ProgressiveRO)
		e.Int(len(res.Kernels))
		for _, kp := range res.Kernels {
			e.Int(kp.Structure.Offset)
			e.Int(kp.Structure.Stride)
			e.Int(len(kp.Pieces))
			for _, pc := range kp.Pieces {
				e.F64(pc.Lo)
				e.F64(pc.Hi)
				e.Int(len(pc.Coeffs))
				for _, c := range pc.Coeffs {
					e.F64(c)
				}
				e.Int(len(pc.LevelTerms))
				for _, t := range pc.LevelTerms {
					e.Int(t)
				}
			}
		}
		e.Int(len(res.Specials))
		for _, sp := range res.Specials {
			e.Int(len(sp))
			for _, s := range sp {
				e.F64(s.X)
				e.F64(s.Proxy)
			}
		}
		e.Int(res.Stats.RawConstraints)
		e.Int(res.Stats.MergedRows)
		e.Int(res.Stats.Iters)
		e.Int(res.Stats.Lucky)
		e.Int(res.Stats.ExactSolves)
		e.Int(res.Stats.Attempts)
		e.Int(res.Stats.SeedRotations)
		e.Int(res.Stats.BudgetEscalations)
		e.Int(res.Stats.Degradations)
	},
	Decode: func(d *pipeline.Dec) (*Result, error) {
		res := &Result{Fn: bigmath.Func(d.Int())}
		if d.Err() == nil && (res.Fn < 0 || res.Fn >= bigmath.NumFuncs) {
			return nil, fmt.Errorf("%w: unknown function id %d", pipeline.ErrCorrupt, int(res.Fn))
		}
		levels, err := decodeLevels(d)
		if err != nil {
			return nil, err
		}
		res.Levels = levels
		res.ProgressiveRO = d.Bool()
		nKernels := d.Len()
		for k := 0; k < nKernels; k++ {
			var kp KernelPoly
			kp.Structure.Offset = d.Int()
			kp.Structure.Stride = d.Int()
			nPieces := d.Len()
			for p := 0; p < nPieces; p++ {
				pc := Piece{Lo: d.F64(), Hi: d.F64()}
				nc := d.Len()
				pc.Coeffs = make([]float64, 0, nc)
				for i := 0; i < nc; i++ {
					pc.Coeffs = append(pc.Coeffs, d.F64())
				}
				nt := d.Len()
				pc.LevelTerms = make([]int, 0, nt)
				for i := 0; i < nt; i++ {
					pc.LevelTerms = append(pc.LevelTerms, d.Int())
				}
				kp.Pieces = append(kp.Pieces, pc)
			}
			res.Kernels = append(res.Kernels, kp)
		}
		nSp := d.Len()
		res.Specials = make([][]SpecialInput, nSp)
		for li := range res.Specials {
			n := d.Len()
			sp := make([]SpecialInput, 0, n)
			for i := 0; i < n; i++ {
				sp = append(sp, SpecialInput{X: d.F64(), Proxy: d.F64()})
			}
			res.Specials[li] = sp
		}
		res.Stats.RawConstraints = d.Int()
		res.Stats.MergedRows = d.Int()
		res.Stats.Iters = d.Int()
		res.Stats.Lucky = d.Int()
		res.Stats.ExactSolves = d.Int()
		res.Stats.Attempts = d.Int()
		res.Stats.SeedRotations = d.Int()
		res.Stats.BudgetEscalations = d.Int()
		res.Stats.Degradations = d.Int()
		return res, d.Err()
	},
}
