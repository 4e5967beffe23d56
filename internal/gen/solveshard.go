package gen

import (
	"fmt"

	"repro/internal/bigmath"
	"repro/internal/pipeline"
)

// Distributed solves. The per-piece Clarkson solves inside one escalation
// attempt are independent constraint systems with deterministically seeded
// generators, so they distribute exactly like verification slices: each
// (kernel, pieces, piece) solve becomes a content-addressed work unit in
// the shared store, claimed before computing and assembled by every peer.
// All peers walk the identical rung/escalation schedule — the rung's
// effective options are part of each unit's fingerprint — so they request
// the same unit sequence and any peer can assemble the full kernel.
// Duplicate computation (a lost claim, a reclaimed stall) is harmless: the
// unit bytes are deterministic, so the last writer re-publishes identical
// bytes.

// StageSolveShard names the distributed-solve work-unit stage, as it
// appears in artifact keys and cache event logs.
const StageSolveShard = "solve-shard"

// SolveShardKey addresses one distributed solve work unit: piece pi of the
// pieces-way split of kernel p of fn under opt (defaults applied). Pass
// the rung-effective options: the rescue ladder's seed salts and budget
// escalations are folded into the options fingerprint, so every rung's
// units are distinct resumable artifacts.
func SolveShardKey(fn bigmath.Func, opt Options, kernel, pieces, pi int) pipeline.Key {
	opt.defaults()
	return pipeline.Key{
		Func:        fn.String(),
		Stage:       StageSolveShard,
		Fingerprint: fmt.Sprintf("%s-k%d-n%d-p%d", opt.Fingerprint(), kernel, pieces, pi),
	}
}

// solveUnitCodec seals one piece solve's outcome. The deterministic effort
// stats ride along because ResultCodec seals them into the solve artifact:
// a peer assembling fetched units must reproduce the exact Stats a solo run
// accumulates, or the sealed solve artifact would differ by process count.
// The volatile retries count (injected-fault replays, local to whichever
// process consumed the injection) is deliberately excluded, mirroring its
// exclusion from ResultCodec.
var solveUnitCodec = pipeline.Codec[pieceOut]{
	Name:    "solve-shard",
	Version: 1,
	Encode: func(e *pipeline.Enc, o pieceOut) {
		piece := Piece{}
		if o.found {
			piece = *o.piece
		}
		e.Bool(o.found)
		e.F64(piece.Lo)
		e.F64(piece.Hi)
		e.Int(len(piece.Coeffs))
		for _, c := range piece.Coeffs {
			e.F64(c)
		}
		e.Int(len(piece.LevelTerms))
		for _, t := range piece.LevelTerms {
			e.Int(t)
		}
		e.Int(len(o.viols))
		for _, v := range o.viols {
			e.Int(v.level)
			e.Int(v.row)
		}
		e.Int(o.stats.attempts)
		e.Int(o.stats.iters)
		e.Int(o.stats.lucky)
		e.Int(o.stats.exactSolves)
	},
	Decode: func(d *pipeline.Dec) (pieceOut, error) {
		o := pieceOut{found: d.Bool()}
		piece := &Piece{Lo: d.F64(), Hi: d.F64()}
		for n := d.Len(); n > 0; n-- {
			piece.Coeffs = append(piece.Coeffs, d.F64())
		}
		for n := d.Len(); n > 0; n-- {
			piece.LevelTerms = append(piece.LevelTerms, d.Int())
		}
		for n := d.Len(); n > 0; n-- {
			o.viols = append(o.viols, violation{level: d.Int(), row: d.Int()})
		}
		o.stats.attempts, o.stats.iters = d.Int(), d.Int()
		o.stats.lucky, o.stats.exactSolves = d.Int(), d.Int()
		if d.Err() != nil {
			return pieceOut{}, d.Err()
		}
		for _, v := range o.viols {
			if v.level < 0 || v.row < 0 {
				return pieceOut{}, fmt.Errorf("%w: negative violation index", pipeline.ErrCorrupt)
			}
		}
		if o.found {
			if len(piece.Coeffs) == 0 {
				return pieceOut{}, fmt.Errorf("%w: found piece with no coefficients", pipeline.ErrCorrupt)
			}
			o.piece = piece
		}
		return o, nil
	},
}
