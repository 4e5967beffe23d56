// Package campaign plans and drives the paper-scale distributed sweep:
// every requested function generated and exhaustively verified, then the
// progressive claim checked over every format from MinBits up to the
// largest width under all five standard rounding modes — the "2^bits
// inputs × 5 modes, every function" run behind the paper's headline
// correctness table.
//
// The campaign is built out of the same primitives as every other
// distributed workload in this repo: each unit of work is a
// content-addressed artifact in a shared store, claimed with the
// heartbeat protocol of internal/gen, and therefore resumable — killing
// every peer and relaunching the campaign recomputes only the units that
// never sealed. The plan itself is pinned as a manifest artifact so a
// resumed campaign provably sweeps the same unit list, and the aggregate
// report is assembled from the per-peer unit results (never from store
// probes — a unit artifact may have been evicted by the time the
// campaign aggregates, and eviction must never change a report).
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// MinSweepBits is the default smallest swept format width: the paper's
// progressive libraries serve every FP representation from 10 to 32 bits
// (with the standard 8 exponent bits), so the sweep starts at 10.
const MinSweepBits = 10

// Plan describes one campaign: which functions, which format range, and
// the generation configuration every peer must share. Two peers with
// different plans address disjoint artifacts and silently duplicate work,
// so the driver pins the plan in a manifest artifact and every worker
// re-derives its unit list from the same fingerprint.
type Plan struct {
	// Funcs lists the generated functions, in sweep order.
	Funcs []bigmath.Func
	// Bits is the width of the largest representation (the paper: 32).
	Bits int
	// MinBits is the smallest swept format width (default MinSweepBits).
	MinBits int
	// Levels overrides the generated representation ladder (default: the
	// paper's gen.StandardLevels(Bits)). Tests use small ladders; the
	// paper-scale campaign leaves this empty.
	Levels []fp.Format
	// ProgressiveRO generates the lower levels against round-to-odd
	// intervals, extending the progressive guarantee to all modes.
	ProgressiveRO bool
	// Seed drives all generation randomness.
	Seed int64
	// Workers bounds per-peer worker goroutines. Excluded from the
	// fingerprint: output is bit-identical for every worker count.
	Workers int
}

// normalized returns the plan with defaults applied; fingerprints and
// unit lists are always derived from the normalized form.
func (p Plan) normalized() Plan {
	if p.Bits == 0 {
		p.Bits = gen.DefaultLargestBits
	}
	if p.MinBits == 0 {
		p.MinBits = MinSweepBits
	}
	if len(p.Funcs) == 0 {
		p.Funcs = bigmath.AllFuncs
	}
	return p
}

// Validate rejects plans whose sweep range is malformed before any peer
// publishes an artifact against them.
func (p Plan) Validate() error {
	p = p.normalized()
	if p.MinBits < 4 {
		return fmt.Errorf("campaign: min format width %d below the fp package floor 4", p.MinBits)
	}
	if p.MinBits > p.Bits {
		return fmt.Errorf("campaign: min format width %d exceeds largest width %d", p.MinBits, p.Bits)
	}
	for b := p.MinBits; b <= p.Bits; b++ {
		if _, err := fp.NewFormat(b, 8); err != nil {
			return fmt.Errorf("campaign: swept format F(%d,8): %w", b, err)
		}
	}
	// The sweep evaluates F(b,8) through the generated ladder, so every
	// level must share its 8 exponent bits and the widest must cover Bits;
	// otherwise each sweep would fail only after generating every function.
	widest := 0
	for _, l := range p.Levels {
		if l.ExpBits() != 8 {
			return fmt.Errorf("campaign: level %v: exponent width must be 8 like the swept formats", l)
		}
		widest = max(widest, l.Bits())
	}
	if len(p.Levels) > 0 && widest < p.Bits {
		return fmt.Errorf("campaign: widest level F%d,8 is narrower than the largest swept width %d", widest, p.Bits)
	}
	if p.Seed < 0 {
		return fmt.Errorf("campaign: seed %d must be at least 0", p.Seed)
	}
	return nil
}

// Options returns the generation options every peer uses for fn under
// this plan. Logf and Oracle are left nil — per-peer plumbing the callers
// attach themselves.
func (p Plan) Options() gen.Options {
	p = p.normalized()
	levels := p.Levels
	if len(levels) == 0 {
		levels = gen.StandardLevels(p.Bits)
	}
	return gen.Options{
		Levels:        levels,
		ProgressiveRO: p.ProgressiveRO,
		Seed:          p.Seed,
		Workers:       p.Workers,
	}
}

// Formats returns the swept format list F(MinBits,8) .. F(Bits,8), in
// ascending width order — the unit order every peer deals round-robin.
func (p Plan) Formats() []fp.Format {
	p = p.normalized()
	var fs []fp.Format
	for b := p.MinBits; b <= p.Bits; b++ {
		fs = append(fs, fp.MustFormat(b, 8))
	}
	return fs
}

// Fingerprint digests every Plan field that can change which artifacts a
// campaign addresses. Every field must be mentioned — the rlibm-lint
// cachekey analyzer enforces it; Workers is a blank mention because the
// determinism contract makes output worker-count-independent.
func (p Plan) Fingerprint() string {
	p = p.normalized()
	var e pipeline.Enc
	e.Int(len(p.Funcs))
	for _, fn := range p.Funcs {
		e.Str(fn.String())
	}
	e.Int(p.Bits)
	e.Int(p.MinBits)
	e.Int(len(p.Levels))
	for _, l := range p.Levels {
		e.Int(l.Bits())
		e.Int(l.ExpBits())
	}
	e.Bool(p.ProgressiveRO)
	e.I64(p.Seed)
	_ = p.Workers // excluded: output is bit-identical for every worker count
	sum := sha256.Sum256(e.Bytes())
	return hex.EncodeToString(sum[:])
}

// Unit is one entry of the campaign manifest. FormatBits == 0 is the
// generate+verify unit of Func (the staged pipeline through the repair
// pass); FormatBits > 0 is the exhaustive progressive sweep of Func at
// F(FormatBits,8) under all five standard rounding modes.
type Unit struct {
	Func       bigmath.Func
	FormatBits int
}

func (u Unit) String() string {
	if u.FormatBits == 0 {
		return fmt.Sprintf("%v/generate", u.Func)
	}
	return fmt.Sprintf("%v/F%d,8", u.Func, u.FormatBits)
}

// Manifest is the pinned unit list of one campaign. It is sealed as an
// artifact under ManifestKey before any worker starts, so a resumed or
// late-joining peer provably executes the same plan: the manifest's own
// fingerprint is the plan fingerprint, and every unit artifact embeds it.
type Manifest struct {
	Fingerprint string
	Units       []Unit
}

// BuildManifest expands a plan into its full unit list: per function, the
// generate+verify unit followed by one sweep unit per format.
func BuildManifest(p Plan) Manifest {
	p = p.normalized()
	m := Manifest{Fingerprint: p.Fingerprint()}
	for _, fn := range p.Funcs {
		m.Units = append(m.Units, Unit{Func: fn})
		for b := p.MinBits; b <= p.Bits; b++ {
			m.Units = append(m.Units, Unit{Func: fn, FormatBits: b})
		}
	}
	return m
}

// StageManifest and StageSweep name the campaign's artifact stages. The
// manifest stage is pipeline's, because the evicting store always pins it.
const (
	StageManifest = pipeline.StageManifest
	StageSweep    = "campaign-sweep"
)

// ManifestKey addresses the campaign's manifest artifact. The Func
// component is the literal "campaign" — the manifest spans functions.
func ManifestKey(p Plan) pipeline.Key {
	return pipeline.Key{Func: "campaign", Stage: StageManifest, Fingerprint: p.Fingerprint()}
}

// SweepKey addresses one format-sweep work unit: the exhaustive check of
// fn at F(bits,8) under all standard modes, against the result generated
// with opt. The fingerprint extends the options fingerprint (defaults
// applied by Plan.Options) with the swept width, so each format is its
// own claimable, resumable artifact.
func SweepKey(fn bigmath.Func, opt gen.Options, bits int) pipeline.Key {
	return pipeline.Key{
		Func:        fn.String(),
		Stage:       StageSweep,
		Fingerprint: fmt.Sprintf("%s-F%d", opt.Fingerprint(), bits),
	}
}

// manifestCodec seals the manifest. Decode validates that units name real
// functions and plausible widths, so a corrupt manifest surfaces as
// ErrCorrupt instead of a panic deep in a worker.
var manifestCodec = pipeline.Codec[Manifest]{
	Name:    "campaign-manifest",
	Version: 1,
	Encode: func(e *pipeline.Enc, m Manifest) {
		e.Str(m.Fingerprint)
		e.Int(len(m.Units))
		for _, u := range m.Units {
			e.Str(u.Func.String())
			e.Int(u.FormatBits)
		}
	},
	Decode: func(d *pipeline.Dec) (Manifest, error) {
		m := Manifest{Fingerprint: d.Str()}
		n := d.Len()
		for i := 0; i < n; i++ {
			name, bits := d.Str(), d.Int()
			if d.Err() != nil {
				return Manifest{}, d.Err()
			}
			fn, err := bigmath.ParseFunc(name)
			if err != nil {
				return Manifest{}, fmt.Errorf("%w: manifest unit %d: %v", pipeline.ErrCorrupt, i, err)
			}
			if bits < 0 || bits > 64 {
				return Manifest{}, fmt.Errorf("%w: manifest unit %d: format width %d", pipeline.ErrCorrupt, i, bits)
			}
			m.Units = append(m.Units, Unit{Func: fn, FormatBits: bits})
		}
		if m.Fingerprint == "" {
			return Manifest{}, fmt.Errorf("%w: manifest without plan fingerprint", pipeline.ErrCorrupt)
		}
		return m, nil
	},
}

// EnsureManifest publishes the plan's manifest (or decodes the already-
// sealed one) and reports whether the campaign is a resume: a warm
// manifest means a previous campaign ran — or started — this exact plan,
// and every sealed unit artifact it left behind will be reused.
func EnsureManifest(ctx context.Context, st pipeline.Store, p Plan, logf pipeline.Logf) (Manifest, bool, error) {
	built := BuildManifest(p)
	if st == nil {
		return built, false, nil
	}
	m, resumed, err := pipeline.Run(ctx, st, ManifestKey(p), manifestCodec, logf,
		func(context.Context) (Manifest, error) { return built, nil })
	if err != nil {
		return Manifest{}, false, err
	}
	if m.Fingerprint != built.Fingerprint || len(m.Units) != len(built.Units) {
		return Manifest{}, false, fmt.Errorf("campaign: manifest mismatch: store has %d units under fingerprint %.12s, plan builds %d — the store holds a different campaign",
			len(m.Units), m.Fingerprint, len(built.Units))
	}
	return m, resumed, nil
}
