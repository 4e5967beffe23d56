package gen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bigmath"
	"repro/internal/clarkson"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/poly"
	"repro/internal/reduction"
)

// poolFault converts a worker-pool error into the typed taxonomy: a
// recovered panic keeps the panic value's own fault code and context when
// it already is a *fault.Error (the oracle and the injection sites panic
// typed values), and otherwise becomes CodeWorkerPanic; cancellation maps
// to CodeCanceled. Typed errors returned by jobs pass through unchanged.
func poolFault(err error, stage string, fn bigmath.Func) error {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		if fe, ok := pe.Value.(*fault.Error); ok {
			out := *fe
			out.Err = pe // keep the job/worker/stack context in the chain
			return &out
		}
		return fault.New(fault.CodeWorkerPanic, stage, "pool", pe).WithFunc(fn.String())
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fault.New(fault.CodeCanceled, stage, "pool", err).WithFunc(fn.String())
	}
	return err
}

// solveAll runs the Solve stage: per kernel, search for a piecewise
// progressive polynomial over the merged constraint set, then resolve every
// special input's all-modes round-to-odd proxy with the oracle. The
// returned Result carries only deterministic fields (the volatile Duration
// and Oracle stats are filled in by the caller).
func solveAll(ctx context.Context, fn bigmath.Func, scheme reduction.Scheme, cs *constraintSet,
	orc *oracle.Oracle, opt Options, store pipeline.Store, shard Shard, logf func(string, ...interface{})) (*Result, error) {

	res := &Result{
		Fn:            fn,
		Levels:        opt.Levels,
		Specials:      make([][]SpecialInput, len(opt.Levels)),
		ProgressiveRO: opt.ProgressiveRO,
	}

	for p := 0; p < scheme.NumPolys(); p++ {
		kp, err := solveKernel(ctx, fn, scheme, cs, p, opt, store, shard, res, logf)
		if err != nil {
			return nil, err
		}
		res.Kernels = append(res.Kernels, *kp)
	}

	// Resolve special inputs: for every violated/evicted input, store the
	// all-modes-correct round-to-odd proxy of its level. The proxies are
	// independent oracle queries, computed on the pool over a flattened
	// (level, input) work list.
	type specialKey struct {
		li int
		b  uint64
	}
	var keys []specialKey
	for li, set := range cs.specials {
		for b := range set {
			//lint:ignore mapiter keys are fully sorted below before any use, erasing map order.
			keys = append(keys, specialKey{li, b})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].li != keys[j].li {
			return keys[i].li < keys[j].li
		}
		return keys[i].b < keys[j].b
	})
	resolved := make([]SpecialInput, len(keys))
	if err := parallel.ForEachErr(ctx, opt.Workers, len(keys), func(i int) error {
		lvl := opt.Levels[keys[i].li]
		ext := lvl.Extend(2)
		x := lvl.Decode(keys[i].b)
		proxy := ext.Decode(orc.Result(x, ext, fp.RoundToOdd))
		resolved[i] = SpecialInput{X: x, Proxy: proxy}
		return nil
	}); err != nil {
		return nil, poolFault(err, StageSolve, fn)
	}
	obs.SpanFrom(ctx).Add(obs.CtrSpecialsResolved, int64(len(keys)))
	for i, k := range keys {
		res.Specials[k.li] = append(res.Specials[k.li], resolved[i])
	}
	for li := range res.Specials {
		sort.Slice(res.Specials[li], func(i, j int) bool {
			return res.Specials[li][i].X < res.Specials[li][j].X
		})
	}

	res.Stats.RawConstraints = cs.rawCount
	res.Stats.MergedRows = cs.mergedRows()
	return res, nil
}

// pieceSeed derives the deterministic RNG seed of one piece solve. Folding
// in the function, kernel index, the piece count of the current escalation
// attempt and the piece index (through a splitmix64-style finalizer) gives
// every concurrent Clarkson solve an independent stream whose draws cannot
// interleave with any other solve's, so generation is reproducible for
// every worker count.
func pieceSeed(seed int64, fn bigmath.Func, kernel, pieces, pi int) int64 {
	z := uint64(seed) ^ 0x70726f6772657373 // "progress"
	for _, v := range [...]uint64{uint64(fn), uint64(kernel), uint64(pieces), uint64(pi)} {
		z ^= v + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	}
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// rescueRung is one step of the deterministic retry/degradation schedule
// applied when a kernel's whole pieces × terms search runs dry. Rung 0 is
// the identity: exactly the configured budgets and the unsalted seed, so
// any kernel the baseline search can solve is bit-identical to a build
// without the rescue ladder. Later rungs rotate the RNG seed by fixed
// salts (unlucky sampling is the dominant failure mode reported by
// RLIBM-All/RLIBM-32), escalate the iteration budget and force the exact
// rational solver, and finally degrade gracefully by widening the term,
// piece and special budgets. The schedule is a fixed table — never
// randomized, never influenced by injected faults — so cold and warm runs
// consume identical rungs and the consumption counts recorded in Stats
// are deterministic.
type rescueRung struct {
	name          string
	salt          int64 // XORed into Options.Seed (0 = unsalted)
	itersScale    int   // multiplies ClarksonIters
	forceExact    bool  // route every sample to the exact rational solver
	extraTerms    int   // added to MaxTerms
	piecesScale   int   // multiplies MaxPieces (unless ForcePieces pins it)
	specialsScale int   // multiplies MaxSpecials
}

// rescueRungs returns the fixed rescue schedule. The salts are arbitrary
// published constants; changing them (or any budget multiplier) changes
// generated bits for rescued kernels and therefore requires a ResultCodec
// version bump.
func rescueRungs() []rescueRung {
	return []rescueRung{
		{name: "baseline", itersScale: 1, piecesScale: 1, specialsScale: 1},
		{name: "seed-rotation-1", salt: 0x517cc1b727220a95, itersScale: 1, piecesScale: 1, specialsScale: 1},
		{name: "seed-rotation-2", salt: 0x2545f4914f6cdd1d, itersScale: 1, piecesScale: 1, specialsScale: 1},
		{name: "exact-escalation", salt: 0x6a09e667f3bcc909, itersScale: 4, forceExact: true, piecesScale: 1, specialsScale: 1},
		{name: "degradation", salt: 0x3243f6a8885a308d, itersScale: 4, forceExact: true, extraTerms: 1, piecesScale: 2, specialsScale: 2},
	}
}

// maxInjectedReplays bounds how often one piece solve poisoned by injected
// solver faults is replayed before the run gives up with a typed error
// (only a Plan that keeps firing on every occurrence can exhaust it).
const maxInjectedReplays = 4

// solveKernel finds a piecewise progressive polynomial for kernel p,
// walking the rescue ladder: the baseline budgets first, then — only if
// the entire pieces × terms search failed — deterministic seed rotations,
// budget escalation and graceful degradation. Consumed rungs are recorded
// in Stats so the solve artifact pins them.
func solveKernel(ctx context.Context, fn bigmath.Func, scheme reduction.Scheme, cs *constraintSet, p int,
	opt Options, store pipeline.Store, shard Shard, res *Result, logf func(string, ...interface{})) (*KernelPoly, error) {

	rungs := rescueRungs()
	for ri, rg := range rungs {
		eff := opt
		eff.Seed = opt.Seed ^ rg.salt
		eff.ClarksonIters = opt.ClarksonIters * rg.itersScale
		eff.MaxTerms = opt.MaxTerms + rg.extraTerms
		eff.MaxSpecials = opt.MaxSpecials * rg.specialsScale
		if opt.ForcePieces == 0 {
			eff.MaxPieces = opt.MaxPieces * rg.piecesScale
		}
		if ri > 0 {
			logf("  kernel %d: rescue rung %d (%s)", p, ri, rg.name)
		}
		kp, err := solveKernelAttempt(ctx, fn, scheme, cs, p, eff, rg.forceExact, store, shard, res, logf)
		if err != nil {
			return nil, err
		}
		if kp != nil {
			sp := obs.SpanFrom(ctx)
			for _, used := range rungs[1 : ri+1] {
				if used.salt != 0 {
					res.Stats.SeedRotations++
					sp.Add(obs.CtrRescueSeedRotations, 1)
				}
				if used.itersScale > 1 || used.forceExact {
					res.Stats.BudgetEscalations++
					sp.Add(obs.CtrRescueBudgetEscalations, 1)
				}
				if used.extraTerms > 0 || used.piecesScale > 1 || used.specialsScale > 1 {
					res.Stats.Degradations++
					sp.Add(obs.CtrRescueDegradations, 1)
				}
			}
			return kp, nil
		}
	}
	return nil, fault.New(fault.CodeSolverBudget, StageSolve, "rescue",
		fmt.Errorf("gen: %v kernel %d unsolvable within %d pieces × %d terms after %d rescue rungs",
			fn, p, opt.MaxPieces, opt.MaxTerms, len(rungs)-1)).
		WithFunc(fn.String()).WithPiece(p, -1).WithAttempt(len(rungs))
}

// pieceOut is one piece solve's outcome, merged into the kernel result in
// deterministic piece order. retries counts local injected-fault replays;
// it is volatile — never sealed into a solve-shard unit artifact — because
// only the process that consumed the injection replays.
type pieceOut struct {
	piece   *Piece
	viols   []violation
	stats   solveStats
	found   bool
	retries int
}

// solveKernelAttempt runs one rung of the search for kernel p: the
// adaptive pieces escalation with the rung's effective budgets. Within one
// escalation attempt the sub-domain pieces are independent constraint
// systems; they are solved concurrently on the pool, each with its own
// deterministically seeded generator, and merged in piece order. A piece
// solve that consumed injected solver faults is discarded and replayed
// with an identically seeded generator — the injection plan's occurrence
// counters have moved past the scheduled faults, so the replay reproduces
// the no-fault solve bit for bit. A non-solo shard with a live store runs
// the pieces as distributed work units (RunUnits, dealt round-robin by
// Shard.Owns because the piece count follows the escalation); the merged
// kernel is bit-identical either way. It returns (nil, nil) when the
// ladder ran dry, leaving the rescue decision to solveKernel.
func solveKernelAttempt(ctx context.Context, fn bigmath.Func, scheme reduction.Scheme, cs *constraintSet, p int,
	opt Options, forceExact bool, store pipeline.Store, shard Shard, res *Result, logf func(string, ...interface{})) (*KernelPoly, error) {

	domLo, domHi := scheme.ReducedDomain()
	st := scheme.Structure(p)
	nLevels := len(opt.Levels)

	startPieces, maxPieces := 1, opt.MaxPieces
	if opt.ForcePieces > 0 {
		startPieces, maxPieces = opt.ForcePieces, opt.ForcePieces
	}
	for pieces := startPieces; pieces <= maxPieces; pieces *= 2 {
		bounds := splitDomain(domLo, domHi, pieces)
		computePiece := func(ctx context.Context, pi int) (pieceOut, error) {
			if opt.Faults.Should(fault.SiteWorkerPanic) {
				panic(fault.New(fault.CodeWorkerPanic, StageSolve, string(fault.SiteWorkerPanic),
					fault.Injected(fault.SiteWorkerPanic)).WithFunc(fn.String()).WithPiece(p, pi))
			}
			// One observability span per concurrent piece solve, zero-padded
			// so the snapshot's name sort matches piece order. Counters are
			// added only from the final non-poisoned solve below, so injected
			// replays never double-count effort.
			ps := obs.SpanFrom(ctx).Child(fmt.Sprintf("piece k%d n%d i%03d", p, pieces, pi))
			defer ps.End()
			lo, hi := bounds[pi], bounds[pi+1]
			rows, rowMeta := collectRows(cs, p, lo, hi, pi == pieces-1, nLevels)
			for attempt := 1; ; attempt++ {
				rng := rand.New(rand.NewSource(pieceSeed(opt.Seed, fn, p, pieces, pi)))
				piece, viols, st2, found, perr := solvePiece(ctx, rows, rowMeta, st, nLevels, opt, forceExact, rng)
				if perr != nil {
					return pieceOut{}, perr
				}
				if st2.injected == 0 {
					if found {
						piece.Lo, piece.Hi = lo, hi
					}
					ps.Add(obs.CtrClarksonAttempts, int64(st2.attempts))
					ps.Add(obs.CtrClarksonIters, int64(st2.iters))
					ps.Add(obs.CtrClarksonSamples, int64(st2.samples))
					ps.Add(obs.CtrClarksonWeightDoublings, int64(st2.lucky))
					ps.Add(obs.CtrClarksonExactSolves, int64(st2.exactSolves))
					return pieceOut{piece: piece, viols: viols, stats: st2, found: found, retries: attempt - 1}, nil
				}
				// The solve consumed injected faults: its result (and its
				// effort stats) are poisoned. Discard everything and replay
				// the piece from its deterministic seed.
				if attempt > maxInjectedReplays {
					return pieceOut{}, fault.New(fault.CodeInjected, StageSolve, "replay",
						fmt.Errorf("%d injected solver faults still firing after %d replays", st2.injected, attempt-1)).
						WithFunc(fn.String()).WithPiece(p, pi).WithAttempt(attempt)
				}
			}
		}
		unitStore := store
		if shard.Solo() {
			unitStore = nil
		}
		outs, err := RunUnits(ctx, unitStore, shard, pieces,
			func(pi int) pipeline.Key { return SolveShardKey(fn, opt, p, pieces, pi) },
			solveUnitCodec, computePiece, opt.Workers, opt.Faults, logf)
		if err != nil {
			return nil, poolFault(err, StageSolve, fn)
		}
		kp := &KernelPoly{Structure: st}
		ok := true
		var pending []violation
		for pi := 0; pi < pieces; pi++ {
			res.Stats.Attempts += outs[pi].stats.attempts
			res.Stats.Iters += outs[pi].stats.iters
			res.Stats.Lucky += outs[pi].stats.lucky
			res.Stats.ExactSolves += outs[pi].stats.exactSolves
			res.Stats.Retries += outs[pi].retries
			if !outs[pi].found {
				ok = false
				continue
			}
			kp.Pieces = append(kp.Pieces, *outs[pi].piece)
			pending = append(pending, outs[pi].viols...)
		}
		if ok {
			// Commit deferred specials: every input whose raw constraint
			// merged into a violated row.
			for _, v := range pending {
				for _, xb := range cs.perKernel[p][v.level].rowInputs[v.row] {
					cs.specials[v.level][xb] = struct{}{}
				}
			}
			logf("  kernel %d: %d piece(s), terms %v", p, len(kp.Pieces),
				kp.Pieces[0].LevelTerms)
			return kp, nil
		}
		logf("  kernel %d: %d piece(s) insufficient, splitting", p, pieces)
	}
	return nil, nil
}

// rowMeta identifies the origin of each clarkson row: the level and merged-
// row index it came from.
type rowMeta struct {
	level  int
	row    int
	inputs int32
}

// collectRows gathers the merged rows of kernel p with reduced input in
// [lo, hi) (closed above for the last piece), tagged by level and row.
func collectRows(cs *constraintSet, p int, lo, hi float64, lastPiece bool, nLevels int) ([]clarkson.Row, []rowMeta) {
	var rows []clarkson.Row
	var meta []rowMeta
	for li := 0; li < nLevels; li++ {
		for mi, m := range cs.perKernel[p][li].merged {
			//lint:ignore floateq hi is a stored piece boundary; the exact match assigns the shared row to exactly one piece.
			if m.r < lo || m.r > hi || (m.r == hi && !lastPiece) {
				continue
			}
			rows = append(rows, clarkson.Row{X: m.r, Lo: m.lo, Hi: m.hi, Inputs: m.inputs})
			meta = append(meta, rowMeta{level: li, row: mi, inputs: m.inputs})
		}
	}
	return rows, meta
}

// splitDomain returns n+1 boundaries splitting [lo, hi] evenly.
func splitDomain(lo, hi float64, n int) []float64 {
	b := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		b[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	b[0], b[n] = lo, hi
	return b
}

// solveStats is the solver-effort delta of one piece solve, merged into
// Stats in deterministic piece order by solveKernel. injected counts the
// injected solver faults the solve consumed; any non-zero count poisons
// the whole piece result, which is then discarded and replayed.
type solveStats struct {
	attempts, iters, lucky, exactSolves int
	// samples counts the iterations that drew and solved a weighted sample
	// (reported via obs only; gen.Stats predates it and the solve artifact
	// layout must not change).
	samples  int
	injected int
}

// solvePiece searches term-count assignments for one sub-domain: the total
// term count k grows from 1 to MaxTerms, and for each k the lower levels'
// term counts escalate from their minima toward k, bumping the level with
// the most violations after each failed joint solve (§3.3: "we increment
// the number of terms used for the smaller bitwidth representations ...
// we increase the number of terms used for the largest representation when
// we are unable to find a progressive polynomial after increasing the
// terms used for the smaller representations"). rng must be exclusive to
// this call; solvePiece runs concurrently with other pieces. forceExact
// routes every Clarkson sample to the exact rational solver (the rescue
// ladder's escalation rung); cancellation is checked between term-count
// attempts and surfaces as a typed error.
func solvePiece(ctx context.Context, rows []clarkson.Row, meta []rowMeta, st poly.Structure, nLevels int,
	opt Options, forceExact bool, rng *rand.Rand) (*Piece, []violation, solveStats, bool, error) {

	var stats solveStats
	if len(rows) == 0 {
		return &Piece{Coeffs: []float64{0}, LevelTerms: onesVector(nLevels, 1)}, nil, stats, true, nil
	}
	xScale := 0.0
	for _, r := range rows {
		if a := math.Abs(r.X); a > xScale {
			xScale = a
		}
	}
	if xScale == 0 {
		xScale = 1
	}

	// Pre-compute each lower level's minimum viable term count by solving
	// that level's rows alone (necessary-condition pruning: the joint
	// system can only need more). This skips the hopeless low-term joint
	// attempts, which dominate wall time otherwise. Zero terms are allowed:
	// the paper's Table 1 reports functions whose bfloat16 path needs no
	// polynomial at all.
	minT := make([]int, nLevels)
	for li := 0; li < nLevels-1; li++ {
		minT[li] = minLevelTerms(rows, meta, li, st, xScale, opt, forceExact, rng, &stats)
		if opt.Logf != nil {
			opt.Logf("    level %d minimum terms: %d", li, minT[li])
		}
	}

	for k := 1; k <= opt.MaxTerms; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, stats, false, fault.New(fault.CodeCanceled, StageSolve, "solve-piece", cerr)
		}
		terms := make([]int, nLevels)
		feasibleStart := true
		for li := 0; li < nLevels-1; li++ {
			terms[li] = minT[li]
			if terms[li] > k {
				feasibleStart = false
			}
		}
		// Keep the vector monotone non-decreasing.
		for li := nLevels - 2; li > 0; li-- {
			if terms[li-1] > terms[li] {
				terms[li] = terms[li-1]
			}
		}
		if !feasibleStart {
			continue // some lower level needs more terms than k provides
		}
		terms[nLevels-1] = k
		for {
			// The term-escalation loop has no static bound; re-check
			// cancellation each attempt so a stuck piece search cannot
			// outlive its deadline.
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, stats, false, fault.New(fault.CodeCanceled, StageSolve, "solve-piece", cerr)
			}
			assignTerms(rows, meta, terms)
			if opt.Logf != nil {
				opt.Logf("    attempting k=%d terms=%v ...", k, terms)
			}
			cfg := clarkson.Config{
				TotalTerms:       k,
				MaxIters:         opt.ClarksonIters,
				AcceptViolations: opt.MaxSpecials,
				XScale:           xScale,
				Structure:        st,
				Rng:              rng,
				ForceExact:       forceExact,
				Faults:           opt.Faults,
			}
			cr := clarkson.Solve(rows, cfg)
			stats.attempts++
			stats.iters += cr.Iters
			stats.lucky += cr.Lucky
			stats.exactSolves += cr.ExactSolves
			stats.samples += cr.Samples
			stats.injected += cr.Injected
			if opt.Logf != nil {
				opt.Logf("    attempt k=%d terms=%v rows=%d: found=%v infeasible=%v best=%d iters=%d lucky=%d exact=%d lastErr=%v",
					k, terms, len(rows), cr.Found, cr.Infeasible, cr.BestViolations, cr.Iters, cr.Lucky, cr.ExactSolves, cr.LastErr)
			}
			if cr.Found {
				// Violations become special inputs if the *input* count
				// stays within budget.
				viols, withinBudget := violationSpecials(cr.Violations, meta, opt.MaxSpecials)
				if withinBudget {
					return &Piece{Coeffs: cr.Coeffs, LevelTerms: append([]int(nil), terms...)},
						viols, stats, true, nil
				}
			}
			// Escalate: bump the lower level with the most violations at
			// the best solution seen.
			viol := cr.Violations
			if len(viol) == 0 {
				viol = cr.BestViolated
			}
			bumped := bumpTerms(terms, k, viol, meta)
			if !bumped {
				break
			}
		}
	}
	return nil, nil, stats, false, nil
}

// minLevelTerms returns the smallest t (possibly 0) for which level li's
// rows alone are satisfiable with a t-term polynomial, or MaxTerms when
// none is found (the joint search will then skip k < MaxTerms starts).
// Injected faults its probe solves consume are accumulated into stats so
// the enclosing piece solve is recognized as poisoned and replayed.
func minLevelTerms(rows []clarkson.Row, meta []rowMeta, li int, st poly.Structure,
	xScale float64, opt Options, forceExact bool, rng *rand.Rand, stats *solveStats) int {

	var lvlRows []clarkson.Row
	for i := range rows {
		if meta[i].level == li {
			r := rows[i]
			lvlRows = append(lvlRows, r)
		}
	}
	if len(lvlRows) == 0 {
		return 0
	}
	// t = 0: the zero polynomial.
	zeroOK := true
	budget := 0
	for i := range lvlRows {
		if lvlRows[i].Lo > 0 || lvlRows[i].Hi < 0 {
			budget += int(lvlRows[i].Inputs)
			if lvlRows[i].Inputs <= 0 {
				budget++
			}
		}
	}
	if budget > opt.MaxSpecials {
		zeroOK = false
	}
	if zeroOK {
		return 0
	}
	for t := 1; t < opt.MaxTerms; t++ {
		for i := range lvlRows {
			lvlRows[i].Terms = t
		}
		cr := clarkson.Solve(lvlRows, clarkson.Config{
			TotalTerms:       t,
			MaxIters:         80,
			AcceptViolations: opt.MaxSpecials,
			XScale:           xScale,
			Structure:        st,
			Rng:              rng,
			ForceExact:       forceExact,
			Faults:           opt.Faults,
		})
		stats.injected += cr.Injected
		if cr.Found {
			return t
		}
	}
	return opt.MaxTerms
}

func onesVector(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// assignTerms writes the hypothesized per-level term counts into the rows.
func assignTerms(rows []clarkson.Row, meta []rowMeta, terms []int) {
	for i := range rows {
		rows[i].Terms = terms[meta[i].level]
	}
}

// violation identifies a violated merged row by level and merged-row index.
type violation struct {
	level int
	row   int
}

// violationSpecials converts violated rows to per-level special markers,
// enforcing the per-piece special budget in *input* counts (a merged row
// may cover many inputs).
func violationSpecials(violated []int, meta []rowMeta, budget int) ([]violation, bool) {
	total := 0
	var out []violation
	for _, vi := range violated {
		total += int(meta[vi].inputs)
		out = append(out, violation{level: meta[vi].level, row: meta[vi].row})
	}
	if total > budget {
		return nil, false
	}
	return out, true
}

// bumpTerms increases the term count of the lower level with the most
// violated rows (ties to the smallest level), cascading the increase
// upward so the vector stays monotone (terms[0] ≤ … ≤ terms[n-1] = k).
// It returns false when no lower level can grow further.
func bumpTerms(terms []int, k int, violated []int, meta []rowMeta) bool {
	n := len(terms)
	counts := make([]int, n)
	for _, vi := range violated {
		counts[meta[vi].level]++
	}
	best := -1
	for li := 0; li < n-1; li++ {
		if terms[li] >= k {
			continue
		}
		if best < 0 || counts[li] > counts[best] {
			best = li
		}
	}
	if best < 0 {
		return false
	}
	terms[best]++
	for li := best + 1; li < n-1; li++ {
		if terms[li] < terms[li-1] {
			terms[li] = terms[li-1]
		}
	}
	return true
}
