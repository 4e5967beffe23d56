package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/reduction"
)

// The eval-lib workload: the generated library called in-process by one
// goroutine. Phase A runs the compiled batch kernels (Kernel.EvalBatch,
// what libm.EvalBatch dispatches to) over in-domain inputs, so every input
// takes the kernel's reduce → Horner → compensate → round path; phase B
// calls the per-call API (Bfloat16, TensorFloat32, Largest) over uniform
// bit patterns, most of which take the special path. One operation is one
// evaluated input: throughput is phase A's inputs per second, and latency
// is the time of one per-call API call in phase B.

// evalConfig sizes the eval-lib workload.
type evalConfig struct {
	batch         int           // inputs per EvalBatch call in phase A
	batches       int           // distinct phase-A batches per cell
	corpusB       int           // uniform bit patterns per cell for phase B
	callsPerVisit int           // per-call API calls per cell visit in phase B
	group         int           // consecutive calls timed as one latency sample
	oracleChecks  int           // inputs per cell checked against the oracle
	phaseA        time.Duration // phase A length
	phaseB        time.Duration // phase B length
	round         time.Duration // phase A round and phase B segment: one sample of each metric
}

func evalConfigFor(p params) evalConfig {
	if p.toy {
		return evalConfig{batch: 64, batches: 1, corpusB: 64, callsPerVisit: 16, group: 8,
			oracleChecks: 8, phaseA: 150 * time.Millisecond, phaseB: 50 * time.Millisecond,
			round: 25 * time.Millisecond}
	}
	a := p.budget * 2 / 3
	return evalConfig{batch: 1024, batches: 4, corpusB: 4096, callsPerVisit: 128, group: 64,
		oracleChecks: 256, phaseA: a, phaseB: p.budget - a, round: 500 * time.Millisecond}
}

// Per-call API entry points of a cell.
const (
	apiBfloat16 = iota
	apiTensorFloat32
	apiLargest
)

// evalCell is one (function, format, mode) of the workload: 10 functions ×
// {bfloat16 rn, tensorfloat32 rn, largest format × 5 modes} = 70 cells.
type evalCell struct {
	fn   bigmath.Func
	f    fp.Format
	mode fp.Mode
	tag  int // index into evalFormats
	api  int
	res  *gen.Result
	li   int
	red  reduction.Lowered
	rnd  fp.Rounder
	a    [][]float64 // phase A batches (in-domain inputs)
	b    []uint64    // phase B corpus (uniform bit patterns)
	bx   []float64   // phase B corpus decoded
	// Traced runs only: per phase-A input, the special-table proxy when the
	// input is in the serving level's special table.
	isSpecial [][]bool
	proxy     [][]float64
}

func (c *evalCell) call(bits uint64) (uint64, error) {
	switch c.api {
	case apiBfloat16:
		y, err := libm.Bfloat16(c.fn, uint16(bits))
		return uint64(y), err
	case apiTensorFloat32:
		y, err := libm.TensorFloat32(c.fn, uint32(bits))
		return uint64(y), err
	default:
		return libm.Largest(c.fn, bits, c.mode)
	}
}

func evalCells() ([]evalCell, error) {
	largest, ok := libm.LargestFormat()
	if !ok {
		return nil, libm.ErrNoTables
	}
	var cells []evalCell
	for _, fn := range bigmath.AllFuncs {
		res, err := libm.Progressive(fn)
		if err != nil {
			return nil, err
		}
		add := func(f fp.Format, mode fp.Mode, tag, api int) {
			li, _ := res.ServingLevel(f, mode)
			cells = append(cells, evalCell{fn: fn, f: f, mode: mode, tag: tag, api: api,
				res: res, li: li, red: reduction.Lower(fn), rnd: fp.NewRounder(f, mode)})
		}
		add(fp.Bfloat16, fp.RoundNearestEven, 0, apiBfloat16)
		add(fp.TensorFloat32, fp.RoundNearestEven, 1, apiTensorFloat32)
		for _, m := range fp.StandardModes {
			add(largest, m, 2, apiLargest)
		}
	}
	return cells, nil
}

// makeEvalInputs draws every cell's corpora from the seed: phase A keeps only
// bit patterns the function's range reduction accepts.
func makeEvalInputs(cells []evalCell, cfg evalConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for ci := range cells {
		c := &cells[ci]
		mask := c.f.NumValues() - 1
		c.a = make([][]float64, cfg.batches)
		for bi := range c.a {
			batch := make([]float64, 0, cfg.batch)
			for len(batch) < cfg.batch {
				x := c.f.Decode(rng.Uint64() & mask)
				if _, ok := c.red.Reduce(x); ok {
					batch = append(batch, x)
				}
			}
			c.a[bi] = batch
		}
		c.b = make([]uint64, cfg.corpusB)
		c.bx = make([]float64, cfg.corpusB)
		for i := range c.b {
			c.b[i] = rng.Uint64() & mask
			c.bx[i] = c.f.Decode(c.b[i])
		}
	}
}

func runEvalLib(p params, r *run) error {
	cfg := evalConfigFor(p)
	cells, err := evalCells()
	if err != nil {
		return err
	}
	makeEvalInputs(cells, cfg, p.seed)

	// Set-up: compile every cell's kernel, as libm.Kernel does on first
	// use, and run its first batch. The kept kernels are the ones phase A
	// times.
	var kernels []*eval.Kernel
	dst := make([]uint64, cfg.batch)
	if err := r.setUp(func(keep bool) (func(), error) {
		ks := make([]*eval.Kernel, len(cells))
		for ci := range cells {
			c := &cells[ci]
			k, err := eval.Compile(c.res, c.f, c.mode)
			if err != nil {
				return nil, err
			}
			k.EvalBatch(dst, c.a[0])
			ks[ci] = k
		}
		if keep {
			kernels = ks
		}
		return nil, nil
	}); err != nil {
		return err
	}

	checkEvalLib(r, cells, kernels, cfg)
	runtime.GC() // the checks' garbage is not the timed phases' to collect

	if r.tr == nil {
		evalPhaseA(r, cells, kernels, cfg)
	} else {
		evalPhaseATraced(r, cells, kernels, cfg)
	}
	evalPhaseB(r, cells, cfg)
	return nil
}

// checkEvalLib checks, before anything is timed, that the set-up's kernels
// and libm.EvalBatch equal the reference evaluator on every phase-A input,
// that the per-call API equals libm.EvalBatch on every phase-B input, and
// that the first oracleChecks phase-B inputs of each cell are correctly
// rounded.
func checkEvalLib(r *run, cells []evalCell, kernels []*eval.Kernel, cfg evalConfig) {
	oracles := make(map[bigmath.Func]*oracle.Oracle)
	for ci := range cells {
		c := &cells[ci]
		dst := make([]uint64, cfg.batch)
		viaLib := make([]uint64, cfg.batch)
		for _, src := range c.a {
			kernels[ci].EvalBatch(dst, src)
			if err := libm.EvalBatch(c.fn, viaLib, src, c.f, c.mode); err != nil {
				r.res.fail("eval-lib %v %v %v: EvalBatch: %v", c.fn, c.f, c.mode, err)
				continue
			}
			for i, x := range src {
				r.res.Attempted++
				if want := c.res.Eval(x, c.li, c.f, c.mode); dst[i] != want || viaLib[i] != want {
					r.res.fail("eval-lib %v %v %v: kernel(%v) = %#x, libm.EvalBatch %#x, reference %#x",
						c.fn, c.f, c.mode, x, dst[i], viaLib[i], want)
				}
			}
		}
		batch := make([]uint64, len(c.bx))
		if err := libm.EvalBatch(c.fn, batch, c.bx, c.f, c.mode); err != nil {
			r.res.fail("eval-lib %v %v %v: EvalBatch: %v", c.fn, c.f, c.mode, err)
			continue
		}
		for i, bits := range c.b {
			r.res.Attempted++
			got, err := c.call(bits)
			if err != nil || got != batch[i] {
				r.res.fail("eval-lib %v %v %v: per-call(%#x) = %#x (%v), batch %#x", c.fn, c.f, c.mode, bits, got, err, batch[i])
			}
		}
		orc := oracles[c.fn]
		if orc == nil {
			orc = oracle.New(c.fn)
			oracles[c.fn] = orc
		}
		ext := c.f.Extend(2)
		for i := 0; i < cfg.oracleChecks && i < len(c.bx); i++ {
			r.res.Attempted++
			ro := ext.Decode(orc.Result(c.bx[i], ext, fp.RoundToOdd))
			if want := c.f.FromFloat64(ro, c.mode); batch[i] != want {
				r.res.fail("eval-lib %v %v %v: f(%v) = %#x, correctly rounded %#x", c.fn, c.f, c.mode, c.bx[i], batch[i], want)
			}
		}
	}
}

// evalPhaseA times the batch kernels over whole cycles of the 70 cells;
// each round is one throughput sample, and the speed is probed between
// rounds.
func evalPhaseA(r *run, cells []evalCell, kernels []*eval.Kernel, cfg evalConfig) {
	dst := make([]uint64, cfg.batch)
	var rates []float64
	bi := 0
	phase := time.Now()
	for time.Since(phase) < cfg.phaseA {
		start := time.Now()
		n := 0
		for {
			for ci := range cells {
				src := cells[ci].a[bi]
				kernels[ci].EvalBatch(dst, src)
				n += len(src)
			}
			bi = (bi + 1) % cfg.batches
			if time.Since(start) >= cfg.round {
				break
			}
		}
		rates = append(rates, float64(n)/time.Since(start).Seconds())
		r.res.Attempted += int64(n)
		r.between()
	}
	r.res.Metrics["throughput"] = summarize("1/s", rates)
}

// phaseBuf holds one batch's intermediate values for the traced phase
// replay.
type phaseBuf struct {
	ctx    []reduction.Ctx
	ok     []bool
	y0, y1 []float64
	v      []float64
	out    []uint64
}

// evalPiece evaluates one kernel polynomial at r the way the compiled
// kernel does: the same forward piece scan, poly.Structure.Eval on the
// level's term count.
func evalPiece(kp *gen.KernelPoly, li int, r float64) float64 {
	j := 0
	for j < len(kp.Pieces)-1 && r >= kp.Pieces[j].Hi {
		j++
	}
	p := &kp.Pieces[j]
	return kp.Structure.Eval(p.Coeffs, p.LevelTerms[li], r)
}

// evalPhaseATraced times each batch through Kernel.EvalBatch, then replays
// the kernel's four phases over the same inputs — reduction, Horner,
// compensation, rounding — each as its own span. The replay must
// reproduce the kernel's output bits; eval.self is the kernel's time the
// four phases do not account for (special-table probe, piece scan, loop).
func evalPhaseATraced(r *run, cells []evalCell, kernels []*eval.Kernel, cfg evalConfig) {
	tr := r.tr
	for ci := range kernels {
		kernels[ci].Observe(r.rec.Root())
	}
	for ci := range cells {
		c := &cells[ci]
		sp := make(map[uint64]float64, len(c.res.Specials[c.li]))
		for _, s := range c.res.Specials[c.li] {
			sp[math.Float64bits(s.X)] = s.Proxy
		}
		c.isSpecial = make([][]bool, len(c.a))
		c.proxy = make([][]float64, len(c.a))
		for bi, src := range c.a {
			c.isSpecial[bi] = make([]bool, len(src))
			c.proxy[bi] = make([]float64, len(src))
			for i, x := range src {
				c.proxy[bi][i], c.isSpecial[bi][i] = sp[math.Float64bits(x)]
			}
		}
	}
	n := cfg.batch
	buf := phaseBuf{ctx: make([]reduction.Ctx, n), ok: make([]bool, n), y0: make([]float64, n),
		y1: make([]float64, n), v: make([]float64, n), out: make([]uint64, n)}
	dst := make([]uint64, n)
	var kernelNS, reduceNS, hornerNS, compNS, roundNS, inputs [3]float64
	var trace uint64
	bi := 0
	phase := time.Now()
	for time.Since(phase) < cfg.phaseA {
		for ci := range cells {
			c := &cells[ci]
			k := kernels[ci]
			src := c.a[bi]
			trace++
			root := tr.newID()
			t0 := tr.now()
			k.EvalBatch(dst, src)
			t1 := tr.now()
			for i, x := range src {
				buf.ctx[i], buf.ok[i] = c.red.Reduce(x)
			}
			t2 := tr.now()
			special := c.isSpecial[bi]
			for i := range src {
				if !buf.ok[i] || special[i] {
					continue
				}
				rr := buf.ctx[i].R
				buf.y0[i] = evalPiece(&c.res.Kernels[0], c.li, rr)
				if len(c.res.Kernels) > 1 {
					buf.y1[i] = evalPiece(&c.res.Kernels[1], c.li, rr)
				}
			}
			t3 := tr.now()
			for i, x := range src {
				switch {
				case !buf.ok[i]:
					buf.v[i] = c.red.Special(x)
				case special[i]:
					buf.v[i] = c.proxy[bi][i]
				default:
					buf.v[i] = c.red.Compensate(buf.ctx[i], buf.y0[i], buf.y1[i])
				}
			}
			t4 := tr.now()
			for i := range src {
				buf.out[i] = c.rnd.Round(buf.v[i])
			}
			t5 := tr.now()
			tr.record(0, trace, root, "eval.Kernel.EvalBatch", t0, t1)
			tr.record(0, trace, root, "reduction.Lowered.Reduce", t1, t2)
			tr.record(0, trace, root, "poly.Structure.Eval", t2, t3)
			tr.record(0, trace, root, "reduction.Lowered.Compensate", t3, t4)
			tr.record(0, trace, root, "fp.Rounder.Round", t4, t5)
			tr.record(root, trace, 0, "bench.batch", t0, t5)
			for i := range src {
				if buf.out[i] != dst[i] {
					r.res.fail("eval-lib %v %v %v: phase replay(%v) = %#x, kernel %#x", c.fn, c.f, c.mode, src[i], buf.out[i], dst[i])
				}
			}
			f := c.tag
			kernelNS[f] += float64(t1 - t0)
			reduceNS[f] += float64(t2 - t1)
			hornerNS[f] += float64(t3 - t2)
			compNS[f] += float64(t4 - t3)
			roundNS[f] += float64(t5 - t4)
			inputs[f] += float64(len(src))
			r.res.Attempted += int64(len(src))
		}
		bi = (bi + 1) % cfg.batches
	}
	var allNS, allInputs float64
	for f, tag := range evalFormats {
		k := kernelNS[f]
		if k <= 0 {
			continue
		}
		r.res.layer("reduction.reduce_frac."+tag, reduceNS[f]/k)
		r.res.layer("poly.horner_frac."+tag, hornerNS[f]/k)
		r.res.layer("reduction.compensate_frac."+tag, compNS[f]/k)
		r.res.layer("fp.round_frac."+tag, roundNS[f]/k)
		r.res.layer("eval.self_frac."+tag, (k-reduceNS[f]-hornerNS[f]-compNS[f]-roundNS[f])/k)
		r.res.layer("eval.kernel_inputs_per_s."+tag, inputs[f]/k*1e9)
		r.res.detail("eval.kernel_ns."+tag, "ns", k/inputs[f], int(inputs[f]))
		r.res.detail("reduction.reduce_ns."+tag, "ns", reduceNS[f]/inputs[f], int(inputs[f]))
		r.res.detail("poly.horner_ns."+tag, "ns", hornerNS[f]/inputs[f], int(inputs[f]))
		r.res.detail("reduction.compensate_ns."+tag, "ns", compNS[f]/inputs[f], int(inputs[f]))
		r.res.detail("fp.round_ns."+tag, "ns", roundNS[f]/inputs[f], int(inputs[f]))
		allNS += k
		allInputs += inputs[f]
	}
	// The traced throughput counts kernel time only, so it compares with
	// the untraced run's as the tracing overhead.
	r.res.Metrics["throughput"] = metric{Value: allInputs / allNS * 1e9, Unit: "1/s", N: int(trace)}
	counters := r.rec.Report().Counters
	if in := counters[string(obs.CtrEvalInputs)]; in > 0 {
		r.res.layer("eval.special_frac", float64(counters[string(obs.CtrEvalSpecialHits)])/float64(in))
	}
	trunc, full := counters[string(obs.CtrEvalTruncated)], counters[string(obs.CtrEvalFull)]
	if trunc+full > 0 {
		r.res.layer("eval.truncated_frac", float64(trunc)/float64(trunc+full))
	}
}

// callPhase is the state of phase B: the latency samples of the current
// segment and, in a traced run, the layer times.
type callPhase struct {
	r       *run
	cells   []evalCell
	cfg     evalConfig
	groupNS []uint32 // one latency sample each: the time of cfg.group calls
	sink    uint64
	// Traced runs only.
	trace                          uint64
	callNS, refNS, lookupNS, calls float64
}

// evalPhaseB times the per-call API in groups of consecutive calls on one
// cell; each group is one latency sample (per call). The phase runs in
// segments of cfg.round with the speed probed between them; latency_p50_us
// and latency_p99_us are the medians over segments of each segment's
// percentile. A traced run also times, per visit, the reference evaluator
// on the same inputs and the cached kernel lookup the batch path pays
// instead.
func evalPhaseB(r *run, cells []evalCell, cfg evalConfig) {
	ph := &callPhase{r: r, cells: cells, cfg: cfg}
	var p50s, p99s []float64
	var groups int
	var totalNS float64
	pos := 0
	phase := time.Now()
	for time.Since(phase) < cfg.phaseB {
		ph.groupNS = ph.groupNS[:0]
		segment := time.Now()
		for time.Since(segment) < cfg.round {
			ph.cycle(pos)
			pos += cfg.callsPerVisit
		}
		r.between()
		// Percentiles straight from the integer samples: converting them
		// all to float64 would add its own peak to max_rss_mb.
		g := ph.groupNS
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		perCall := func(q float64) float64 {
			at := q * float64(len(g)-1)
			lo := int(at)
			v := float64(g[lo])
			if lo+1 < len(g) {
				v += (at - float64(lo)) * (float64(g[lo+1]) - v)
			}
			return v / 1e3 / float64(cfg.group)
		}
		p50s, p99s = append(p50s, perCall(0.50)), append(p99s, perCall(0.99))
		groups += len(g)
		for _, ns := range g {
			totalNS += float64(ns)
		}
	}
	if groups == 0 {
		r.res.fail("eval-lib: phase B took no latency sample")
		return
	}
	r.res.Metrics["latency_p50_us"] = summarize("us", p50s)
	r.res.Metrics["latency_p99_us"] = summarize("us", p99s)
	r.res.detail("libm.calls_per_s", "1/s", float64(groups*cfg.group)/totalNS*1e9, groups)
	if r.tr != nil && ph.callNS > 0 {
		r.res.layer("gen.result_eval_frac", ph.refNS/ph.callNS)
		r.res.layer("libm.call_overhead_frac", (ph.callNS-ph.refNS)/ph.callNS)
		r.res.layer("libm.kernel_lookup_frac", ph.lookupNS/ph.callNS)
		r.res.layer("libm.calls_per_s", ph.calls/ph.callNS*1e9)
	}
}

// cycle visits every cell once with cfg.callsPerVisit per-call API calls
// from corpus position pos on.
func (ph *callPhase) cycle(pos int) {
	r, tr, cfg := ph.r, ph.r.tr, ph.cfg
	for ci := range ph.cells {
		c := &ph.cells[ci]
		n := len(c.b)
		var root uint64
		var v0 int64
		if tr != nil {
			ph.trace++
			root = tr.newID()
			v0 = tr.now()
		}
		for g := 0; g < cfg.callsPerVisit; g += cfg.group {
			start := time.Now()
			for k := 0; k < cfg.group; k++ {
				y, err := c.call(c.b[(pos+g+k)%n])
				if err != nil {
					r.res.fail("eval-lib %v %v %v: per-call: %v", c.fn, c.f, c.mode, err)
				}
				ph.sink ^= y
			}
			ph.groupNS = append(ph.groupNS, uint32(time.Since(start).Nanoseconds()))
		}
		r.res.Attempted += int64(cfg.callsPerVisit)
		if tr == nil {
			continue
		}
		v1 := tr.now()
		for k := 0; k < cfg.callsPerVisit; k++ {
			ph.sink ^= c.res.Eval(c.bx[(pos+k)%n], c.li, c.f, c.mode)
		}
		v2 := tr.now()
		for k := 0; k < cfg.callsPerVisit; k++ {
			if _, err := libm.Kernel(c.fn, c.f, c.mode); err != nil {
				r.res.fail("eval-lib %v %v %v: Kernel: %v", c.fn, c.f, c.mode, err)
			}
		}
		v3 := tr.now()
		tr.record(0, ph.trace, root, apiName(c.api), v0, v1)
		tr.record(0, ph.trace, root, "gen.Result.Eval", v1, v2)
		tr.record(0, ph.trace, root, "libm.Kernel", v2, v3)
		tr.record(root, ph.trace, 0, "bench.calls", v0, v3)
		ph.callNS += float64(v1 - v0)
		ph.refNS += float64(v2 - v1)
		ph.lookupNS += float64(v3 - v2)
		ph.calls += float64(cfg.callsPerVisit)
	}
}

func apiName(api int) string {
	switch api {
	case apiBfloat16:
		return "libm.Bfloat16"
	case apiTensorFloat32:
		return "libm.TensorFloat32"
	default:
		return "libm.Largest"
	}
}
