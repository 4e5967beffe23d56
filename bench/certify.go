package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fp"
	"repro/internal/libm"
	"repro/internal/oracle"
	"repro/internal/parallel"
	"repro/internal/verify"
)

// The certify-shipped workload: verify.Exhaustive over every bfloat16 and
// tensorfloat32 input of the committed tables, under all five rounding
// modes, evaluated through the serving kernels and checked against the
// oracle. A pass certifies one function, both formats, with a fresh oracle
// — what an operator waits for after changing that function's table; a
// sweep passes over all ten functions in an order drawn from the seed, and
// sweeps repeat while they fit the run. One operation is one (input, mode)
// check: throughput is checks per second; latency is the time of one pass.

type certifyConfig struct {
	formats []fp.Format
	funcs   []bigmath.Func
	workers int
}

func certifyConfigFor(p params) certifyConfig {
	if p.toy {
		return certifyConfig{formats: []fp.Format{fp.MustFormat(10, 8)},
			funcs: []bigmath.Func{bigmath.Exp2, bigmath.CosPi}, workers: p.workers}
	}
	return certifyConfig{formats: []fp.Format{fp.Bfloat16, fp.TensorFloat32},
		funcs: bigmath.AllFuncs, workers: p.workers}
}

// kernelImpl serves verify.Impl queries from the compiled kernels of one
// (function, format), one per standard rounding mode.
type kernelImpl [5]*eval.Kernel

func (k *kernelImpl) Bits(x float64, _ fp.Format, mode fp.Mode) uint64 { return k[mode].Eval(x) }

// certifyTable is one sweep of a pass: a function's table in one format.
type certifyTable struct {
	fn   bigmath.Func
	f    fp.Format
	impl *kernelImpl
}

// compileTables compiles the kernels of every table, as libm.Kernel does
// on first use, with one evaluation each.
func compileTables(cfg certifyConfig) (map[bigmath.Func][]certifyTable, error) {
	tables := make(map[bigmath.Func][]certifyTable, len(cfg.funcs))
	for _, fn := range cfg.funcs {
		res, err := libm.Progressive(fn)
		if err != nil {
			return nil, err
		}
		for _, f := range cfg.formats {
			var impl kernelImpl
			for _, m := range fp.StandardModes {
				k, err := eval.Compile(res, f, m)
				if err != nil {
					return nil, err
				}
				k.Eval(1)
				impl[m] = k
			}
			tables[fn] = append(tables[fn], certifyTable{fn: fn, f: f, impl: &impl})
		}
	}
	return tables, nil
}

// passOutcome is what one pass, or the sum of several, measured.
type passOutcome struct {
	checks    uint64
	wall      time.Duration
	fnChecks  [bigmath.NumFuncs]float64
	fnSeconds [bigmath.NumFuncs]float64
	oracle    oracle.Stats
}

func (p *passOutcome) add(q passOutcome) {
	p.checks += q.checks
	p.wall += q.wall
	for i := range p.fnChecks {
		p.fnChecks[i] += q.fnChecks[i]
		p.fnSeconds[i] += q.fnSeconds[i]
	}
	p.oracle = addStats(p.oracle, q.oracle)
}

func runCertify(p params, r *run) error {
	cfg := certifyConfigFor(p)
	rng := rand.New(rand.NewSource(p.seed))

	// Set-up: compile every kernel the passes evaluate through; the kept
	// kernels are the ones swept.
	var tables map[bigmath.Func][]certifyTable
	if err := r.setUp(func(keep bool) (func(), error) {
		t, err := compileTables(cfg)
		if keep {
			tables = t
		}
		return nil, err
	}); err != nil {
		return err
	}

	var total passOutcome
	var passUS []float64
	var passFn []bigmath.Func
	start := time.Now()
	for sweeps := 1; ; sweeps++ {
		for _, fi := range rng.Perm(len(cfg.funcs)) {
			fn := cfg.funcs[fi]
			runtime.GC() // each pass starts from the same heap
			pass := certifyPass(r, tables[fn], cfg.workers)
			r.between()
			total.add(pass)
			passUS = append(passUS, us(pass.wall))
			passFn = append(passFn, fn)
		}
		if r.tr != nil || !morePasses(time.Since(start), sweeps, p.budget) {
			break
		}
	}
	r.res.Attempted += int64(total.checks)
	r.res.Metrics["throughput"] = metric{Value: float64(total.checks) / total.wall.Seconds(), Unit: "1/s", N: len(passUS)}
	setLatency(r, passUS)
	passDetail(r, passUS, passFn)
	if r.tr != nil {
		certifyLayers(r, tables, cfg.funcs, cfg.workers, total)
	}
	return nil
}

// setLatency reports the median and the 99th percentile of latency
// samples (µs) as latency_p50_us and latency_p99_us.
func setLatency(r *run, samples []float64) {
	lat := sortedCopy(samples)
	r.res.Metrics["latency_p50_us"] = metric{Value: median(lat), Unit: "us", N: len(lat)}
	r.res.Metrics["latency_p99_us"] = metric{Value: percentile(lat, 0.99), Unit: "us", N: len(lat)}
}

// passDetail reports each function's median pass time as the detail line
// pass_us.<fn>.
func passDetail(r *run, passUS []float64, passFn []bigmath.Func) {
	byFn := make([][]float64, bigmath.NumFuncs)
	for i, fn := range passFn {
		byFn[fn] = append(byFn[fn], passUS[i])
	}
	for fn, xs := range byFn {
		if len(xs) > 0 {
			r.res.Detail["pass_us."+bigmath.Func(fn).String()] = summarize("us", xs)
		}
	}
}

// morePasses reports whether another sweep, as long as the average of the
// sweeps done so far, would end no more than half a sweep after the budget.
func morePasses(elapsed time.Duration, sweeps int, budget time.Duration) bool {
	per := elapsed / time.Duration(sweeps)
	return elapsed+per/2 <= budget
}

// certifyPass sweeps one function's tables with a fresh oracle.
func certifyPass(r *run, tables []certifyTable, workers int) passOutcome {
	var p passOutcome
	start := time.Now()
	orc := oracle.New(tables[0].fn)
	for _, t := range tables {
		var t0 int64
		if r.tr != nil {
			t0 = r.tr.now()
		}
		ts := time.Now()
		reps := verify.Exhaustive(t.impl, orc, t.f, fp.StandardModes, workers)
		d := time.Since(ts)
		if r.tr != nil {
			r.tr.record(0, uint64(t.fn)+1, 0, "verify.Exhaustive", t0, r.tr.now())
		}
		var checks uint64
		for _, rep := range reps {
			checks += rep.Checked
			for _, b := range rep.Mismatches {
				r.res.fail("certify-shipped %v %v %v: input %#x is not correctly rounded", t.fn, rep.Format, rep.Mode, b)
			}
		}
		p.checks += checks
		p.fnChecks[t.fn] += float64(checks)
		p.fnSeconds[t.fn] += d.Seconds()
	}
	p.oracle = orc.Stats()
	p.wall = time.Since(start)
	return p
}

func addStats(a, b oracle.Stats) oracle.Stats {
	return oracle.Stats{
		Specials: a.Specials + b.Specials, Exacts: a.Exacts + b.Exacts, Clamps: a.Clamps + b.Clamps,
		Anchors: a.Anchors + b.Anchors, Shared: a.Shared + b.Shared, FullEvals: a.FullEvals + b.FullEvals,
		Ambiguous: a.Ambiguous + b.Ambiguous,
	}
}

// certifyLayers splits the traced sweep: the same tables once more through
// the oracle alone (fresh oracles, the same round-to-odd queries the sweep
// makes) and once through the kernels alone; verify's own share is the
// rest of the sweep's wall time.
func certifyLayers(r *run, tables map[bigmath.Func][]certifyTable, funcs []bigmath.Func, workers int, sweep passOutcome) {
	tr := r.tr
	var oracleNS, kernelNS, queries float64
	for _, fn := range funcs {
		orc := oracle.New(fn)
		for _, t := range tables[fn] {
			ext := t.f.Extend(2)
			t0 := tr.now()
			forRange(t.f.NumValues(), workers, func(b uint64) {
				orc.Result(t.f.Decode(b), ext, fp.RoundToOdd)
			})
			t1 := tr.now()
			impl, f := t.impl, t.f
			forRange(t.f.NumValues(), workers, func(b uint64) {
				x := f.Decode(b)
				for _, m := range fp.StandardModes {
					impl.Bits(x, f, m)
				}
			})
			t2 := tr.now()
			tr.record(0, uint64(fn)+1, 0, "oracle.Oracle.Result", t0, t1)
			tr.record(0, uint64(fn)+1, 0, "eval.Kernel.Eval", t1, t2)
			oracleNS += float64(t1 - t0)
			kernelNS += float64(t2 - t1)
			queries += float64(t.f.NumValues())
		}
	}
	wall := float64(sweep.wall)
	r.res.layer("oracle.result_frac", oracleNS/wall)
	r.res.layer("eval.kernel_frac", kernelNS/wall)
	r.res.layer("verify.self_frac", (wall-oracleNS-kernelNS)/wall)
	r.res.layer("oracle.queries_per_s", queries/oracleNS*1e9)
	for _, fn := range bigmath.AllFuncs {
		if s := sweep.fnSeconds[fn]; s > 0 {
			r.res.layer("checks_per_s."+fn.String(), sweep.fnChecks[fn]/s)
		}
	}
	r.res.layer("oracle.full_evals", float64(sweep.oracle.FullEvals))
	r.res.layer("oracle.shared", float64(sweep.oracle.Shared))
	r.res.layer("oracle.anchors", float64(sweep.oracle.Anchors))
	r.res.layer("oracle.ziv_escalations", float64(sweep.oracle.Ambiguous))
	r.res.detail("oracle.result_s", "s", oracleNS/1e9, len(funcs))
	r.res.detail("eval.kernel_s", "s", kernelNS/1e9, len(funcs))
	r.res.detail("verify.sweep_s", "s", wall/1e9, len(funcs))
}

// forRange calls f for every b in [0, n) on workers goroutines, sharded
// the way verify.Exhaustive shards its sweeps, and returns when all have
// finished.
func forRange(n uint64, workers int, f func(b uint64)) {
	shards := parallel.SplitRange(n, parallel.ShardCount(workers))
	parallel.ForEach(workers, len(shards), func(i int) {
		for b := shards[i].Lo; b < shards[i].Hi; b++ {
			f(b)
		}
	})
}
