// Command rlibm-fig4 regenerates Figure 4 of the paper: the speedup of
// RLIBM-Prog's bfloat16, tensorfloat32 and largest-format ("float")
// functions over (a) the glibc substitute, (b) the Intel substitute,
// (c) the CR-LIBM substitute and (d) the RLibm-All baseline.
//
// Timing follows the paper's methodology in spirit: for every function and
// format, the total time to compute the function over a fixed corpus of
// valid inputs, here measured with monotonic-clock batches instead of
// rdtscp cycles. The libraries of one cell are timed interleaved, round
// by round, and each reports its median round. Both generated libraries
// — RLIBM-Prog ("ours") and the RLibm-All baseline (d) — are timed on the
// path users run: an eval.Compile kernel's EvalBatch over the corpus. The
// "full ns" column times the same corpus through a kernel pinned to the
// largest level's full polynomial (eval.CompileAt), so "ours" minus
// "full" is the progressive effect the served kernel delivers.
//
// By default the timed libraries come from the emitted internal/libm
// tables; with -generate they are generated through the staged pipeline,
// reusing the shared artifact store (-store), so a table1 → table2 →
// fig4 sequence enumerates each function exactly once.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bigmath"
	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/fp"
)

const corpusSize = 4096

// corpus returns input values of format f drawn from the function's
// interesting domain (where the polynomial path runs; the same corpus is
// fed to every library).
func corpus(fn bigmath.Func, f fp.Format, rng *rand.Rand) []float64 {
	out := make([]float64, 0, corpusSize)
	for len(out) < corpusSize {
		var x float64
		switch fn {
		case bigmath.Ln, bigmath.Log2, bigmath.Log10:
			x = math.Ldexp(rng.Float64()+0.5, rng.Intn(200)-100)
		case bigmath.Exp, bigmath.Exp2, bigmath.Exp10:
			x = (rng.Float64()*2 - 1) * 70
		case bigmath.Sinh, bigmath.Cosh:
			x = (rng.Float64()*2 - 1) * 80
		default:
			x = (rng.Float64()*2 - 1) * 16
		}
		x = f.Decode(f.FromFloat64(x, fp.RoundNearestEven))
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Timing rounds and the length of one timed window.
const (
	timeRounds = 5
	timeWindow = 20 * time.Millisecond
)

// timeAll measures ns/op of each batch function in fs. The functions are
// interleaved: every round times each one for one window, starting the
// rotation one function later each round, so machine-load drift lands on
// all of them alike. Each result is the median of its rounds.
func timeAll(fs ...func()) []float64 {
	for _, f := range fs {
		f() // warm up
	}
	per := make([][]float64, len(fs))
	for round := 0; round < timeRounds; round++ {
		for j := range fs {
			i := (j + round) % len(fs)
			n := 0
			start := time.Now()
			for time.Since(start) < timeWindow {
				fs[i]()
				n++
			}
			per[i] = append(per[i], float64(time.Since(start).Nanoseconds())/float64(n)/corpusSize)
		}
	}
	out := make([]float64, len(fs))
	for i, ts := range per {
		sort.Float64s(ts)
		out[i] = ts[len(ts)/2]
	}
	return out
}

func main() {
	common := cli.Register(flag.CommandLine)
	generate := flag.Bool("generate", false, "generate the RLIBM libraries through the staged pipeline instead of using the emitted internal/libm tables")
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()
	rec := common.NewRecorder()
	seed := &common.Seed
	// Timing is serial; -workers pins GOMAXPROCS so runs stay comparable.
	runtime.GOMAXPROCS(common.Workers)

	libs, done, err := common.Libraries(*generate, rec)
	if err != nil {
		log.Fatal(err)
	}
	defer done()
	largest := libs.Largest
	formats := []struct {
		name string
		f    fp.Format
	}{
		{"bfloat16", fp.Bfloat16},
		{"tensorfloat32", fp.TensorFloat32},
		{"float" + fmt.Sprint(largest.Bits()), largest},
	}
	type series struct {
		name    string
		speedup map[string][]float64 // format name → per-function speedups
	}
	comparators := []string{"glibc-sub (a)", "intel-sub (b)", "crlibm-sub (c)", "RLibm-All (d)"}
	oursSeries, fullSeries := map[string][]float64{}, map[string][]float64{}
	results := map[string]*series{}
	for _, c := range comparators {
		results[c] = &series{name: c, speedup: map[string][]float64{}}
	}

	fmt.Println("Figure 4: speedup of RLIBM-Prog progressive functions over each comparator")
	fmt.Printf("%-7s %-14s %10s %10s | %10s %10s %10s %10s\n",
		"f(x)", "format", "ours ns/op", "full ns", "glibc", "intel", "crlibm", "rlibm-all")
	fmt.Println(strings.Repeat("-", 103))

	for _, fn := range bigmath.AllFuncs {
		prog, err := libs.Prog(fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v: %v\n", fn, err)
			os.Exit(1)
		}
		base, err := libs.Base(fn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v: %v\n", fn, err)
			os.Exit(1)
		}
		ml := baseline.MathLibm{Fn: fn}
		ddl := baseline.DDLibm{Fn: fn}
		crl := baseline.CRLibm{Fn: fn}
		rng := rand.New(rand.NewSource(*seed ^ int64(fn)))
		for _, fc := range formats {
			xs := corpus(fn, fc.f, rng)
			kProg, err := eval.Compile(prog, fc.f, fp.RoundNearestEven)
			if err != nil {
				log.Fatal(err)
			}
			kFull, err := eval.CompileAt(prog, len(prog.Levels)-1, fc.f, fp.RoundNearestEven)
			if err != nil {
				log.Fatal(err)
			}
			kBase, err := eval.Compile(base, fc.f, fp.RoundNearestEven)
			if err != nil {
				log.Fatal(err)
			}
			dst := make([]uint64, len(xs))
			var sink uint64
			ts := timeAll(
				func() { kProg.EvalBatch(dst, xs) },
				func() { kFull.EvalBatch(dst, xs) },
				func() {
					for _, x := range xs {
						sink += fc.f.FromFloat64(ml.Value(x), fp.RoundNearestEven)
					}
				},
				func() {
					for _, x := range xs {
						sink += fc.f.FromFloat64(ddl.Value(x), fp.RoundNearestEven)
					}
				},
				func() {
					for _, x := range xs {
						sink += fc.f.FromFloat64(crl.Value(x, fp.RoundNearestEven), fp.RoundNearestEven)
					}
				},
				func() { kBase.EvalBatch(dst, xs) },
			)
			ours, full, tGlibc, tIntel, tCr, tAll := ts[0], ts[1], ts[2], ts[3], ts[4], ts[5]
			_ = sink
			sp := func(t float64) float64 { return (t - ours) / ours * 100 }
			fmt.Printf("%-7s %-14s %10.1f %10.1f | %9.0f%% %9.0f%% %9.0f%% %9.0f%%\n",
				fn, fc.name, ours, full, sp(tGlibc), sp(tIntel), sp(tCr), sp(tAll))
			oursSeries[fc.name] = append(oursSeries[fc.name], ours)
			fullSeries[fc.name] = append(fullSeries[fc.name], full)
			results["glibc-sub (a)"].speedup[fc.name] = append(results["glibc-sub (a)"].speedup[fc.name], sp(tGlibc))
			results["intel-sub (b)"].speedup[fc.name] = append(results["intel-sub (b)"].speedup[fc.name], sp(tIntel))
			results["crlibm-sub (c)"].speedup[fc.name] = append(results["crlibm-sub (c)"].speedup[fc.name], sp(tCr))
			results["RLibm-All (d)"].speedup[fc.name] = append(results["RLibm-All (d)"].speedup[fc.name], sp(tAll))
		}
	}

	fmt.Println(strings.Repeat("-", 103))
	fmt.Println("served vs full-polynomial kernel averages (ns/op):")
	for _, fc := range formats {
		fmt.Printf("  %-14s ours %6.1f  full %6.1f\n", fc.name, mean(oursSeries[fc.name]), mean(fullSeries[fc.name]))
	}
	fmt.Println("averages (the paper's per-cluster 'avg.' bars):")
	for _, c := range comparators {
		fmt.Printf("  vs %-14s:", c)
		for _, fc := range formats {
			fmt.Printf("  %s %+.0f%%", fc.name, mean(results[c].speedup[fc.name]))
		}
		fmt.Println()
	}
	if err := common.FinishRun(rec, "rlibm-fig4"); err != nil {
		log.Fatal(err)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
