// Command bench is the repository's benchmark: four workloads over the
// generated math library, each measured end to end with tracing off and,
// in a separate traced run, split by layer with spans recorded around the
// benchmark's calls into libm, eval, reduction, poly, fp, serve, oracle,
// verify, gen, cli and pipeline. See README.md for the workloads, metrics
// and bounds.
//
// Build and run from the repository root with bench/run.sh, which keeps
// every build and run artifact under .bench_build/:
//
//	bash bench/run.sh -seed 1                  # every workload, untraced then traced
//	bash bench/run.sh --workload eval-lib --seed 3 --seconds 25 --trace 0
//	bash bench/run.sh -repeat 3 -out a.json    # three untraced runs per workload
//	bash bench/run.sh -compare a.json b.json   # verdicts from BENCHMARK.json bounds
//	bash bench/run.sh -compare -repeat 5 ../parent .   # alternate two checkouts
//	bash bench/run.sh -calibrate-serve         # propose serve-mixed step rates
//
// With -workload the run happens in this process and its last line of
// standard output is the JSON summary {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer metrics with
// -trace 1. Without -workload every workload runs in its own child process.
// The exit status is 1 when any output was wrong or any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// workload is one set of inputs the benchmark runs. serial workloads keep
// one goroutine busy, the others one per CPU; the speed reference runs on
// as many.
type workload struct {
	name   string
	run    func(p params, r *run) error
	serial bool
}

var workloads = []workload{
	{"eval-lib", runEvalLib, true},
	{"serve-mixed", runServeMixed, false},
	{"certify-shipped", runCertify, false},
	{"gen-cold", runGenCold, false},
}

// params are a run's inputs. They are kept apart from the run's
// measurements (run) so that nothing timed can flow into the generation
// options the workloads build from them — the nondetflow analyzer of
// rlibm-lint checks exactly that.
type params struct {
	seed    int64
	budget  time.Duration // how long the run measures
	toy     bool          // tiny sizes, for the smoke test
	workers int           // worker goroutines of the verify and generate stages
}

// run is the state of one workload run.
type run struct {
	tr     *tracer       // nil when untraced
	rec    *obs.Recorder // counters of a traced run; nil when untraced
	speed  *speedMeter   // probed between measurement intervals
	setup  setupFunc
	setupS []float64 // set-up durations, s
	res    *result
}

// setupFunc builds a workload's set-up state once. keep says whether the
// workload goes on to use what it builds; when it does not, the returned
// undo (nil when there is nothing to release) releases it, untimed.
type setupFunc func(keep bool) (undo func(), err error)

// setUp builds the state the workload measures, timing it as the first
// sample of setup_s. Every later call of between adds a sample from one
// more repetition, whose state is discarded, so that the samples spread
// over the whole run rather than one moment of it; setup_s is their median.
func (r *run) setUp(fn setupFunc) error {
	r.setup = fn
	return r.setupRep(true)
}

func (r *run) setupRep(keep bool) error {
	start := time.Now()
	undo, err := r.setup(keep)
	d := time.Since(start)
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, d.Seconds())
	if undo != nil {
		undo()
	}
	return nil
}

// between runs between two measurement intervals: one more set-up sample,
// then one speed probe.
func (r *run) between() {
	if r.setup != nil {
		if err := r.setupRep(false); err != nil {
			r.res.fail("%s: set-up: %v", r.res.Workload, err)
		}
	}
	r.speed.probe()
}

func newResult(name string, seed int64, seconds int, traced bool) *result {
	res := &result{Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Metrics: make(map[string]metric), Detail: make(map[string]metric),
		Provenance: newProvenance(seed)}
	if traced {
		res.Layers = make(map[string]metric)
		for _, s := range perLayer {
			res.Layers[s.name] = metric{Unit: s.unit}
		}
	}
	return res
}

// runWorkload runs one workload in this process. The spans are nil for an
// untraced run.
func runWorkload(name string, seed int64, seconds int, traced, toy bool) (*result, []span, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	p := params{seed: seed, budget: time.Duration(seconds) * time.Second, toy: toy, workers: runtime.NumCPU()}
	busy := p.workers
	if w.serial {
		busy = 1
	}
	r := &run{res: newResult(name, seed, seconds, traced), speed: newSpeedMeter(busy)}
	if traced {
		r.tr = newTracer()
		r.rec = obs.New("bench")
	}
	r.speed.probe()
	if err := w.run(p, r); err != nil {
		r.res.fail("%s: %v", name, err)
	}
	r.speed.probe()
	r.res.Metrics["setup_s"] = summarize("s", r.setupS)
	r.speed.normalize(r.res)
	r.res.Metrics["max_rss_mb"] = metric{Value: maxRSSMB(), Unit: "MB", N: 1}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	var spans []span
	if r.tr != nil {
		spans = r.tr.finish()
		for name, ns := range selfByName(spans) {
			r.res.detail("trace.self_s."+name, "s", float64(ns)/1e9, 1)
		}
	}
	return r.res, spans, nil
}

// resultFile is the layout of -out: every run made, each with its
// provenance.
type resultFile struct {
	Runs              []*result          `json:"runs"`
	TraceOverheadFrac map[string]float64 `json:"trace_overhead_frac,omitempty"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process (eval-lib, serve-mixed, certify-shipped, gen-cold); empty runs all")
		seed      = flag.Int64("seed", 1, "workload seed: every input is drawn from it")
		seconds   = flag.Int("seconds", 25, "how long one workload run measures")
		traceFlag = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out       = flag.String("out", "", "write every result as JSON to this file")
		traceOut  = flag.String("trace-out", "", "write the spans of traced runs as JSONL to this file")
		repeat    = flag.Int("repeat", 1, "untraced runs per workload (seeds seed, seed+1, …); with -compare of two checkouts, runs per side")
		compare   = flag.Bool("compare", false, "compare two result files or checkouts given as arguments, with the bounds of ./BENCHMARK.json")
		calibrate = flag.Bool("calibrate-serve", false, "measure serve-mixed closed-loop capacity and propose step rates")
	)
	flag.Parse()
	if *seconds < 1 || *repeat < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	switch {
	case *calibrate:
		if err := calibrateServe(*seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files or checkout directories")
			os.Exit(2)
		}
		os.Exit(runCompare("BENCHMARK.json", flag.Arg(0), flag.Arg(1), *repeat, *seed))
	case *name != "":
		os.Exit(runOne(*name, *seed, *seconds, *traceFlag == 1, *out, *traceOut))
	default:
		os.Exit(runAll(*seed, *seconds, *repeat, *out, *traceOut))
	}
}

// runOne runs one workload in this process and prints its results, the
// JSON summary last.
func runOne(name string, seed int64, seconds int, traced bool, out, traceOut string) int {
	res, spans, err := runWorkload(name, seed, seconds, traced, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res.printHuman(os.Stdout)
	if out != "" {
		if err := writeJSON(out, resultFile{Runs: []*result{res}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if traceOut != "" && spans != nil {
		f, err := os.Create(traceOut)
		if err == nil {
			err = writeJSONL(f, spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in child processes: repeat untraced runs,
// then one traced run, and reports the tracing overhead as the share of
// untraced throughput the traced run lost.
func runAll(seed int64, seconds, repeat int, out, traceOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "rlibm-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	file := resultFile{TraceOverheadFrac: make(map[string]float64)}
	var traceFiles []string
	status := 0
	for _, w := range workloads {
		var untraced []float64
		for rep := 0; rep <= repeat; rep++ {
			traced := rep == repeat
			s := seed + int64(rep)
			if traced {
				s = seed
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, rep))
			argv := []string{exe, "-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds)}
			if traced {
				tpath := filepath.Join(dir, w.name+".jsonl")
				argv = append(argv, "-trace", "1", "-trace-out", tpath)
				traceFiles = append(traceFiles, tpath)
			}
			res, err := runChild("", argv, path, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			file.Runs = append(file.Runs, res)
			// Both sides of the overhead are measured rates, not rates at
			// reference speed: the traced run probes the speed less often.
			if tp := res.Detail["throughput_raw"].Value; traced && tp > 0 && len(untraced) > 0 {
				base := median(untraced)
				file.TraceOverheadFrac[w.name] = (base - tp) / base
			} else if !traced {
				untraced = append(untraced, tp)
			}
		}
	}
	printSummary(&file)
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if traceOut != "" {
		if err := concatFiles(traceOut, traceFiles); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload as the command argv, in dir (the current
// directory when empty), with "-out path" appended; it passes the child's
// standard output to stdout and reads the result the child wrote. A child
// that reports wrong outputs still yields its result.
func runChild(dir string, argv []string, path string, stdout io.Writer) (*result, error) {
	cmd := exec.Command(argv[0], append(append([]string(nil), argv[1:]...), "-out", path)...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	runs, err := loadRuns(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%v: %w", argv, runErr)
		}
		return nil, err
	}
	if len(runs) != 1 {
		return nil, fmt.Errorf("%s: %d results, want 1", path, len(runs))
	}
	return runs[0], nil
}

// printSummary prints every run's end-to-end metrics and the per-layer
// metrics its traced run measured (the layers a workload does not exercise
// read 0 and are left out) as "workload metric value unit n=…", then the
// tracing overhead per workload.
func printSummary(f *resultFile) {
	fmt.Println("# summary")
	for _, res := range f.Runs {
		m, specs := res.Metrics, endToEnd
		if res.Trace {
			m, specs = res.Layers, perLayer
		}
		for _, s := range specs {
			if v := m[s.name]; !res.Trace || v.N > 0 {
				fmt.Printf("%s %s %.6g %s n=%d seed=%d trace=%v\n", res.Workload, s.name, v.Value, s.unit, v.N, res.Seed, res.Trace)
			}
		}
	}
	for _, w := range workloads {
		if v, ok := f.TraceOverheadFrac[w.name]; ok {
			fmt.Printf("%s trace_overhead_frac %.4f frac\n", w.name, v)
		}
	}
}

// concatFiles writes the concatenation of srcs to dst.
func concatFiles(dst string, srcs []string) error {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	for _, s := range srcs {
		in, err := os.Open(s)
		if err != nil {
			out.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if err != nil {
			out.Close()
			return err
		}
	}
	return out.Close()
}
