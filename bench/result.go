package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bigmath"
)

// spec names one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesSpecs keeps them in step);
// the regression bounds live only there. speed says how the metric is
// reported at reference speed (see speed.go): +1 for a time, multiplied by
// the run's speed factor, −1 for a rate, divided by it, 0 for neither.
type spec struct {
	name, unit, better string
	speed              int
}

// endToEnd are the metrics a user of the library sees. Every workload
// reports all of them from its untraced run; what counts as one operation
// is the workload's own (see README.md).
var endToEnd = []spec{
	{"setup_s", "s", "lower", +1},
	{"throughput", "1/s", "higher", -1},
	{"latency_p50_us", "us", "lower", +1},
	{"latency_p99_us", "us", "lower", +1},
	{"max_rss_mb", "MB", "lower", 0},
}

// Format tags of the eval-lib cells and step names of serve-mixed, used in
// per-layer metric names.
var (
	evalFormats = []string{"bf16", "tf32", "f22"}
	serveSteps  = []string{"lo", "mid", "hi"}
)

// perLayer are the metrics of single layers, measured by the traced run.
// Every traced run reports all of them; a layer the workload does not
// exercise reads 0. Time splits are shares (frac) of the workload's own
// operation time, so the list carries no time unit that could read 0.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	var s []spec
	add := func(name, unit, better string) { s = append(s, spec{name: name, unit: unit, better: better}) }
	// eval-lib: phase split of Kernel.EvalBatch per format, then the per-call API.
	for _, f := range evalFormats {
		add("reduction.reduce_frac."+f, "frac", "lower")
		add("poly.horner_frac."+f, "frac", "lower")
		add("reduction.compensate_frac."+f, "frac", "lower")
		add("fp.round_frac."+f, "frac", "lower")
		add("eval.self_frac."+f, "frac", "lower")
		add("eval.kernel_inputs_per_s."+f, "1/s", "higher")
	}
	add("eval.special_frac", "frac", "lower")
	add("eval.truncated_frac", "frac", "higher")
	add("gen.result_eval_frac", "frac", "lower")
	add("libm.call_overhead_frac", "frac", "lower")
	add("libm.kernel_lookup_frac", "frac", "lower")
	add("libm.calls_per_s", "1/s", "higher")
	// serve-mixed: where one request's latency goes, per load step.
	for _, st := range serveSteps {
		add("serve.queue_frac."+st, "frac", "lower")
		add("serve.wire_frac."+st, "frac", "lower")
		add("serve.self_frac."+st, "frac", "lower")
		add("libm.evalbatch_frac."+st, "frac", "lower")
		add("serve.queue_p99_frac."+st, "frac", "lower")
	}
	add("serve.max_rate_rps", "1/s", "higher")
	add("serve.requests", "count", "higher")
	add("serve.shed", "count", "lower")
	add("serve.canceled", "count", "lower")
	add("eval.inputs", "count", "higher")
	add("eval.special_hits", "count", "lower")
	// certify-shipped: oracle, kernel and sweep shares; per-function rates.
	add("oracle.result_frac", "frac", "lower")
	add("eval.kernel_frac", "frac", "lower")
	add("verify.self_frac", "frac", "lower")
	add("oracle.queries_per_s", "1/s", "higher")
	for _, fn := range bigmath.AllFuncs {
		add("checks_per_s."+fn.String(), "1/s", "higher")
	}
	add("oracle.full_evals", "count", "lower")
	add("oracle.shared", "count", "higher")
	add("oracle.anchors", "count", "higher")
	add("oracle.ziv_escalations", "count", "lower")
	// gen-cold: stage shares of a cold pass and the solver's effort.
	add("gen.enumerate_frac", "frac", "lower")
	add("gen.solve_frac", "frac", "lower")
	add("gen.verify_frac", "frac", "lower")
	add("pipeline.warm_probes_per_s", "1/s", "higher")
	for _, fn := range bigmath.AllFuncs {
		add("gen.solve_frac."+fn.String(), "frac", "lower")
	}
	add("gen.raw_rows", "count", "lower")
	add("gen.merged_rows", "count", "lower")
	add("clarkson.iters", "count", "lower")
	add("clarkson.lucky", "count", "lower")
	add("lp.exact_solves", "count", "lower")
	add("gen.attempts", "count", "lower")
	add("verify.patched", "count", "lower")
	return s
}

// unitOf returns the unit of a per-layer metric.
func unitOf(name string) string {
	for _, s := range perLayer {
		if s.name == name {
			return s.unit
		}
	}
	return ""
}

// metric is one reported value. N is the sample count behind it; Q1 and
// Q3 are the quartiles of those samples when the value is their median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// scaled returns m with its value and quartiles multiplied by k.
func (m metric) scaled(k float64) metric {
	m.Value *= k
	m.Q1 *= k
	m.Q3 *= k
	return m
}

// result is everything one workload run measured. Metrics holds the
// end-to-end set (measured in traced runs too, where they carry the
// tracing overhead), Layers the per-layer set (traced runs only) and Detail
// the numbers printed for people but not gated.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Layers     map[string]metric `json:"layers,omitempty"`
	Detail     map[string]metric `json:"detail,omitempty"`
	Provenance provenance        `json:"provenance"`
}

// maxFailures caps the failure descriptions kept per run.
const maxFailures = 20

func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) layer(name string, v float64) {
	r.Layers[name] = metric{Value: v, Unit: unitOf(name), N: 1}
}

func (r *result) detail(name, unit string, v float64, n int) {
	r.Detail[name] = metric{Value: v, Unit: unit, N: n}
}

// summaryLine is the last line a run prints: the machine-readable summary.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the run's machine-readable last line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func (r *result) summary() summaryLine {
	line := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]valueUnit)}
	specs, src := endToEnd, r.Metrics
	if r.Trace {
		specs, src = perLayer, r.Layers
	}
	for _, s := range specs {
		line.Metrics[s.name] = valueUnit{Value: src[s.name].Value, Unit: s.unit}
	}
	return line
}

// printHuman writes one line per metric, "workload metric value unit n=…",
// in sorted order.
func (r *result) printHuman(w io.Writer) {
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s %s\n", r.Workload, title)
		names := make([]string, 0, len(m))
		for name := range m {
			//lint:ignore mapiter names are sorted below before anything is printed.
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := m[name]
			fmt.Fprintf(w, "%s %s %.6g %s n=%d", r.Workload, name, v.Value, v.Unit, v.N)
			if v.Q1 != 0 || v.Q3 != 0 {
				fmt.Fprintf(w, " q1=%.6g q3=%.6g", v.Q1, v.Q3)
			}
			fmt.Fprintln(w)
		}
	}
	section("end-to-end", r.Metrics)
	section("per-layer", r.Layers)
	section("detail", r.Detail)
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "# %s %s: %d attempted, %d failed\n", r.Workload, status, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "#   failure: %s\n", f)
	}
}

// summarize returns the median of xs with its quartiles.
func summarize(unit string, xs []float64) metric {
	if len(xs) == 0 {
		return metric{Unit: unit}
	}
	q1, q3 := quartiles(xs)
	return metric{Value: median(xs), Unit: unit, N: len(xs), Q1: q1, Q3: q3}
}

// median returns the middle of xs (the mean of the middle two when even),
// as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, exclusive one), so
// spreads read the same here as in any script over the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..1) of sorted samples by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// provenance records where and how a result was measured.
type provenance struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func newProvenance(seed int64) provenance {
	return provenance{
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Seed:       seed,
		Commit:     commit,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from; bench/run.sh sets it
// with -ldflags "-X main.commit=…".
var commit = "unknown"

// maxRSSMB returns the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's obtained memory where /proc is unavailable.
func maxRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
