package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks the shape of the summary line: every metric named with its
// unit, no failed operation, and a trace that parses with non-negative
// self times.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, _, err := runWorkload(w.name, 1, 1, false, true)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, res, endToEnd)
			for _, s := range endToEnd {
				if v := res.Metrics[s.name].Value; !(v > 0) {
					t.Errorf("%s %s = %v, want > 0", w.name, s.name, v)
				}
			}
			traced, spans, err := runWorkload(w.name, 2, 1, true, true)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, perLayer)
			if len(spans) == 0 {
				t.Fatalf("%s: traced run recorded no spans", w.name)
			}
			var buf bytes.Buffer
			if err := writeJSONL(&buf, spans); err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("%s: trace line %q: %v", w.name, sc.Text(), err)
				}
				if s.Name == "" || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
					t.Errorf("%s: bad span %+v", w.name, s)
				}
			}
		})
	}
}

// checkRun checks a run's summary line: correct, nothing failed,
// and exactly the given metrics with their units.
func checkRun(t *testing.T, res *result, specs []spec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
			res.Workload, res.Trace, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	data, err := json.Marshal(res.summary())
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("summary line keys: %s", data)
	}
	var metrics map[string]valueUnit
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(specs) {
		t.Errorf("%s trace=%v: %d metrics, want %d", res.Workload, res.Trace, len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.name]
		if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", res.Workload, res.Trace, s.name, m, s.unit)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics the
// code emits in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	bf, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, m, s)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, code %+v", i, m, s)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4), which the spread checks use.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 7}, 1.75, 9.25},
		{[]float64{3, 5}, 2.5, 5.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestQueueWaits checks the open-loop wait recursion: a slow request
// delays the requests due during its round trip, and the generator's own
// lateness delays none.
func TestQueueWaits(t *testing.T) {
	ms := time.Millisecond
	samples := []reqSample{
		{due: 0, send: 0, done: 5 * ms},              // a 5 ms stall
		{due: 1 * ms, send: 5 * ms, done: 6 * ms},    // due during it: waits 4 ms
		{due: 2 * ms, send: 6 * ms, done: 7 * ms},    // waits 4 + 1 − 1 = 4 ms
		{due: 20 * ms, send: 21 * ms, done: 22 * ms}, // sent 1 ms late by the generator: no wait
	}
	queueWaits(samples)
	want := []time.Duration{0, 4 * ms, 4 * ms, 0}
	for i, s := range samples {
		if s.queue != want[i] {
			t.Errorf("request %d: wait %v, want %v", i, s.queue, want[i])
		}
	}
	if got := samples[3].latency(); got != ms {
		t.Errorf("late-sent request latency %v, want its 1 ms round trip", got)
	}
}

// TestCovered checks self time against overlapping and clipped children.
func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: -5, End: 2}, {Start: 30, End: 40}}
	if got := covered(0, 20, spans, []int{0, 1, 2, 3}); got != 15 {
		t.Errorf("covered = %d, want 15", got)
	}
}

// TestVerdict checks the comparison rule on clear cases.
func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 99, 101, 100, 100, 98, 102, 100, 99, 101}, "unchanged"},
		{[]float64{80, 81, 79, 80, 80, 82, 78, 80, 81, 79}, "regressed"},
		{[]float64{120, 121, 119, 120, 120, 122, 118, 120, 121, 119}, "improved"},
		{[]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved"},
		{[]float64{120, 121, 119}, "unchanged"}, // better, but too few pairs to claim a gain
	} {
		if got := verdict(a, c.b, true, 0.1).name; got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

// TestNormalize checks that a run's timed metrics are reported at
// reference speed: times multiplied and rates divided by the speed factor,
// memory untouched, the measured values kept as _raw.
func TestNormalize(t *testing.T) {
	m := newSpeedMeter(1)
	m.rates = []float64{refNominal * 0.4, refNominal * 0.6} // factor 0.5
	res := newResult("eval-lib", 1, 1, false)
	res.Metrics["setup_s"] = metric{Value: 2, Unit: "s", Q1: 1, Q3: 3}
	res.Metrics["throughput"] = metric{Value: 100, Unit: "1/s"}
	res.Metrics["latency_p50_us"] = metric{Value: 10, Unit: "us"}
	res.Metrics["max_rss_mb"] = metric{Value: 30, Unit: "MB"}
	m.normalize(res)
	for name, want := range map[string]float64{"setup_s": 1, "throughput": 200, "latency_p50_us": 5, "max_rss_mb": 30} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if q := res.Metrics["setup_s"]; math.Abs(q.Q1-0.5) > 1e-9 || math.Abs(q.Q3-1.5) > 1e-9 {
		t.Errorf("setup_s quartiles %v, %v; want 0.5, 1.5", q.Q1, q.Q3)
	}
	if raw := res.Detail["throughput_raw"].Value; math.Abs(raw-100) > 1e-9 {
		t.Errorf("throughput_raw = %v, want the measured 100", raw)
	}
	if _, ok := res.Detail["max_rss_mb_raw"]; ok {
		t.Error("max_rss_mb is not timed but got a _raw line")
	}
}
