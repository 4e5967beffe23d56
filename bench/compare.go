package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is what -compare reads from BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runCompare compares two sides, each a result file (-out of earlier
// runs) or a checkout directory whose benchmark is run here, alternating
// which side goes first, repeat times. It prints, per workload and
// end-to-end metric, each side's median and quartiles and a verdict from
// the bounds in benchPath, then any per-layer count that differs. It
// returns 1 when a metric regressed.
func runCompare(benchPath, a, b string, repeat int, seed int64) int {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sideA, sideB []*result
	dirA, dirB := isDir(a), isDir(b)
	switch {
	case dirA && dirB:
		sideA, sideB, err = runSides(a, b, repeat, seed)
	case !dirA && !dirB:
		if sideA, err = loadRuns(a); err == nil {
			sideB, err = loadRuns(b)
		}
	default:
		err = fmt.Errorf("-compare: %s and %s must both be result files or both checkouts", a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# compare A=%s (%d runs) B=%s (%d runs)\n", a, len(sideA), b, len(sideB))
	regressed := false
	for _, w := range workloadNames(sideA, sideB) {
		for _, m := range bf.EndToEnd {
			xs := values(sideA, w, m.Name, false)
			ys := values(sideB, w, m.Name, false)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			v := verdict(xs, ys, m.Better == "higher", m.Bound)
			if v.name == "regressed" {
				regressed = true
			}
			qa1, qa3 := quartiles(xs)
			qb1, qb3 := quartiles(ys)
			fmt.Printf("%-16s %-15s A %.6g [%.6g %.6g] n=%d  B %.6g [%.6g %.6g] n=%d  change %+.2f%%  bound %.0f%%  %s\n",
				w, m.Name, median(xs), qa1, qa3, len(xs), median(ys), qb1, qb3, len(ys),
				100*v.change, 100*m.Bound, v.name)
		}
		for _, m := range bf.PerLayer {
			if m.Unit != "count" {
				continue
			}
			xs := values(sideA, w, m.Name, true)
			ys := values(sideB, w, m.Name, true)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			if !allEqual(xs) || !allEqual(ys) || !sameCount(xs[0], ys[0]) {
				fmt.Printf("%-16s %-15s count differs: A %v  B %v\n", w, m.Name, xs, ys)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// comparison is the outcome for one workload × metric.
type comparison struct {
	name   string  // improved, unchanged, regressed or unresolved
	change float64 // (B − A) / A of the medians
}

// minPairs is the number of paired runs a gain needs.
const minPairs = 10

// verdict applies the benchmark's rule. B regressed when its median is
// worse than A's by more than bound; it improved when its median is better
// by more than A's own quartile spread and it wins nine tenths of at least
// minPairs paired runs. When either side's spread is wider than the bound
// the metric is unresolved, unless every B run beats every A run (no
// regression: unchanged) or every A run beats every B run with B's median
// worse by more than the bound (regressed).
func verdict(xs, ys []float64, higherBetter bool, bound float64) comparison {
	a, b := median(xs), median(ys)
	c := comparison{change: (b - a) / a}
	better := c.change
	if !higherBetter {
		better = -better
	}
	spreadA := relSpread(xs)
	spread := math.Max(spreadA, relSpread(ys))
	beats := func(y, x float64) bool {
		if higherBetter {
			return y > x
		}
		return y < x
	}
	switch {
	case spread > bound:
		c.name = "unresolved"
		if dominates(ys, xs, beats) {
			c.name = "unchanged"
		} else if better < -bound && dominates(xs, ys, beats) {
			c.name = "regressed"
		}
	case better < -bound:
		c.name = "regressed"
	case better > spreadA && min(len(xs), len(ys)) >= minPairs && pairWins(xs, ys, beats) >= 0.9:
		c.name = "improved"
	default:
		c.name = "unchanged"
	}
	return c
}

// relSpread is the quartile spread of xs as a share of their median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// dominates reports whether every value of ys beats every value of xs.
func dominates(ys, xs []float64, beats func(y, x float64) bool) bool {
	for _, y := range ys {
		for _, x := range xs {
			if !beats(y, x) {
				return false
			}
		}
	}
	return true
}

// pairWins is the share of index-paired runs B wins; runs of unequal count
// pair up to the shorter side.
func pairWins(xs, ys []float64, beats func(y, x float64) bool) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if beats(ys[i], xs[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// sameCount compares two exact counts (integers carried as float64).
func sameCount(x, y float64) bool { return math.Abs(x-y) < 0.5 }

func allEqual(xs []float64) bool {
	for _, x := range xs[1:] {
		if !sameCount(x, xs[0]) {
			return false
		}
	}
	return true
}

// values collects one metric of one workload over a side's runs: the
// end-to-end value of untraced runs, or the per-layer value of traced ones.
func values(runs []*result, workload, metricName string, traced bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		src := r.Metrics
		if traced {
			src = r.Layers
		}
		if m, ok := src[metricName]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// workloadNames lists the workloads either side ran, in benchmark order.
func workloadNames(sides ...[]*result) []string {
	seen := make(map[string]bool)
	for _, runs := range sides {
		for _, r := range runs {
			seen[r.Workload] = true
		}
	}
	var names []string
	for _, w := range workloads {
		if seen[w.name] {
			names = append(names, w.name)
		}
	}
	return names
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func loadRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// runSides runs the benchmark of two checkouts repeat times each,
// alternating which side runs first, then one traced run per side and
// workload. Each run is the checkout's own BENCHMARK.json command with the
// standard arguments (--workload, --seed, --seconds, --trace); seeds
// advance per repetition and match across sides.
func runSides(a, b string, repeat int, seed int64) ([]*result, []*result, error) {
	bfA, err := readBenchmark(filepath.Join(a, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	bfB, err := readBenchmark(filepath.Join(b, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	dirs := [2]string{a, b}
	bfs := [2]*benchmarkFile{bfA, bfB}
	for _, bf := range bfs {
		if len(bf.Command) == 0 {
			return nil, nil, fmt.Errorf("-compare: a BENCHMARK.json has no command")
		}
	}
	tmp, err := os.MkdirTemp("", "rlibm-compare-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return nil, nil, err
	}
	var runs [2][]*result
	for i := 0; i <= repeat; i++ {
		traced := i == repeat
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			bf := bfs[side]
			for _, w := range bf.Workloads {
				s := seed + int64(i%repeat)
				trace := "0"
				if traced {
					trace = "1"
				}
				argv := append(append([]string(nil), bf.Command...), "--workload", w.Name,
					"--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(bf.RunSeconds), "--trace", trace)
				path := filepath.Join(tmp, fmt.Sprintf("%d-%d-%s.json", side, i, w.Name))
				// The children's metric lines go to standard error, so
				// standard output holds the comparison alone.
				res, err := runChild(dirs[side], argv, path, os.Stderr)
				if err != nil {
					return nil, nil, err
				}
				fmt.Printf("# %s %s seed=%d trace=%s correct=%v attempted=%d failed=%d commit=%s\n",
					dirs[side], w.Name, s, trace, res.Correct, res.Attempted, res.Failed, res.Provenance.Commit)
				runs[side] = append(runs[side], res)
			}
		}
	}
	return runs[0], runs[1], nil
}
