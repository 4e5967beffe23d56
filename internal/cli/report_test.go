package cli_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report_counters_golden.json")

// observedRun generates the small progressive cospi configuration into a
// fresh store with a live recorder attached and returns the result plus the
// emitted report — the same wiring the commands use under -report.
func observedRun(t *testing.T, workers int) (*gen.Result, *obs.Report) {
	t.Helper()
	rec := obs.New("run")
	ctx := obs.WithSpan(context.Background(), rec.Root())
	st := openStore(t, t.TempDir())
	res, _, err := cli.GenerateVerified(ctx, testFn, progOpts(workers), st)
	if err != nil {
		t.Fatalf("GenerateVerified(workers=%d): %v", workers, err)
	}
	rec.Root().End()
	return res, rec.Report()
}

// counterJSON marshals just the deterministic counters section; timings and
// volatile gauges are excluded from every comparison by construction.
func counterJSON(t *testing.T, rep *obs.Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep.Counters, "", "  ")
	if err != nil {
		t.Fatalf("marshal counters: %v", err)
	}
	return append(data, '\n')
}

// findChild returns the uniquely named child of sr, failing the test when
// it is absent.
func findChild(t *testing.T, sr *obs.SpanReport, name string) *obs.SpanReport {
	t.Helper()
	for _, c := range sr.Children {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("span %q has no child %q (children: %v)", sr.Name, name, spanNames(sr.Children))
	return nil
}

func spanNames(srs []*obs.SpanReport) []string {
	names := make([]string, len(srs))
	for i, c := range srs {
		names[i] = c.Name
	}
	return names
}

// TestReportCountersDeterministic pins the determinism contract of the
// counter taxonomy: a cold run at -workers 1 and a cold run at -workers 4
// emit byte-identical counters sections, and the span tree nests
// run → function → verify → solve → reduce → enumerate.
func TestReportCountersDeterministic(t *testing.T) {
	_, rep1 := observedRun(t, 1)
	_, rep4 := observedRun(t, 4)

	c1, c4 := counterJSON(t, rep1), counterJSON(t, rep4)
	if !bytes.Equal(c1, c4) {
		t.Errorf("counters differ between workers=1 and workers=4:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", c1, c4)
	}

	if rep1.Spans == nil || rep1.Spans.Name != "run" {
		t.Fatalf("report has no run root span: %+v", rep1.Spans)
	}
	fn := findChild(t, rep1.Spans, testFn.String())
	verify := findChild(t, fn, gen.StageVerify)
	solve := findChild(t, verify, gen.StageSolve)
	reduce := findChild(t, solve, gen.StageReduce)
	findChild(t, reduce, gen.StageEnumerate)

	// A cold run exercised every subsystem: the headline counter of each
	// taxonomy group must be non-zero (rescue rungs and specials legitimately
	// stay zero when the baseline search succeeds and the domain has no
	// special inputs).
	for _, c := range []obs.Counter{
		obs.CtrClarksonAttempts, obs.CtrClarksonIters, obs.CtrClarksonSamples,
		obs.CtrOracleQueries, obs.CtrRowsEnumerated, obs.CtrRowsReduced,
		obs.CtrStoreMisses, obs.CtrStoreBytesWritten,
	} {
		if rep1.Counters[string(c)] == 0 {
			t.Errorf("cold run left %s at zero", c)
		}
	}
	if got, want := rep1.Version, obs.ReportVersion; got != want {
		t.Errorf("report version = %d, want %d", got, want)
	}
}

// TestCoefficientsUnaffectedByObservability pins the other half of the
// contract: the sealed result artifact is bit-identical whether the run was
// observed or not — the layer watches the pipeline but never touches it.
func TestCoefficientsUnaffectedByObservability(t *testing.T) {
	observed, _ := observedRun(t, 2)

	st := openStore(t, t.TempDir())
	plain, _, err := cli.GenerateVerified(context.Background(), testFn, progOpts(2), st)
	if err != nil {
		t.Fatalf("GenerateVerified(unobserved): %v", err)
	}

	var eo, ep pipeline.Enc
	gen.ResultCodec.Encode(&eo, observed)
	gen.ResultCodec.Encode(&ep, plain)
	if !bytes.Equal(eo.Bytes(), ep.Bytes()) {
		t.Errorf("observed and unobserved runs encode different result artifacts")
	}
}

// TestReportCountersGolden compares the counters of the fixed small run
// against a checked-in golden, so CI catches silent counter regressions —
// a solver suddenly iterating more, an oracle shortcut path going dark.
// Regenerate with: go test ./internal/cli -run TestReportCountersGolden -update
func TestReportCountersGolden(t *testing.T) {
	_, rep := observedRun(t, 1)
	got := counterJSON(t, rep)

	golden := filepath.Join("testdata", "report_counters_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("counters changed vs golden; if intentional, regenerate with -update\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFinishRunWritesReport drives the -report emission end to end: the
// report lands next to the artifact cache, carries the schema version, the
// command name, the flag metadata, and the complete zero-filled taxonomy.
func TestFinishRunWritesReport(t *testing.T) {
	c := &cli.Common{CacheDir: t.TempDir(), Report: true, Workers: 2, Seed: 7, Bits: 12}
	rec := c.NewRecorder()
	if rec == nil {
		t.Fatal("NewRecorder returned nil with -report set")
	}
	sp := rec.Root().Child("stage")
	sp.Add(obs.CtrStoreHits, 3)
	sp.End()
	if err := c.FinishRun(rec, "rlibm-test"); err != nil {
		t.Fatalf("FinishRun: %v", err)
	}

	data, err := os.ReadFile(c.ReportPath())
	if err != nil {
		t.Fatalf("read %s: %v", c.ReportPath(), err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report.json is not valid JSON: %v", err)
	}
	if rep.Version != obs.ReportVersion {
		t.Errorf("version = %d, want %d", rep.Version, obs.ReportVersion)
	}
	if rep.Command != "rlibm-test" {
		t.Errorf("command = %q, want rlibm-test", rep.Command)
	}
	if rep.Meta["workers"] != "2" || rep.Meta["seed"] != "7" || rep.Meta["bits"] != "12" {
		t.Errorf("meta = %v, want workers=2 seed=7 bits=12", rep.Meta)
	}
	for _, ctr := range obs.Taxonomy() {
		if _, ok := rep.Counters[string(ctr)]; !ok {
			t.Errorf("report is missing taxonomy counter %s", ctr)
		}
	}
	if rep.Counters[string(obs.CtrStoreHits)] != 3 {
		t.Errorf("store.hits = %d, want 3", rep.Counters[string(obs.CtrStoreHits)])
	}

	// Caching disabled: the report falls back to the working directory.
	c2 := &cli.Common{NoCache: true, Report: true}
	if got := c2.ReportPath(); got != "report.json" {
		t.Errorf("ReportPath with -no-cache = %q, want report.json", got)
	}

	// Observability off: FinishRun is a no-op and NewRecorder stays nil.
	c3 := &cli.Common{CacheDir: t.TempDir()}
	if rec := c3.NewRecorder(); rec != nil {
		t.Errorf("NewRecorder returned a live recorder with -v and -report unset")
	}
	if err := c3.FinishRun(nil, "rlibm-test"); err != nil {
		t.Errorf("FinishRun(nil): %v", err)
	}
	if _, err := os.Stat(filepath.Join(c3.CacheDir, "report.json")); !os.IsNotExist(err) {
		t.Errorf("FinishRun(nil) wrote a report (stat err=%v)", err)
	}
}

// evictingRun drives the -report wiring of a command whose local store has
// an eviction budget: a cold generation, then a warm one against the same
// store, recorded on one recorder and emitted by FinishRun.
func evictingRun(t *testing.T, workers int) *obs.Report {
	t.Helper()
	dir := t.TempDir()
	c := &cli.Common{StoreURL: "dir:" + dir, CacheDir: dir, StoreMaxBytes: 2 << 10,
		Report: true, Workers: workers}
	st, err := c.Store()
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	rec := c.NewRecorder()
	ctx := obs.WithSpan(context.Background(), rec.Root())
	for pass := 0; pass < 2; pass++ {
		if _, _, err := cli.GenerateVerified(ctx, testFn, progOpts(workers), st); err != nil {
			t.Fatalf("GenerateVerified(workers=%d, pass %d): %v", workers, pass, err)
		}
	}
	if err := c.FinishRun(rec, "rlibm-test"); err != nil {
		t.Fatalf("FinishRun: %v", err)
	}
	data, err := os.ReadFile(c.ReportPath())
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report.json is not valid JSON: %v", err)
	}
	return &rep
}

// TestReportCountersDeterministicEvicting extends the determinism contract
// to an evicting store: every taxonomy counter is identical at -workers 1
// and -workers 4 while the LRU budget deletes artifacts, and the
// order-dependent eviction figures appear only as volatile gauges.
func TestReportCountersDeterministicEvicting(t *testing.T) {
	rep1, rep4 := evictingRun(t, 1), evictingRun(t, 4)
	c1, c4 := counterJSON(t, rep1), counterJSON(t, rep4)
	if !bytes.Equal(c1, c4) {
		t.Errorf("counters differ between workers=1 and workers=4 under eviction:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", c1, c4)
	}
	for _, rep := range []*obs.Report{rep1, rep4} {
		if rep.Volatile[obs.GaugeStoreEvictions] == 0 {
			t.Errorf("no evictions recorded under a 2 KiB budget: volatile = %v", rep.Volatile)
		}
		if _, ok := rep.Volatile[obs.GaugeStoreBytesLive]; !ok {
			t.Errorf("volatile section lacks %s: %v", obs.GaugeStoreBytesLive, rep.Volatile)
		}
		for _, g := range []string{obs.GaugeStoreEvictions, obs.GaugeStoreBytesLive} {
			if _, ok := rep.Counters[g]; ok {
				t.Errorf("gauge %s listed among the deterministic counters", g)
			}
		}
	}
}
