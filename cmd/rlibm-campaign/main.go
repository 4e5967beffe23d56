// Command rlibm-campaign drives the paper-scale distributed sweep: it
// plans the full campaign (every requested function generated and
// exhaustively verified, then the progressive claim checked over every
// format from -min-bits to -bits under all five standard rounding modes)
// as a resumable manifest artifact, launches N shard workers against a
// shared store, survives peer death mid-run, and aggregates the per-unit
// verify reports into campaign_report.json and BENCH_campaign.json.
//
// The store decides what a peer is. A store every process can reach —
// tcp:// (the usual choice: run rlibm-store first) or dir: — gets
// subprocess peers: the driver re-executes its own binary once per peer
// with -campaign-worker -shard k/n; workers stream progress as
// @rlibm-campaign-unit JSON lines and finish with one @rlibm-campaign-peer
// line. A store only this process can reach — mem:, or caching disabled —
// gets goroutine peers sharing it. Either way campaign.Run relaunches a
// peer that dies up to -max-restarts times.
//
// Typical 2-peer campaign against a shared eviction-bounded store:
//
//	rlibm-store -listen 127.0.0.1:7070 -max-bytes 268435456 &
//	rlibm-campaign -store tcp://127.0.0.1:7070 -peers 2 -progressive-ro
//
// Killing a worker (or the whole driver) and rerunning the same command
// resumes: the manifest pins the plan, every finished unit is a sealed
// artifact the rerun reuses, and stalled claims are reclaimed after the
// heartbeat stall budget.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"

	"repro/internal/bigmath"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/fp"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// Stdout markers of the subprocess worker protocol. readPeerOutput parses
// these lines; everything else a worker prints is passed through untouched.
const (
	unitMarker = "@rlibm-campaign-unit "
	peerMarker = "@rlibm-campaign-peer "
)

func main() {
	common := cli.Register(flag.CommandLine)
	var (
		funcsFlag   = flag.String("funcs", "", "comma-separated functions to sweep (default: all ten)")
		minBits     = flag.Int("min-bits", campaign.MinSweepBits, "smallest swept format width (paper: 10)")
		levelsFlag  = flag.String("levels", "", "comma-separated widths of the generated representation ladder, e.g. 10,12 (default: the standard bfloat16/tf32/F(bits,8) triple — requires -bits > 19)")
		peers       = flag.Int("peers", 2, "worker peer count")
		workerMode  = flag.Bool("campaign-worker", false, "internal: run as one campaign worker peer (driver use only)")
		progRO      = flag.Bool("progressive-ro", true, "generate lower levels against round-to-odd intervals (all-modes progressive guarantee)")
		maxRestarts = flag.Int("max-restarts", 2, "relaunch a dead peer at most this many times")
		out         = flag.String("out", "BENCH_campaign.json", "write the campaign benchmark JSON here (empty disables)")
		reportPath  = flag.String("campaign-report", "campaign_report.json", "write the aggregated campaign report here (empty disables)")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	if *peers < 1 {
		log.Fatalf("invalid -peers %d: must be at least 1", *peers)
	}
	if *maxRestarts < 0 {
		log.Fatalf("invalid -max-restarts %d: must be at least 0 (0 = die on first failure)", *maxRestarts)
	}

	plan := campaign.Plan{
		Bits:          common.Bits,
		MinBits:       *minBits,
		ProgressiveRO: *progRO,
		Seed:          common.Seed,
		Workers:       common.Workers,
	}
	if *funcsFlag != "" {
		for _, name := range strings.Split(*funcsFlag, ",") {
			fn, err := bigmath.ParseFunc(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			plan.Funcs = append(plan.Funcs, fn)
		}
	}
	if *levelsFlag != "" {
		for _, w := range strings.Split(*levelsFlag, ",") {
			var bits int
			if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &bits); err != nil {
				log.Fatalf("invalid -levels entry %q: %v", w, err)
			}
			f, err := fp.NewFormat(bits, 8)
			if err != nil {
				log.Fatalf("invalid -levels entry %q: %v", w, err)
			}
			plan.Levels = append(plan.Levels, f)
		}
	}
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := common.Context()
	defer cancel()

	if *workerMode {
		runWorkerMode(ctx, common, plan)
		return
	}

	st, err := common.Store()
	if err != nil {
		log.Fatal(err)
	}
	// Subprocess peers when other processes can reach the store (dir:,
	// tcp://). Otherwise goroutine peers share the one store instance
	// there is — a fresh MemStore per peer would be N disjoint caches
	// whose claims never meet — or none, with caching disabled.
	runPeer := func(ctx context.Context, peer int, shard gen.Shard) (*campaign.PeerReport, error) {
		return runOnePeerProcess(ctx, common, plan, shard, peer)
	}
	if st == nil || strings.HasPrefix(common.StoreURL, "mem") {
		runPeer = func(ctx context.Context, peer int, shard gen.Shard) (*campaign.PeerReport, error) {
			return campaign.RunWorker(ctx, campaign.WorkerConfig{
				Plan: plan, Shard: shard, Store: st, Logf: peerLogf(campaignLogf(common), peer),
			})
		}
	}
	rep, err := campaign.Run(ctx, campaign.Config{
		Plan:        plan,
		Peers:       *peers,
		Store:       st,
		RunPeer:     runPeer,
		MaxRestarts: *maxRestarts,
		Logf:        campaignLogf(common),
	})
	common.CloseStore()
	if rep != nil {
		printSummary(rep)
		if *reportPath != "" {
			if werr := rep.WriteFile(*reportPath); werr != nil {
				log.Fatal(werr)
			}
			fmt.Printf("campaign report: %s\n", *reportPath)
		}
		if *out != "" {
			if werr := campaign.WriteBench(*out, strings.Join(os.Args, " "), rep); werr != nil {
				log.Fatal(werr)
			}
			fmt.Printf("bench: %s\n", *out)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if rep != nil && !rep.Correct() {
		os.Exit(1)
	}
}

// runWorkerMode is the subprocess peer: one RunWorker pass, streaming
// unit completions and the final peer report as marked JSON lines.
func runWorkerMode(ctx context.Context, common *cli.Common, plan campaign.Plan) {
	store, err := common.Store()
	if err != nil {
		log.Fatal(err)
	}
	defer common.CloseStore()
	enc := json.NewEncoder(os.Stdout)
	rep, err := campaign.RunWorker(ctx, campaign.WorkerConfig{
		Plan:  plan,
		Shard: common.Shard(),
		Store: store,
		Logf:  campaignLogf(common),
		OnUnit: func(u campaign.UnitResult) {
			fmt.Print(unitMarker)
			enc.Encode(u)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(peerMarker)
	enc.Encode(rep)
}

// runOnePeerProcess runs one peer incarnation as a worker process — this
// binary with -campaign-worker — and parses its marked stdout lines.
func runOnePeerProcess(ctx context.Context, common *cli.Common, plan campaign.Plan, shard gen.Shard, peer int) (*campaign.PeerReport, error) {
	var funcs []string
	for _, fn := range plan.Funcs {
		funcs = append(funcs, fn.String())
	}
	args := []string{
		"-campaign-worker",
		"-shard", shard.String(),
		"-store", common.StoreURL,
		"-cache-dir", common.CacheDir,
		"-funcs", strings.Join(funcs, ","),
		"-bits", fmt.Sprint(plan.Bits),
		"-min-bits", fmt.Sprint(plan.MinBits),
		"-seed", fmt.Sprint(plan.Seed),
		"-workers", fmt.Sprint(common.Workers),
		fmt.Sprintf("-progressive-ro=%v", plan.ProgressiveRO),
	}
	if len(plan.Levels) > 0 {
		var widths []string
		for _, l := range plan.Levels {
			widths = append(widths, fmt.Sprint(l.Bits()))
		}
		args = append(args, "-levels", strings.Join(widths, ","))
	}
	if common.Verbose {
		args = append(args, "-v")
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rep, perr := readPeerOutput(stdout, peer, log.Printf, os.Stdout)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("peer %d (shard %s): %w", peer, shard, err)
	}
	if perr != nil {
		return nil, fmt.Errorf("peer %d (shard %s): %w", peer, shard, perr)
	}
	return rep, nil
}

// readPeerOutput scans one worker's stdout: the peer line is decoded into
// the returned report, unit lines are logged through logf, and every other
// line is copied to pass. Marked lines whose JSON does not decode are
// dropped. A stream that ends without a peer line is an error.
func readPeerOutput(r io.Reader, peer int, logf func(string, ...interface{}), pass io.Writer) (*campaign.PeerReport, error) {
	var rep *campaign.PeerReport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // peer reports grow with the unit list
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, peerMarker):
			var pr campaign.PeerReport
			if jerr := json.Unmarshal([]byte(strings.TrimPrefix(line, peerMarker)), &pr); jerr == nil {
				rep = &pr
			}
		case strings.HasPrefix(line, unitMarker):
			var u campaign.UnitResult
			if jerr := json.Unmarshal([]byte(strings.TrimPrefix(line, unitMarker)), &u); jerr == nil {
				logf("campaign: peer %d: %s done (checked %d, %d mismatches)", peer, unitName(u), u.Checked, u.Mismatches)
			}
		default:
			fmt.Fprintln(pass, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, errors.New("exited without a final report")
	}
	return rep, nil
}

func unitName(u campaign.UnitResult) string {
	if u.FormatBits == 0 {
		return u.Func + "/generate"
	}
	return fmt.Sprintf("%s/F%d,8", u.Func, u.FormatBits)
}

func campaignLogf(common *cli.Common) pipeline.Logf {
	return pipeline.Logf(common.Logf())
}

// peerLogf prefixes a goroutine peer's progress lines with its slot.
func peerLogf(logf pipeline.Logf, peer int) pipeline.Logf {
	if logf == nil {
		return nil
	}
	return func(format string, args ...interface{}) {
		logf(fmt.Sprintf("peer %d: %s", peer, format), args...)
	}
}

func printSummary(rep *campaign.Report) {
	status := "CORRECT"
	if !rep.Correct() {
		status = fmt.Sprintf("%d MISMATCHES", rep.Mismatches)
	}
	resumed := ""
	if rep.Resumed {
		resumed = " (resumed)"
	}
	fmt.Printf("campaign%s: %d funcs × F%d..F%d,8 × %d modes — %d units, %d inputs checked, %d patched, %s in %dms\n",
		resumed, len(rep.Funcs), rep.MinBits, rep.Bits, rep.Modes,
		rep.Units, rep.InputsChecked, rep.Patched, status, rep.WallClockMS)
	for _, pr := range rep.Peers {
		state := "ok"
		if pr.Err != "" {
			state = "FAILED: " + pr.Err
		}
		fmt.Printf("  peer %d (shard %s): %d units computed, %d inputs, %.0f inputs/s, %d restarts — %s\n",
			pr.Peer, pr.Shard, pr.UnitsComputed, pr.InputsChecked, pr.InputsPerSec, pr.Restarts, state)
	}
}
