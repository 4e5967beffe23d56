package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/libm"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve-mixed workload: an rlibm-serve server in the benchmark's
// process, driven over loopback through the bulk endpoint by one client
// goroutine per connection (nproc connections). Three open-loop steps offer
// seeded Poisson arrivals at fixed rates; a closed-loop phase then measures
// capacity. Every step and the closed loop run in windows of half a
// second, with the connections idle while the speed is probed between
// windows. One operation is one request: throughput is the closed-loop
// capacity, latency is the open-loop latency at the light (lo) step, where
// the machine's own noise disturbs it least.

// serveRates are the offered loads of the three open-loop steps in
// requests per second: about 15, 40 and 55% of the 35–45k req/s closed-loop
// capacity -calibrate-serve measured on a 2-vCPU Xeon VM. The high step
// sits below the 70% first tried, where its p99 did not repeat from run to
// run (see README.md).
var serveRates = []float64{5500, 15000, 20000}

// Latency limit and backlog rule behind serve.max_rate_rps.
const (
	serveP99Limit    = 2 * time.Millisecond
	backlogTolerance = 50 * time.Microsecond
)

// serveConfig sizes the serve-mixed workload.
type serveConfig struct {
	rates         []float64 // offered load of each open-loop step
	windows       []int     // windows of each open-loop step
	closedWindows int       // windows of the closed-loop phase
	window        time.Duration
	pool          int           // distinct requests drawn from the seed
	maxLag        time.Duration // a connection this far behind schedule gives up the window
}

func serveConfigFor(p params) serveConfig {
	if p.toy {
		return serveConfig{rates: []float64{200}, windows: []int{3}, closedWindows: 1,
			window: 100 * time.Millisecond, pool: 64, maxLag: 2 * time.Second}
	}
	// The light step is gated, so it gets the most windows. A window of
	// 0.5 s holds ~2750 light-step requests, 27 of them beyond its p99.
	const window = 500 * time.Millisecond
	n := int(p.budget / window)
	atLeast1 := func(k int) int {
		if k < 1 {
			return 1
		}
		return k
	}
	return serveConfig{rates: serveRates,
		windows:       []int{atLeast1(n * 9 / 20), atLeast1(n * 3 / 20), atLeast1(n * 3 / 20)},
		closedWindows: atLeast1(n / 5), window: window,
		pool: 4096, maxLag: 2 * time.Second}
}

// serveReq is one request of the pool with its expected answer.
type serveReq struct {
	req  serve.Request
	xs   []float64 // decoded inputs, for the in-process kernel replay
	want []uint64  // libm.EvalBatch's answer
}

// makeServeRequests draws the request mix: function uniform, format
// uniform over bfloat16/tensorfloat32/largest, mode rn 60% and otherwise
// uniform over the other four, batch size log-uniform in 1..256, inputs
// uniform bit patterns.
func makeServeRequests(n int, rng *rand.Rand) ([]serveReq, error) {
	largest, ok := libm.LargestFormat()
	if !ok {
		return nil, libm.ErrNoTables
	}
	formats := []fp.Format{fp.Bfloat16, fp.TensorFloat32, largest}
	others := fp.StandardModes[1:]
	reqs := make([]serveReq, n)
	for i := range reqs {
		fn := bigmath.AllFuncs[rng.Intn(len(bigmath.AllFuncs))]
		f := formats[rng.Intn(len(formats))]
		mode := fp.RoundNearestEven
		if rng.Float64() >= 0.6 {
			mode = others[rng.Intn(len(others))]
		}
		size := int(math.Exp(rng.Float64() * math.Log(257)))
		if size < 1 {
			size = 1
		}
		if size > 256 {
			size = 256
		}
		in := make([]uint64, size)
		xs := make([]float64, size)
		for j := range in {
			in[j] = rng.Uint64() & (f.NumValues() - 1)
			xs[j] = f.Decode(in[j])
		}
		want := make([]uint64, size)
		if err := libm.EvalBatch(fn, want, xs, f, mode); err != nil {
			return nil, err
		}
		reqs[i] = serveReq{req: serve.Request{Fn: fn, Out: f, Mode: mode, Inputs: in}, xs: xs, want: want}
	}
	return reqs, nil
}

// warmRequests is one single-input request per (function, format, mode)
// the mix can ask for: sending them compiles every kernel the server needs.
func warmRequests() []serve.Request {
	largest, _ := libm.LargestFormat()
	var out []serve.Request
	for _, fn := range bigmath.AllFuncs {
		for _, f := range []fp.Format{fp.Bfloat16, fp.TensorFloat32, largest} {
			for _, m := range fp.StandardModes {
				out = append(out, serve.Request{Fn: fn, Out: f, Mode: m, Inputs: []uint64{1}})
			}
		}
	}
	return out
}

// serveRig is a running server with one bulk client per connection.
type serveRig struct {
	srv     *serve.Server
	clients []*serve.BulkClient
}

func startRig(conns int, span *obs.Span) (*serveRig, error) {
	srv, err := serve.New(serve.Config{Span: span})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	g := &serveRig{srv: srv}
	for i := 0; i < conns; i++ {
		c, err := serve.DialBulk(srv.BulkAddr().String())
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	for _, req := range warmRequests() {
		if _, err := g.clients[0].Eval(req); err != nil {
			g.close()
			return nil, fmt.Errorf("serve-mixed: warm-up %v %v %v: %w", req.Fn, req.Out, req.Mode, err)
		}
	}
	return g, nil
}

// close disconnects the clients and drains the server, returning once
// its goroutines have stopped.
func (g *serveRig) close() error {
	for _, c := range g.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return g.srv.Shutdown(ctx)
}

// arrival is one scheduled request: due is its send time relative to the
// step start.
type arrival struct {
	due time.Duration
	req int
}

// poissonSchedule draws one connection's arrivals at rate per second over
// d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pool int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * 1e9)
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, req: rng.Intn(pool)})
	}
}

// reqSample is one open-loop request as measured on its connection:
// when it was due, sent and answered; queue (filled in by queueWaits) is
// how long it waited behind the connection's earlier requests, and slop
// how late the generator sent it beyond what that wait required.
type reqSample struct {
	req                          int
	due, send, done, queue, slop time.Duration
}

func (s reqSample) latency() time.Duration { return s.queue + s.done - s.send }

// queueWaits fills in each request's wait on its connection as it would
// have been had every request been sent exactly when due — the Lindley
// recursion over the measured round trips,
//
//	wait[j] = max(0, wait[j-1] + rtt[j-1] − (due[j] − due[j-1])).
//
// A stalled request delays the ones due after it by its whole round trip,
// so a stall counts against every request it holds up, while the
// generator's own timer lateness counts against none: Go's timers wake up
// to a millisecond late for shorter sleeps, which would otherwise queue
// requests behind the generator rather than behind the server.
func queueWaits(samples []reqSample) {
	var wait time.Duration
	for j := range samples {
		if j > 0 {
			prev := &samples[j-1]
			wait += prev.done - prev.send - (samples[j].due - prev.due)
			if wait < 0 {
				wait = 0
			}
		}
		samples[j].queue = wait
	}
}

// connOutcome collects one connection goroutine's failures; the caller
// merges them after the goroutines have finished.
type connOutcome struct {
	samples  []reqSample
	failed   int64
	failures []string
}

func (o *connOutcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check compares one response with the expected answer.
func (o *connOutcome) check(q *serveReq, out []uint64, err error) {
	var be *serve.BulkError
	switch {
	case errors.As(err, &be):
		o.fail("serve-mixed %v %v %v: %v", q.req.Fn, q.req.Out, q.req.Mode, err)
	case err != nil:
		o.fail("serve-mixed: connection: %v", err)
	case len(out) != len(q.want):
		o.fail("serve-mixed %v %v %v: %d outputs for %d inputs", q.req.Fn, q.req.Out, q.req.Mode, len(out), len(q.want))
	default:
		for i := range out {
			if out[i] != q.want[i] {
				o.fail("serve-mixed %v %v %v: input %#x served %#x, libm.EvalBatch %#x",
					q.req.Fn, q.req.Out, q.req.Mode, q.req.Inputs[i], out[i], q.want[i])
				break
			}
		}
	}
}

func (r *run) merge(outs []connOutcome) {
	for _, o := range outs {
		r.res.Failed += o.failed
		for _, f := range o.failures {
			if len(r.res.Failures) < maxFailures {
				r.res.Failures = append(r.res.Failures, f)
			}
		}
	}
}

// openLoop runs one window of a step: every connection sends its
// scheduled requests in order, each no earlier than it is due. A
// connection more than maxLag behind schedule abandons the rest of its
// window, counting it as failed.
func (g *serveRig) openLoop(r *run, reqs []serveReq, sched [][]arrival, maxLag time.Duration) []connOutcome {
	outs := make([]connOutcome, len(g.clients))
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for ci := range g.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, o := g.clients[ci], &outs[ci]
			o.samples = make([]reqSample, 0, len(sched[ci]))
			var base int64 // t0 on the tracer's clock
			if r.tr != nil {
				base = r.tr.now() - int64(time.Since(t0))
			}
			var prevDone time.Duration
			for j, a := range sched[ci] {
				if time.Since(t0)-a.due > maxLag {
					o.fail("serve-mixed: connection %d fell %v behind schedule; %d requests abandoned",
						ci, maxLag, len(sched[ci])-j)
					o.failed += int64(len(sched[ci]) - j - 1)
					return
				}
				if d := a.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				q := &reqs[a.req]
				send := time.Since(t0)
				out, err := c.Eval(q.req)
				done := time.Since(t0)
				s := reqSample{req: a.req, due: a.due, send: send, done: done, slop: send - a.due}
				if prevDone > a.due {
					s.slop = send - prevDone
				}
				prevDone = done
				o.samples = append(o.samples, s)
				o.check(q, out, err)
				if r.tr != nil {
					root := r.tr.newID()
					r.tr.record(0, root, root, "serve.BulkClient.Eval", base+int64(send), base+int64(done))
					r.tr.record(root, root, 0, "bench.request", base+int64(a.due), base+int64(done))
				}
			}
		}(ci)
	}
	wg.Wait()
	return outs
}

// closedLoop sends requests back to back on every connection for d,
// connection ci going on from position pos[ci] of its request order. It
// returns how many requests were sent and how many completed within d.
func (g *serveRig) closedLoop(r *run, reqs []serveReq, order [][]int, pos []int, d time.Duration) (outs []connOutcome, sent, completed int) {
	outs = make([]connOutcome, len(g.clients))
	sends := make([]int, len(g.clients))
	dones := make([]int, len(g.clients))
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci := range g.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, o := g.clients[ci], &outs[ci]
			var base int64 // t0 on the tracer's clock
			if r.tr != nil {
				base = r.tr.now() - int64(time.Since(t0))
			}
			for ; ; pos[ci]++ {
				send := time.Since(t0)
				if send >= d {
					return
				}
				q := &reqs[order[ci][pos[ci]%len(order[ci])]]
				out, err := c.Eval(q.req)
				done := time.Since(t0)
				sends[ci]++
				if done < d {
					dones[ci]++
				}
				o.check(q, out, err)
				if r.tr != nil {
					id := r.tr.newID()
					r.tr.record(id, id, 0, "serve.BulkClient.Eval", base+int64(send), base+int64(done))
				}
			}
		}(ci)
	}
	wg.Wait()
	for ci := range sends {
		sent += sends[ci]
		completed += dones[ci]
	}
	return outs, sent, completed
}

// stepStats summarizes one open-loop step. Latencies are in µs, as
// measured (not at reference speed).
type stepStats struct {
	rate                      float64
	n                         int
	p50, p90, p99             float64 // over the whole step
	winP50, winP99            []float64
	queueP50, queueP99        float64
	slopP99                   float64
	meanLat, meanQueue        float64
	meanRTT                   float64
	backlogFirst, backlogLast float64 // median queue wait in the first and last third of a window
}

// summarizeStep summarizes the windows of one step, each given as its
// connections' outcomes.
func summarizeStep(rate float64, windows [][]connOutcome, window time.Duration) stepStats {
	st := stepStats{rate: rate}
	var all []reqSample
	for _, outs := range windows {
		var lat []float64
		for _, o := range outs {
			queueWaits(o.samples)
			all = append(all, o.samples...)
			for _, s := range o.samples {
				lat = append(lat, us(s.latency()))
			}
		}
		if len(lat) > 0 {
			sort.Float64s(lat)
			st.winP50 = append(st.winP50, percentile(lat, 0.50))
			st.winP99 = append(st.winP99, percentile(lat, 0.99))
		}
	}
	st.n = len(all)
	if st.n == 0 {
		return st
	}
	lat := make([]float64, len(all))
	queue := make([]float64, len(all))
	slop := make([]float64, len(all))
	rtt := make([]float64, len(all))
	var first, last []float64
	for i, s := range all {
		lat[i] = us(s.latency())
		queue[i] = us(s.queue)
		slop[i] = us(s.slop)
		rtt[i] = us(s.done - s.send)
		// Backlog: queue waits early and late in a window, by due time.
		switch {
		case s.due < window/3:
			first = append(first, queue[i])
		case s.due >= window*2/3:
			last = append(last, queue[i])
		}
	}
	st.meanLat, st.meanQueue, st.meanRTT = mean(lat), mean(queue), mean(rtt)
	if len(first) > 0 && len(last) > 0 {
		st.backlogFirst, st.backlogLast = median(first), median(last)
	}
	sort.Float64s(lat)
	sort.Float64s(queue)
	sort.Float64s(slop)
	st.p50, st.p90, st.p99 = percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99)
	st.queueP50, st.queueP99 = percentile(queue, 0.50), percentile(queue, 0.99)
	st.slopP99 = percentile(slop, 0.99)
	return st
}

// sustained reports whether the step met the latency limit without a
// growing backlog.
func (st stepStats) sustained() bool {
	return st.n > 0 && median(st.winP99) <= us(serveP99Limit) &&
		st.backlogLast <= 2*st.backlogFirst+us(backlogTolerance)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func runServeMixed(p params, r *run) error {
	cfg := serveConfigFor(p)
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(p.seed))
	reqs, err := makeServeRequests(cfg.pool, rng)
	if err != nil {
		return err
	}
	// scheds[step][window][connection]
	scheds := make([][][][]arrival, len(cfg.rates))
	for si, rate := range cfg.rates {
		scheds[si] = make([][][]arrival, cfg.windows[si])
		for wi := range scheds[si] {
			scheds[si][wi] = make([][]arrival, conns)
			for ci := range scheds[si][wi] {
				scheds[si][wi][ci] = poissonSchedule(rng, rate/float64(conns), cfg.window, cfg.pool)
			}
		}
	}
	order := make([][]int, conns)
	for ci := range order {
		order[ci] = rng.Perm(cfg.pool)
	}
	var span *obs.Span
	if r.rec != nil {
		span = r.rec.Root()
	}

	// Set-up: server, listeners, connections and the first use of every
	// kernel. A discarded rig is drained again; only the kept one reports
	// into the traced run's span.
	var rig *serveRig
	if err := r.setUp(func(keep bool) (func(), error) {
		if keep {
			g, err := startRig(conns, span)
			rig = g
			return nil, err
		}
		g, err := startRig(conns, nil)
		if err != nil {
			return nil, err
		}
		return func() {
			if err := g.close(); err != nil {
				r.res.fail("serve-mixed: drain: %v", err)
			}
		}, nil
	}); err != nil {
		return err
	}
	defer func() {
		if err := rig.close(); err != nil {
			r.res.fail("serve-mixed: drain: %v", err)
		}
	}()

	runtime.GC() // set-up's garbage is not the steps' to collect
	var counted map[string]int64
	stats := make([]stepStats, len(cfg.rates))
	for si, rate := range cfg.rates {
		var before map[string]int64
		if r.rec != nil {
			before = r.rec.Report().Counters
		}
		windows := make([][]connOutcome, len(scheds[si]))
		for wi, sched := range scheds[si] {
			windows[wi] = rig.openLoop(r, reqs, sched, cfg.maxLag)
			r.between()
			r.merge(windows[wi])
			for _, arrivals := range sched {
				r.res.Attempted += int64(len(arrivals))
			}
		}
		stats[si] = summarizeStep(rate, windows, cfg.window)
		name := stepName(si, len(cfg.rates))
		st := stats[si]
		r.res.detail("serve.p50_us."+name, "us", median(st.winP50), st.n)
		r.res.detail("serve.p90_us."+name, "us", st.p90, st.n)
		r.res.detail("serve.p99_us."+name, "us", median(st.winP99), st.n)
		r.res.detail("serve.p99_whole_step_us."+name, "us", st.p99, st.n)
		r.res.detail("serve.queue_wait_p50_us."+name, "us", st.queueP50, st.n)
		r.res.detail("serve.queue_wait_p99_us."+name, "us", st.queueP99, st.n)
		r.res.detail("serve.timer_slop_p99_us."+name, "us", st.slopP99, st.n)
		r.res.detail("serve.offered_rps."+name, "1/s", rate, st.n)
		if r.rec != nil {
			counted = addCounters(counted, before, r.rec.Report().Counters)
			var outs []connOutcome
			for _, w := range windows {
				outs = append(outs, w...)
			}
			replayStep(r, rig, reqs, outs, name, st)
		}
	}
	// The gated latencies: medians over the light step's windows of each
	// window's percentile.
	r.res.Metrics["latency_p50_us"] = summarize("us", stats[0].winP50)
	r.res.Metrics["latency_p99_us"] = summarize("us", stats[0].winP99)
	maxRate := 0.0
	for _, st := range stats {
		if st.sustained() && st.rate > maxRate {
			maxRate = st.rate
		}
	}
	r.res.detail("serve.max_rate_rps", "1/s", maxRate, len(stats))

	var rates []float64
	pos := make([]int, conns)
	for wi := 0; wi < cfg.closedWindows; wi++ {
		outs, sent, completed := rig.closedLoop(r, reqs, order, pos, cfg.window)
		r.between()
		r.merge(outs)
		r.res.Attempted += int64(sent)
		rates = append(rates, float64(completed)/cfg.window.Seconds())
	}
	r.res.Metrics["throughput"] = summarize("1/s", rates)

	if r.rec != nil {
		r.res.layer("serve.max_rate_rps", maxRate)
		for _, c := range []struct {
			layer string
			ctr   obs.Counter
		}{
			{"serve.requests", obs.CtrServeRequests}, {"serve.shed", obs.CtrServeShed},
			{"serve.canceled", obs.CtrServeCanceled}, {"eval.inputs", obs.CtrEvalInputs},
			{"eval.special_hits", obs.CtrEvalSpecialHits},
		} {
			r.res.layer(c.layer, float64(counted[string(c.ctr)]))
		}
	}
	return nil
}

// stepName names step si of n: lo/mid/hi for the standard three steps.
func stepName(si, n int) string {
	if n == len(serveSteps) {
		return serveSteps[si]
	}
	return fmt.Sprintf("step%d", si)
}

// addCounters accumulates the counter deltas between two snapshots.
func addCounters(acc, before, after map[string]int64) map[string]int64 {
	if acc == nil {
		acc = make(map[string]int64)
	}
	for k, v := range after {
		acc[k] += v - before[k]
	}
	return acc
}

// replayStep replays every request the step sent, in-process: once
// through Server.Evaluate (admission, validation, decoding, allocation and
// the kernel) and once through libm.EvalBatch (the kernel alone). The
// means split the step's mean latency into queue wait, wire (round trip −
// Evaluate), server self time (Evaluate − kernel) and kernel time.
func replayStep(r *run, rig *serveRig, reqs []serveReq, outs []connOutcome, name string, st stepStats) {
	tr := r.tr
	var evalNS, kernelNS float64
	var n int
	dst := make([]uint64, 256)
	ctx := context.Background()
	for _, o := range outs {
		for _, s := range o.samples {
			q := &reqs[s.req]
			id := tr.newID()
			t0 := tr.now()
			if _, err := rig.srv.Evaluate(ctx, q.req); err != nil {
				r.res.fail("serve-mixed: replay %v %v %v: %v", q.req.Fn, q.req.Out, q.req.Mode, err)
			}
			t1 := tr.now()
			if err := libm.EvalBatch(q.req.Fn, dst, q.xs, q.req.Out, q.req.Mode); err != nil {
				r.res.fail("serve-mixed: replay %v %v %v: %v", q.req.Fn, q.req.Out, q.req.Mode, err)
			}
			t2 := tr.now()
			tr.record(0, id, id, "serve.Server.Evaluate", t0, t1)
			tr.record(0, id, id, "libm.EvalBatch", t1, t2)
			tr.record(id, id, 0, "bench.replay", t0, t2)
			evalNS += float64(t1 - t0)
			kernelNS += float64(t2 - t1)
			n++
		}
	}
	if n == 0 || st.meanLat <= 0 {
		return
	}
	lat := st.meanLat * 1e3
	evalMean, kernelMean := evalNS/float64(n), kernelNS/float64(n)
	r.res.layer("serve.queue_frac."+name, st.meanQueue*1e3/lat)
	r.res.layer("serve.wire_frac."+name, (st.meanRTT*1e3-evalMean)/lat)
	r.res.layer("serve.self_frac."+name, (evalMean-kernelMean)/lat)
	r.res.layer("libm.evalbatch_frac."+name, kernelMean/lat)
	if st.p99 > 0 {
		r.res.layer("serve.queue_p99_frac."+name, st.queueP99/st.p99)
	}
	r.res.detail("serve.evaluate_us."+name, "us", evalMean/1e3, n)
	r.res.detail("libm.evalbatch_us."+name, "us", kernelMean/1e3, n)
}

// calibrateServe measures the closed-loop capacity of the serve-mixed mix
// in ten windows of d/10 and proposes step rates at 15, 40 and 70% of it.
func calibrateServe(seed int64, d time.Duration) error {
	r := &run{res: newResult("serve-mixed", seed, int(d.Seconds()), false)}
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(seed))
	reqs, err := makeServeRequests(4096, rng)
	if err != nil {
		return err
	}
	order := make([][]int, conns)
	for ci := range order {
		order[ci] = rng.Perm(len(reqs))
	}
	rig, err := startRig(conns, nil)
	if err != nil {
		return err
	}
	const windows = 10
	var rates []float64
	pos := make([]int, conns)
	for wi := 0; wi < windows; wi++ {
		outs, _, completed := rig.closedLoop(r, reqs, order, pos, d/windows)
		r.merge(outs)
		rates = append(rates, float64(completed)/(d/windows).Seconds())
	}
	if err := rig.close(); err != nil {
		return err
	}
	if r.res.Failed > 0 {
		return fmt.Errorf("calibrate-serve: %d failed requests: %v", r.res.Failed, r.res.Failures)
	}
	m := summarize("1/s", rates)
	fmt.Printf("serve-mixed closed-loop capacity: %.0f req/s (q1 %.0f, q3 %.0f, %d windows, %d connections)\n",
		m.Value, m.Q1, m.Q3, m.N, conns)
	fmt.Printf("proposed steps: lo %.0f  mid %.0f  hi %.0f req/s (15/40/70%%)\n",
		roundTo(0.15*m.Value, 100), roundTo(0.40*m.Value, 100), roundTo(0.70*m.Value, 100))
	return nil
}

func roundTo(v, step float64) float64 { return math.Round(v/step) * step }
