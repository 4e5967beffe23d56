package main

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// Speed normalisation. The reference machine is a shared virtual machine
// whose speed shifts by up to a third for minutes at a time while nothing
// else runs in it; one of its two vCPUs also runs well below the other's
// speed for tens of milliseconds at a time. The shifts move every timing of
// a run, so the benchmark times a fixed reference computation (refWork,
// which calls nothing outside this file) at the start and end of the run
// and between its measurement intervals, and reports every timed
// end-to-end metric at a fixed reference speed: times are multiplied, and
// rates divided, by the run's speed factor, the mean reference rate over
// refNominal. A single probe says little (it sees the slow vCPU or not);
// the mean of a run's 20 to 50 probes tracks the speed the run had. The
// measured values are kept as detail lines (suffix _raw), with the factor
// (speed.factor, whose quartiles are those of the single probes).

// refNominal is the reference rate, iterations per second per worker, that
// a speed factor of 1 stands for: about what one worker of the reference
// machine (a 2-vCPU Xeon VM) measures when it is not slowed down.
const refNominal = 2.5e8

// refProbe is how long one probe of the reference lasts at refNominal.
const refProbe = 40 * time.Millisecond

// refTable gives refWork a small working set of memory loads.
var refTable = func() (t [2048]uint64) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

// refWork is the reference computation: a mix of integer, multiply,
// table-load and floating-point work, as the library's kernels, oracle and
// generator mix them. It returns a value that depends on every iteration.
func refWork(seed uint64, n int) uint64 {
	x := seed | 1
	var acc uint64
	y := 1.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hi, lo := bits.Mul64(x, 0x9E3779B97F4A7C15)
		acc += hi ^ refTable[lo&2047]
		r := float64(x>>11) * 0x1p-53
		y = y*0.5 + ((((0.0083*r+0.0416)*r+0.1666)*r+0.5)*r+1)*r + 1
		acc += math.Float64bits(y) & 1
	}
	return acc ^ math.Float64bits(y)
}

// speedMeter probes the reference on as many goroutines as the workload
// keeps busy.
type speedMeter struct {
	workers int
	iters   int       // per worker and probe
	rates   []float64 // of every probe so far, per worker
	sink    uint64
}

func newSpeedMeter(workers int) *speedMeter {
	return &speedMeter{workers: workers, iters: int(refNominal * refProbe.Seconds())}
}

// probe runs the reference once on every worker and records the rate per
// worker. It collects garbage first, so that no collector cycle the
// measured interval left behind runs during the probe.
func (m *speedMeter) probe() {
	runtime.GC()
	sums := make([]uint64, m.workers)
	start := time.Now()
	if m.workers == 1 {
		// On the calling goroutine, so on the thread the serial workload
		// runs on.
		sums[0] = refWork(1, m.iters)
	} else {
		var wg sync.WaitGroup
		for w := range sums {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sums[w] = refWork(uint64(w+1), m.iters)
			}(w)
		}
		wg.Wait()
	}
	d := time.Since(start)
	for _, s := range sums {
		m.sink ^= s
	}
	m.rates = append(m.rates, float64(m.iters)/d.Seconds())
}

// factor returns the run's speed factor: the mean probed rate over
// refNominal. A factor below 1 means the machine ran slow.
func (m *speedMeter) factor() float64 {
	return mean(m.rates) / refNominal
}

// normalize reports every timed end-to-end metric of res at reference
// speed, keeping the measured value as name_raw.
func (m *speedMeter) normalize(res *result) {
	f := m.factor()
	fs := make([]float64, len(m.rates))
	for i, r := range m.rates {
		fs[i] = r / refNominal
	}
	q1, q3 := quartiles(fs)
	res.Detail["speed.factor"] = metric{Value: f, Unit: "ratio", N: len(fs), Q1: q1, Q3: q3}
	for _, s := range endToEnd {
		v, ok := res.Metrics[s.name]
		if !ok || s.speed == 0 {
			continue
		}
		res.Detail[s.name+"_raw"] = v
		if s.speed > 0 {
			res.Metrics[s.name] = v.scaled(f)
		} else {
			res.Metrics[s.name] = v.scaled(1 / f)
		}
	}
}
