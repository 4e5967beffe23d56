package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bigmath"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/fp"
	"repro/internal/libm"
	"repro/internal/obs"
)

// The robustness acceptance tests of the serving layer. Three are the
// PR's acceptance criteria verbatim: a drain lets every admitted request
// complete with responses bit-identical to a direct libm EvalBatch call;
// flooding past the queue bound yields only typed overload errors with no
// goroutine leaks; and a mid-traffic table swap never mixes generations
// inside one response (reload_test.go). The rest pin the panic isolation,
// deadline and endpoint-protocol contracts.

var testFormat = fp.MustFormat(10, 8)

// newTestServer builds an unstarted server over the baked-in tables.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startTestServer additionally binds loopback HTTP and bulk listeners and
// tears the server down with the test.
func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := newTestServer(t, cfg)
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// directBits evaluates inputs straight through libm's batch kernel — the
// bit-identity reference every served response is held to.
func directBits(t *testing.T, fn bigmath.Func, inputs []uint64) []uint64 {
	t.Helper()
	xs := make([]float64, len(inputs))
	for i, b := range inputs {
		xs[i] = testFormat.Decode(b)
	}
	dst := make([]uint64, len(xs))
	if err := libm.EvalBatch(fn, dst, xs, testFormat, fp.RoundNearestEven); err != nil {
		t.Fatal(err)
	}
	return dst
}

// testInputs is a deterministic spread over the test format's patterns.
func testInputs(n int) []uint64 {
	inputs := make([]uint64, n)
	nv := testFormat.NumValues()
	for i := range inputs {
		inputs[i] = (uint64(i) * 37) % nv
	}
	return inputs
}

func postEval(t *testing.T, addr string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestEvaluateMatchesLibm: the core path answers bit-identically to a
// direct libm EvalBatch for every function and standard mode.
func TestEvaluateMatchesLibm(t *testing.T) {
	s := newTestServer(t, Config{})
	inputs := testInputs(64)
	for _, fn := range bigmath.AllFuncs {
		for _, mode := range fp.StandardModes {
			got, err := s.Evaluate(context.Background(), Request{Fn: fn, Out: testFormat, Mode: mode, Inputs: inputs})
			if err != nil {
				t.Fatalf("%v/%v: %v", fn, mode, err)
			}
			xs := make([]float64, len(inputs))
			for i, b := range inputs {
				xs[i] = testFormat.Decode(b)
			}
			want := make([]uint64, len(xs))
			if err := libm.EvalBatch(fn, want, xs, testFormat, mode); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/%v input %#x: served %#x, libm %#x", fn, mode, inputs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestEvaluateRejections: malformed requests fail typed before touching a
// kernel — out-of-range bit patterns and oversized batches.
func TestEvaluateRejections(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4})
	var re *requestError
	_, err := s.Evaluate(context.Background(), Request{Fn: bigmath.Log2, Out: testFormat, Inputs: []uint64{testFormat.NumValues()}})
	if !errors.As(err, &re) {
		t.Errorf("out-of-range input: got %v, want *requestError", err)
	}
	_, err = s.Evaluate(context.Background(), Request{Fn: bigmath.Log2, Out: testFormat, Inputs: make([]uint64, 5)})
	if !errors.As(err, &re) {
		t.Errorf("oversized batch: got %v, want *requestError", err)
	}
}

// TestOverloadShedsTyped is the overload acceptance test: with the queue
// pinned full, every extra request is shed as a typed serve-overload
// fault — and after the flood drains, the server leaks no goroutines.
func TestOverloadShedsTyped(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		const queue = 4
		s := newTestServer(t, Config{Queue: queue})
		s.holdRequests = make(chan struct{})
		inputs := testInputs(8)
		req := Request{Fn: bigmath.Log2, Out: testFormat, Inputs: inputs}

		// Fill every admission slot with held requests.
		var wg sync.WaitGroup
		errs := make([]error, queue)
		outs := make([][]uint64, queue)
		for i := 0; i < queue; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i], errs[i] = s.Evaluate(context.Background(), req)
			}(i)
		}
		waitFor(t, "queue to fill", func() bool { return len(s.sem) == queue })

		// Flood: every request past the bound must shed, typed, immediately.
		const flood = 64
		for i := 0; i < flood; i++ {
			_, err := s.Evaluate(context.Background(), req)
			if !errors.Is(err, &fault.Error{Code: fault.CodeOverload}) {
				t.Fatalf("flood request %d: got %v, want serve-overload", i, err)
			}
		}
		// Release the held requests: they complete normally, bit-identical.
		close(s.holdRequests)
		wg.Wait()
		want := directBits(t, bigmath.Log2, inputs)
		for i := 0; i < queue; i++ {
			if errs[i] != nil {
				t.Fatalf("held request %d: %v", i, errs[i])
			}
			if !equalBits(outs[i], want) {
				t.Fatalf("held request %d answered wrong bits", i)
			}
		}
	}()
	// Zero goroutine leaks: the flood and the held requests are gone.
	waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= before+1 })
}

// TestOverloadCounted: the shed path increments serve.shed on a live span.
func TestOverloadCounted(t *testing.T) {
	rec := obs.New("test")
	s := newTestServer(t, Config{Queue: 1, Span: rec.Root()})
	s.holdRequests = make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Evaluate(context.Background(), Request{Fn: bigmath.Log2, Out: testFormat, Inputs: testInputs(1)})
	}()
	waitFor(t, "queue to fill", func() bool { return len(s.sem) == 1 })
	_, err := s.Evaluate(context.Background(), Request{Fn: bigmath.Log2, Out: testFormat, Inputs: testInputs(1)})
	if fault.CodeOf(err) != fault.CodeOverload {
		t.Fatalf("got %v, want serve-overload", err)
	}
	if got := rec.Report().Counters[string(obs.CtrServeShed)]; got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}
	close(s.holdRequests)
	<-done
}

// TestDrainCompletesAdmitted is the drain acceptance test: requests in
// flight when Shutdown begins all complete with responses bit-identical
// to a direct libm EvalBatch call; requests arriving during the drain are
// refused typed (serve-draining); Shutdown returns only after the
// in-flight work is done.
func TestDrainCompletesAdmitted(t *testing.T) {
	const inFlight = 6
	s := startTestServer(t, Config{Queue: inFlight * 2})
	s.holdRequests = make(chan struct{})
	inputs := testInputs(32)
	req := Request{Fn: bigmath.Exp2, Out: testFormat, Inputs: inputs}

	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	outs := make([][]uint64, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = s.Evaluate(context.Background(), req)
		}(i)
	}
	waitFor(t, "requests to be admitted", func() bool { return len(s.sem) == inFlight })

	// Begin the drain concurrently; it must block on the held requests.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, "server to start draining", s.draining.Load)

	// A request arriving mid-drain is refused typed, not hung.
	if _, err := s.Evaluate(context.Background(), req); fault.CodeOf(err) != fault.CodeDraining {
		t.Fatalf("mid-drain request: got %v, want serve-draining", err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while requests were still held", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the admitted requests: they complete, then Shutdown returns.
	close(s.holdRequests)
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	want := directBits(t, bigmath.Exp2, inputs)
	for i := 0; i < inFlight; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted request %d: %v", i, errs[i])
		}
		if !equalBits(outs[i], want) {
			t.Fatalf("admitted request %d: response not bit-identical to libm.EvalBatch", i)
		}
	}
}

// TestPanicIsolation: a panic inside one request becomes that request's
// typed serve-panic error; the admission slot is released and the server
// keeps answering.
func TestPanicIsolation(t *testing.T) {
	rec := obs.New("test")
	s := newTestServer(t, Config{Queue: 2, Span: rec.Root()})
	boom := true
	s.panicFn = func(Request) {
		if boom {
			boom = false
			panic("injected request panic")
		}
	}
	req := Request{Fn: bigmath.Sinh, Out: testFormat, Inputs: testInputs(4)}
	_, err := s.Evaluate(context.Background(), req)
	if fault.CodeOf(err) != fault.CodeServePanic {
		t.Fatalf("got %v, want serve-panic", err)
	}
	if got := rec.Report().Counters[string(obs.CtrServePanics)]; got != 1 {
		t.Errorf("serve.panics = %d, want 1", got)
	}
	// The slot was released and the next request works.
	out, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("request after panic: %v", err)
	}
	if !equalBits(out, directBits(t, bigmath.Sinh, req.Inputs)) {
		t.Error("request after panic answered wrong bits")
	}
	if n := len(s.sem); n != 0 {
		t.Errorf("%d admission slots leaked", n)
	}
}

// TestDeadlineCancels: an expired context stops the batch mid-way with a
// typed canceled fault.
func TestDeadlineCancels(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Evaluate(ctx, Request{Fn: bigmath.Log2, Out: testFormat, Inputs: testInputs(8)})
	if fault.CodeOf(err) != fault.CodeCanceled {
		t.Fatalf("got %v, want canceled", err)
	}
}

// TestHTTPEndToEnd: the JSON endpoint round-trips a request bit-identically
// and maps failures to documented statuses.
func TestHTTPEndToEnd(t *testing.T) {
	s := startTestServer(t, Config{})
	addr := s.HTTPAddr().String()
	inputs := testInputs(16)
	body, _ := json.Marshal(map[string]interface{}{
		"func": "log2", "format": "F10,8", "mode": "rn", "inputs": inputs,
	})
	resp, data := postEval(t, addr, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Outputs []uint64 `json:"outputs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !equalBits(out.Outputs, directBits(t, bigmath.Log2, inputs)) {
		t.Error("HTTP response not bit-identical to libm.EvalBatch")
	}

	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad-func", `{"func":"tan","format":"F10,8","inputs":[1]}`, http.StatusBadRequest, "bad-request"},
		{"bad-format", `{"func":"log2","format":"bogus","inputs":[1]}`, http.StatusBadRequest, "bad-request"},
		{"bad-json", `{`, http.StatusBadRequest, "bad-request"},
		{"out-of-range", `{"func":"log2","format":"F10,8","inputs":[99999]}`, http.StatusBadRequest, "bad-request"},
		{"too-wide", `{"func":"log2","format":"F34,8","inputs":[1]}`, http.StatusNotFound, "no-tables"},
	} {
		resp, data := postEval(t, addr, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != tc.code {
			t.Errorf("%s: error code %q (err %v), want %q", tc.name, eb.Error.Code, err, tc.code)
		}
	}
}

// TestHealthEndpoints: healthz is liveness, readyz tracks draining, and
// statusz names every served function's table source.
func TestHealthEndpoints(t *testing.T) {
	s := startTestServer(t, Config{})
	addr := s.HTTPAddr().String()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Fingerprint string            `json:"fingerprint"`
		Functions   map[string]string `json:"functions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint == "" || len(st.Functions) != len(bigmath.AllFuncs) {
		t.Errorf("statusz: fingerprint %q, %d functions", st.Fingerprint, len(st.Functions))
	}
	for fn, src := range st.Functions {
		if src != "builtin" {
			t.Errorf("statusz: %s source %q, want builtin", fn, src)
		}
	}
}

// TestBulkEndToEnd: the framed endpoint answers bit-identically, reports
// typed errors with the same stable codes as HTTP, and echoes request IDs.
func TestBulkEndToEnd(t *testing.T) {
	s := startTestServer(t, Config{})
	c, err := DialBulk(s.BulkAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inputs := testInputs(64)
	for _, fn := range []bigmath.Func{bigmath.Log2, bigmath.CosPi} {
		out, err := c.Eval(Request{Fn: fn, Out: testFormat, Mode: fp.RoundNearestEven, Inputs: inputs})
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		if !equalBits(out, directBits(t, fn, inputs)) {
			t.Errorf("%v: bulk response not bit-identical to libm.EvalBatch", fn)
		}
	}
	// A typed failure leaves the connection usable.
	_, err = c.Eval(Request{Fn: bigmath.Log2, Out: fp.MustFormat(34, 8), Inputs: []uint64{1}})
	var be *BulkError
	if !errors.As(err, &be) || be.Code != "no-tables" {
		t.Fatalf("too-wide bulk request: got %v, want BulkError[no-tables]", err)
	}
	if out, err := c.Eval(Request{Fn: bigmath.Log2, Out: testFormat, Inputs: inputs[:4]}); err != nil || len(out) != 4 {
		t.Fatalf("request after typed error: %v (%d outputs)", err, len(out))
	}
}

// TestTooWideIsNoTables: a format one bit wider than the served tables
// fails kernel compilation with the one too-wide sentinel (libm's and
// eval's are the same value), which both endpoints answer as no-tables.
func TestTooWideIsNoTables(t *testing.T) {
	largest, ok := libm.LargestFormat()
	if !ok {
		t.Skip("no generated tables")
	}
	wide := fp.MustFormat(largest.Bits()+1, largest.ExpBits())
	s := startTestServer(t, Config{})
	_, err := s.Evaluate(context.Background(), Request{Fn: bigmath.Exp2, Out: wide, Inputs: []uint64{1}})
	if !errors.Is(err, libm.ErrTooWide) || !errors.Is(err, eval.ErrTooWide) {
		t.Fatalf("Evaluate(%v) = %v, want libm.ErrTooWide and eval.ErrTooWide", wide, err)
	}

	body := fmt.Sprintf(`{"func":"exp2","format":"F%d,%d","inputs":[1]}`, wide.Bits(), wide.ExpBits())
	resp, data := postEval(t, s.HTTPAddr().String(), body)
	var eb errorBody
	if jerr := json.Unmarshal(data, &eb); resp.StatusCode != http.StatusNotFound || jerr != nil || eb.Error.Code != "no-tables" {
		t.Errorf("HTTP %v: status %d code %q (%v), want 404 no-tables", wide, resp.StatusCode, eb.Error.Code, jerr)
	}

	c, err := DialBulk(s.BulkAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Eval(Request{Fn: bigmath.Exp2, Out: wide, Inputs: []uint64{1}})
	var be *BulkError
	if !errors.As(err, &be) || be.Code != "no-tables" {
		t.Errorf("bulk %v: got %v, want BulkError[no-tables]", wide, err)
	}
}

// TestBulkDrainDisconnectsIdle: Shutdown wakes an idle bulk connection
// and returns without waiting for its (infinite) idle timeout.
func TestBulkDrainDisconnectsIdle(t *testing.T) {
	s := startTestServer(t, Config{IdleTimeout: time.Hour})
	c, err := DialBulk(s.BulkAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prove the connection is live first.
	if _, err := c.Eval(Request{Fn: bigmath.Log2, Out: testFormat, Inputs: testInputs(2)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle bulk connection: %v", err)
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitFor polls cond to avoid sleeping for fixed durations in tests.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
		runtime.Gosched()
	}
}
