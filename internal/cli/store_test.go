package cli_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/pipeline"
)

// The cross-backend acceptance tests: the generated coefficients must be
// bit-identical whether the pipeline runs over the disk store, the memory
// store or the remote store, at one and four workers; a two-process
// shard-claim run must assemble the same bytes as a single process; and
// injected remote/claim faults must recover bit-identically or fail with
// a typed *fault.Error, with the store audit-clean after every scenario.
//
// When RLIBM_STORE_ARTIFACTS names a directory (the CI loopback job sets
// it), each scenario dumps its post-run Audit verdict and store event log
// there for artifact upload.

// storeWorkers returns the worker count for the distribution scenarios:
// def unless RLIBM_STORE_WORKERS overrides it (the CI loopback matrix runs
// the suite at one and four workers).
func storeWorkers(def int) int {
	if s := os.Getenv("RLIBM_STORE_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// startStoreServer serves backing over a loopback listener and tears it
// down with the test. It returns the dial address.
func startStoreServer(t *testing.T, backing pipeline.Store) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := pipeline.Serve(l, backing, pipeline.ServeOptions{}, nil); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// TestOpenStore is the table of the one store selector: the URLs -store
// accepts open the backend they name (a positive budget on a local store
// wraps it in LRU eviction), everything else is rejected before any store
// is opened, and Validate agrees with the opener on every row.
func TestOpenStore(t *testing.T) {
	addr := startStoreServer(t, pipeline.NewMemStore())
	dir := t.TempDir()
	for _, tc := range []struct {
		url      string
		maxBytes int64
		want     string // %T of the opened store; "" means rejected
	}{
		{"dir:" + dir, 0, "*pipeline.DiskStore"},
		{"mem:", 0, "*pipeline.MemStore"},
		{"tcp://" + addr, 0, "*pipeline.RemoteStore"},
		{"", 0, "<nil>"},
		{"dir:" + dir, 1 << 20, "*pipeline.EvictingStore"},
		{"mem:", 1 << 20, "*pipeline.EvictingStore"},
		{"dir:", 0, ""},
		{"tcp://", 0, ""},
		{"mem", 0, ""},
		{"tcp:" + addr, 0, ""},
		{"s3://x", 0, ""},
		{"tcp://" + addr, 1 << 20, ""},
		{"mem:", -1, ""},
	} {
		st, err := cli.OpenStore(tc.url, tc.maxBytes)
		if rs, ok := st.(*pipeline.RemoteStore); ok {
			rs.Close()
		}
		verr := (&cli.Common{Workers: 1, Bits: 16, StoreURL: tc.url, StoreMaxBytes: tc.maxBytes}).Validate()
		if tc.want == "" {
			if err == nil || !strings.HasPrefix(err.Error(), "invalid -store") {
				t.Errorf("OpenStore(%q, %d) = %T, %v; want an invalid -store… error", tc.url, tc.maxBytes, st, err)
			}
			if verr == nil {
				t.Errorf("Validate accepted -store %q -store-max-bytes %d", tc.url, tc.maxBytes)
			}
			continue
		}
		if err != nil {
			t.Errorf("OpenStore(%q, %d): %v", tc.url, tc.maxBytes, err)
		} else if got := fmt.Sprintf("%T", st); got != tc.want {
			t.Errorf("OpenStore(%q, %d) = %s, want %s", tc.url, tc.maxBytes, got, tc.want)
		}
		if verr != nil {
			t.Errorf("Validate rejected -store %q -store-max-bytes %d: %v", tc.url, tc.maxBytes, verr)
		}
	}
}

// dialStore returns a remote client for addr, closed with the test.
func dialStore(t *testing.T, addr string) *pipeline.RemoteStore {
	t.Helper()
	rs, err := pipeline.DialRemote(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// dumpStoreArtifacts writes the post-run audit verdict and event log of
// one scenario into $RLIBM_STORE_ARTIFACTS, when set.
func dumpStoreArtifacts(t *testing.T, scenario string, st pipeline.Store) {
	t.Helper()
	dir := os.Getenv("RLIBM_STORE_ARTIFACTS")
	if dir == "" || st == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("store artifacts dir: %v", err)
		return
	}
	audit := "ok"
	if err := st.Audit(); err != nil {
		audit = err.Error()
	}
	base := filepath.Join(dir, scenario)
	if err := os.WriteFile(base+"-audit.txt", []byte(audit+"\n"), 0o644); err != nil {
		t.Logf("write audit artifact: %v", err)
	}
	events, err := json.MarshalIndent(st.Events(), "", "  ")
	if err == nil {
		err = os.WriteFile(base+"-events.json", append(events, '\n'), 0o644)
	}
	if err != nil {
		t.Logf("write event-log artifact: %v", err)
	}
}

// TestBackendBitIdentity: one function generated through all three
// backends at one and four workers emits byte-identical coefficient
// tables, and every store passes its post-run audit.
func TestBackendBitIdentity(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4} {
		backends := map[string]pipeline.Store{
			"disk": openStore(t, t.TempDir()),
			"mem":  pipeline.NewMemStore(),
			"tcp":  dialStore(t, startStoreServer(t, pipeline.NewMemStore())),
		}
		for _, name := range []string{"disk", "mem", "tcp"} {
			st := backends[name]
			scenario := name + map[int]string{1: "-w1", 4: "-w4"}[workers]
			res, _, err := cli.GenerateVerified(context.Background(), testFn, progOpts(workers), st)
			if err != nil {
				t.Fatalf("%s: %v", scenario, err)
			}
			emit := []byte(gen.EmitGo(res, "libm", "registerTest"))
			if ref == nil {
				ref = emit
			} else if !bytes.Equal(emit, ref) {
				t.Errorf("%s: emitted bytes differ from the disk/w1 reference", scenario)
			}
			if err := st.Audit(); err != nil {
				t.Errorf("%s: audit: %v", scenario, err)
			}
			if n := st.CountEvents("", false); n == 0 {
				t.Errorf("%s: store saw no traffic", scenario)
			}
			dumpStoreArtifacts(t, "bit-identity-"+scenario, st)
		}
	}
}

// TestTwoProcessShardClaim is the distribution acceptance test: two
// clients of one store server, running shards 0/2 and 1/2 of the same
// generation, must both assemble the result byte-identically to a solo
// run — and the sealed verify artifact each leaves in the shared store
// must equal the solo run's artifact byte for byte.
func TestTwoProcessShardClaim(t *testing.T) {
	opt := progOpts(storeWorkers(2))

	// Solo reference: a single process over a disk store.
	refDir := t.TempDir()
	refStore := openStore(t, refDir)
	refRes, _, err := cli.GenerateVerifiedSharded(context.Background(), testFn, progOpts(storeWorkers(2)), refStore, gen.Shard{})
	if err != nil {
		t.Fatalf("solo reference: %v", err)
	}
	refEmit := []byte(gen.EmitGo(refRes, "libm", "registerTest"))
	refArtifact, ok := refStore.Get(gen.VerifyKey(testFn, opt), gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok {
		t.Fatal("solo reference left no verify artifact")
	}

	// Two cooperating processes sharing one remote store.
	backing := pipeline.NewMemStore()
	addr := startStoreServer(t, backing)
	clients := []*pipeline.RemoteStore{dialStore(t, addr), dialStore(t, addr)}
	emits := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := cli.GenerateVerifiedSharded(context.Background(), testFn,
				progOpts(storeWorkers(2)), clients[k], gen.Shard{K: k, N: 2})
			if err != nil {
				errs[k] = err
				return
			}
			emits[k] = []byte(gen.EmitGo(res, "libm", "registerTest"))
		}()
	}
	wg.Wait()
	for k := 0; k < 2; k++ {
		if errs[k] != nil {
			t.Fatalf("shard %d/2: %v", k, errs[k])
		}
		if !bytes.Equal(emits[k], refEmit) {
			t.Errorf("shard %d/2 assembled different bytes than the solo run", k)
		}
		dumpStoreArtifacts(t, map[int]string{0: "two-process-shard0", 1: "two-process-shard1"}[k], clients[k])
	}

	// The shared store holds the same sealed verify artifact the solo run
	// produced, plus the distributed work units and claims next to it.
	shared, ok := backing.Get(gen.VerifyKey(testFn, opt), gen.ResultCodec.Name, gen.ResultCodec.Version)
	if !ok {
		t.Fatal("shared store holds no verify artifact")
	}
	if !bytes.Equal(shared, refArtifact) {
		t.Error("shared verify artifact differs from the solo run's artifact")
	}
	units := 0
	for _, cl := range clients {
		units += cl.CountEvents(gen.StageVerifyShard, false) + cl.CountEvents(gen.StageVerifyShard, true)
	}
	if units == 0 {
		t.Error("no verify-shard work units were exchanged; the run did not distribute")
	}
	if err := backing.Audit(); err != nil {
		t.Errorf("shared store audit: %v", err)
	}
}

// TestTwoProcessShardClaimDeadPeer is the kill-one-peer acceptance test:
// shard 1/2 claims every one of its work units and is then killed before
// computing any of them — its claims sit in the store with a heartbeat
// stamp that never advances. The surviving shard 0/2 must detect each
// frozen stamp, reclaim the unit before the full poll window expires, and
// still assemble bytes identical to a solo run.
func TestTwoProcessShardClaimDeadPeer(t *testing.T) {
	opt := progOpts(storeWorkers(2))

	// Solo reference.
	refRes, _, err := cli.GenerateVerifiedSharded(context.Background(), testFn, progOpts(storeWorkers(2)), pipeline.NewMemStore(), gen.Shard{})
	if err != nil {
		t.Fatalf("solo reference: %v", err)
	}
	refEmit := []byte(gen.EmitGo(refRes, "libm", "registerTest"))

	// The dead peer: claims all four of its potential units (2 levels ×
	// 2 passes, unit index 1 of 2) and never refreshes or computes.
	backing := pipeline.NewMemStore()
	addr := startStoreServer(t, backing)
	dead := gen.Shard{K: 1, N: 2}
	for li := 0; li < 2; li++ {
		for pass := 0; pass < 2; pass++ {
			gen.RefreshClaim(backing, gen.VerifyShardKey(testFn, opt, li, pass, 1, 2), dead, 3)
		}
	}

	// The survivor, with a log capture so the early-reclaim path is
	// observable: the "unrefreshed" diagnostic only fires from the
	// stall-budget branch, which trips long before the poll window ends.
	var logMu sync.Mutex
	var reclaims int
	runOpt := progOpts(storeWorkers(2))
	runOpt.Logf = func(format string, args ...interface{}) {
		logMu.Lock()
		defer logMu.Unlock()
		if strings.Contains(format, "unrefreshed") {
			reclaims++
		}
	}
	res, _, err := cli.GenerateVerifiedSharded(context.Background(), testFn, runOpt, dialStore(t, addr), gen.Shard{K: 0, N: 2})
	if err != nil {
		t.Fatalf("survivor run: %v", err)
	}
	if got := []byte(gen.EmitGo(res, "libm", "registerTest")); !bytes.Equal(got, refEmit) {
		t.Error("survivor assembled different bytes than the solo run")
	}
	logMu.Lock()
	got := reclaims
	logMu.Unlock()
	if got == 0 {
		t.Error("no dead claim was reclaimed via the stall budget; the survivor waited out the full window or never saw the claims")
	}
	if err := backing.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
	dumpStoreArtifacts(t, "dead-peer", backing)
}

// TestShardStaleClaimRecovers: a claim that always reads back stale
// (SiteClaimStale) makes the process treat peers as dead and compute
// every unit itself — at worst duplicated work, never different bytes.
func TestShardStaleClaimRecovers(t *testing.T) {
	ref, _, err := cli.GenerateVerified(context.Background(), testFn, progOpts(storeWorkers(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	refEmit := []byte(gen.EmitGo(ref, "libm", "registerTest"))

	plan := fault.NewPlan().From(fault.SiteClaimStale, 1)
	opt := progOpts(storeWorkers(2))
	opt.Faults = plan
	st := pipeline.NewMemStore()
	st.SetFaults(plan)
	res, _, err := cli.GenerateVerifiedSharded(context.Background(), testFn, opt, st, gen.Shard{K: 0, N: 2})
	if err != nil {
		t.Fatalf("stale-claim run: %v", err)
	}
	if got := []byte(gen.EmitGo(res, "libm", "registerTest")); !bytes.Equal(got, refEmit) {
		t.Error("stale-claim run emitted different bytes")
	}
	if plan.Count(fault.SiteClaimStale) == 0 {
		t.Error("stale-claim site never probed")
	}
	if err := st.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
	dumpStoreArtifacts(t, "stale-claim", st)
}

// TestRemoteFaultsEndToEnd drives the remote injection sites through the
// full generation pipeline over a loopback server: a transient fault must
// recover bit-identically; a keeps-firing transport fault degrades the
// store to a pure pass-through (every Get a miss, every Put a logged
// failure) and the run still emits the reference bytes.
func TestRemoteFaultsEndToEnd(t *testing.T) {
	ref, _, err := cli.GenerateVerified(context.Background(), testFn, progOpts(storeWorkers(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	refEmit := []byte(gen.EmitGo(ref, "libm", "registerTest"))

	scenarios := []struct {
		name string
		plan *fault.Plan
	}{
		{"conn-drop-once", fault.NewPlan().At(fault.SiteRemoteConn, 1)},
		{"short-frame-once", fault.NewPlan().At(fault.SiteRemoteShort, 1)},
		{"conn-drop-always", fault.NewPlan().From(fault.SiteRemoteConn, 1)},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			backing := pipeline.NewMemStore()
			rs := dialStore(t, startStoreServer(t, backing))
			rs.SetFaults(sc.plan)
			opt := progOpts(storeWorkers(2))
			res, _, err := cli.GenerateVerified(context.Background(), testFn, opt, rs)
			if err != nil {
				// A run may only fail with a typed fault carrying context.
				var fe *fault.Error
				if !errors.As(err, &fe) {
					t.Fatalf("error is not a *fault.Error: %v", err)
				}
				return
			}
			if got := []byte(gen.EmitGo(res, "libm", "registerTest")); !bytes.Equal(got, refEmit) {
				t.Errorf("emitted bytes differ from the no-fault reference")
			}
			if err := backing.Audit(); err != nil {
				t.Errorf("backing audit: %v", err)
			}
			dumpStoreArtifacts(t, "remote-"+sc.name, rs)
		})
	}
}
