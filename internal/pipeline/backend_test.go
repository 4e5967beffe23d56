package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// The backend matrix: every Store implementation must expose identical
// observable behavior through Run — cold compute, warm hit, event log,
// injected store faults, audit — so the pipeline's correctness argument
// (caching is an optimization, never a correctness dependency) holds no
// matter which backend a command selects with -store.

// startRemote serves backing on a loopback listener and returns a
// connected client. The listener, server goroutine and client are torn
// down with the test.
func startRemote(t *testing.T, backing Store) *RemoteStore {
	t.Helper()
	rs, err := DialRemote(startServe(t, backing, ServeOptions{}), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// backendCases returns one constructor per Store backend. The remote
// backend fronts a fresh MemStore, and faults scheduled through the
// returned Store's SetFaults reach the backend that owns each site: the
// client for store.remote.*, the backing for store.* (tests that need the
// latter schedule on the backing directly).
func backendCases(t *testing.T) map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"disk": func(t *testing.T) Store {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
		"mem": func(t *testing.T) Store {
			return NewMemStore()
		},
		"remote": func(t *testing.T) Store {
			return startRemote(t, NewMemStore())
		},
		// The evicting wrapper with an ample budget must be observably
		// transparent: same events, same faults, same bytes.
		"evicting": func(t *testing.T) Store {
			return NewEvictingStore(NewMemStore(), 1<<30)
		},
	}
}

func TestBackendMatrixColdWarm(t *testing.T) {
	want := []float64{1, 2.5, -3}
	for name, open := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			computes := 0
			compute := func(context.Context) ([]float64, error) { computes++; return want, nil }

			v, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute)
			if err != nil || hit || len(v) != len(want) {
				t.Fatalf("cold: v=%v hit=%v err=%v", v, hit, err)
			}
			v, hit, err = Run(context.Background(), st, testKey(), testCodec, nil, compute)
			if err != nil || !hit || len(v) != len(want) {
				t.Fatalf("warm: v=%v hit=%v err=%v", v, hit, err)
			}
			if computes != 1 {
				t.Errorf("compute ran %d times, want 1", computes)
			}
			ev := st.Events()
			if len(ev) != 2 || ev[0].Hit || !ev[1].Hit {
				t.Errorf("events: %+v", ev)
			}
			if n := st.CountEvents("enumerate", true); n != 1 {
				t.Errorf("CountEvents(enumerate, hit) = %d, want 1", n)
			}
			if err := st.Audit(); err != nil {
				t.Errorf("audit: %v", err)
			}
			// Delete orphans the artifact; the next run recomputes.
			if err := st.Delete(testKey(), testCodec.Name, testCodec.Version); err != nil {
				t.Fatalf("delete: %v", err)
			}
			if _, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute); err != nil || hit {
				t.Fatalf("after delete: hit=%v err=%v", hit, err)
			}
		})
	}
}

// TestBackendMatrixStoreFaults drives the shared store injection sites
// through every backend: the run must recover with the correct value and
// the store must stay audit-clean. For the remote backend the store.*
// sites live in the backing store behind the server — the client only
// relays — so the plan is scheduled there.
func TestBackendMatrixStoreFaults(t *testing.T) {
	want := []float64{4, 5, 6}
	compute := func(context.Context) ([]float64, error) { return want, nil }
	sites := []fault.Site{
		fault.SiteStoreWrite, fault.SiteStoreWriteShort,
		fault.SiteStoreRead, fault.SiteStoreBitFlip,
	}
	for _, backend := range []string{"disk", "mem", "remote"} {
		for _, site := range sites {
			backend, site := backend, site
			t.Run(backend+"/"+string(site), func(t *testing.T) {
				var st, faulted Store
				switch backend {
				case "disk":
					ds, err := Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					st, faulted = ds, ds
				case "mem":
					ms := NewMemStore()
					st, faulted = ms, ms
				case "remote":
					backing := NewMemStore()
					st, faulted = startRemote(t, backing), backing
				}
				plan := fault.NewPlan().At(site, 1)
				faulted.SetFaults(plan)

				v, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute)
				if err != nil || hit || len(v) != len(want) {
					t.Fatalf("cold: v=%v hit=%v err=%v", v, hit, err)
				}
				v, _, err = Run(context.Background(), st, testKey(), testCodec, nil, compute)
				if err != nil || len(v) != len(want) {
					t.Fatalf("second: v=%v err=%v", v, err)
				}
				for i := range want {
					if v[i] != want[i] {
						t.Fatalf("value[%d] = %v, want %v", i, v[i], want[i])
					}
				}
				if plan.Count(site) == 0 {
					t.Fatalf("site %s never probed", site)
				}
				faulted.SetFaults(nil)
				if _, hit, err := Run(context.Background(), st, testKey(), testCodec, nil, compute); err != nil || !hit {
					t.Fatalf("third: hit=%v err=%v", hit, err)
				}
				if err := st.Audit(); err != nil {
					t.Fatalf("audit after %s: %v", site, err)
				}
			})
		}
	}
}

// TestRunRejectsEmptyKeyComponents is the regression test for the key-
// validation contract: an empty Func, Stage or Fingerprint would alias
// distinct runs onto one content address, so Run must reject it with a
// typed CodeStoreKey fault before touching the store — with or without a
// store attached — and never invoke compute.
func TestRunRejectsEmptyKeyComponents(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Key{
		{Func: "", Stage: "enumerate", Fingerprint: "abc"},
		{Func: "exp2", Stage: "", Fingerprint: "abc"},
		{Func: "exp2", Stage: "enumerate", Fingerprint: ""},
		{},
	}
	for _, stores := range []struct {
		name string
		st   Store
	}{{"disk", st}, {"nil", nil}} {
		for _, k := range bad {
			_, _, err := Run(context.Background(), stores.st, k, testCodec, nil,
				func(context.Context) ([]float64, error) {
					t.Errorf("compute ran for invalid key %+v", k)
					return nil, nil
				})
			if fault.CodeOf(err) != fault.CodeStoreKey {
				t.Errorf("store=%s key=%+v: err = %v, want CodeStoreKey fault", stores.name, k, err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Errorf("store=%s key=%+v: error is not a *fault.Error", stores.name, k)
			}
		}
	}
	// The store saw no traffic and logged no events.
	if ev := st.Events(); len(ev) != 0 {
		t.Errorf("invalid keys reached the store: %+v", ev)
	}
	// Probe applies the same validation.
	if _, ok := Probe(st, Key{}, testCodec); ok {
		t.Error("Probe accepted an empty key")
	}
	// A valid key still works.
	if _, _, err := Run(context.Background(), st, testKey(), testCodec, nil,
		func(context.Context) ([]float64, error) { return []float64{1}, nil }); err != nil {
		t.Errorf("valid key after rejections: %v", err)
	}
}

// TestEventLogConcurrency hammers the probe-event log of every backend
// from many goroutines — records interleaved with Events, CountEvents and
// ResetEvents readers — so the -race gate proves the log's locking. The
// final state is checked for consistency: after the hammering, one more
// record must land in a log whose length the reader can trust.
func TestEventLogConcurrency(t *testing.T) {
	for name, open := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			const writers, perWriter = 8, 50
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						st.record(Key{Func: "exp2", Stage: "solve", Fingerprint: "f"}, w%2 == 0)
					}
				}()
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						_ = st.Events()
						_ = st.CountEvents("solve", true)
						_ = st.CountEvents("", false)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					st.ResetEvents()
				}
			}()
			wg.Wait()

			st.ResetEvents()
			if n := len(st.Events()); n != 0 {
				t.Fatalf("after reset: %d events", n)
			}
			st.record(Key{Func: "exp2", Stage: "verify", Fingerprint: "f"}, true)
			if n := st.CountEvents("verify", true); n != 1 {
				t.Errorf("CountEvents(verify, hit) = %d, want 1", n)
			}
			if ev := st.Events(); len(ev) != 1 || ev[0].Key.Stage != "verify" || !ev[0].Hit {
				t.Errorf("events: %+v", ev)
			}
		})
	}
}

// TestSetFaultsConcurrent races SetFaults against store operations on
// every backend; the atomic fault gate must make this clean under -race.
func TestSetFaultsConcurrent(t *testing.T) {
	for name, open := range backendCases(t) {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			sealed := Seal(testCodec.Name, testCodec.Version, []byte{1})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					st.SetFaults(fault.NewPlan().At(fault.SiteStoreRead, 1000))
					st.SetFaults(nil)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_ = st.Put(testKey(), testCodec.Name, testCodec.Version, sealed)
					_, _ = st.Get(testKey(), testCodec.Name, testCodec.Version)
				}
			}()
			wg.Wait()
		})
	}
}
