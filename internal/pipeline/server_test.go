package pipeline

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Store-server connection handling: concurrent clients are served each on
// their own goroutine, the connection cap drops the excess without harming
// admitted clients, and the idle deadline reaps abandoned connections.

// startServe serves backing with opts on a loopback listener and tears
// it down with the test. It returns the dial address.
func startServe(t *testing.T, backing Store, opts ServeOptions) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := Serve(l, backing, opts, nil); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// TestServeConcurrentClients: eight clients on one server, each writing,
// reading back, and deleting its own keys while reading a shared key the
// others also read — every byte exact, the backing audit clean. Run under
// -race this is the server's data-race gate.
func TestServeConcurrentClients(t *testing.T) {
	backing := NewMemStore()
	addr := startServe(t, backing, ServeOptions{MaxConns: 16, IdleTimeout: time.Minute})

	shared := Key{Func: "exp2", Stage: "shared", Fingerprint: "s"}
	sharedBytes := Seal(testCodec.Name, testCodec.Version, []byte{0xAA, 0xBB})
	if err := backing.Put(shared, testCodec.Name, testCodec.Version, sharedBytes); err != nil {
		t.Fatal(err)
	}

	const clients, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := DialRemote(addr, 5*time.Second)
			if err != nil {
				errs[c] = err
				return
			}
			defer rs.Close()
			for r := 0; r < rounds; r++ {
				key := Key{Func: "exp2", Stage: "client", Fingerprint: fmt.Sprintf("c%d-r%d", c, r)}
				want := Seal(testCodec.Name, testCodec.Version, []byte{byte(c), byte(r)})
				if err := rs.Put(key, testCodec.Name, testCodec.Version, want); err != nil {
					errs[c] = fmt.Errorf("round %d put: %w", r, err)
					return
				}
				got, ok := rs.Get(key, testCodec.Name, testCodec.Version)
				if !ok || !bytes.Equal(got, want) {
					errs[c] = fmt.Errorf("round %d get: ok=%v equal=%v", r, ok, bytes.Equal(got, want))
					return
				}
				if got, ok := rs.Get(shared, testCodec.Name, testCodec.Version); !ok || !bytes.Equal(got, sharedBytes) {
					errs[c] = fmt.Errorf("round %d shared get: ok=%v", r, ok)
					return
				}
				if r%2 == 1 {
					if err := rs.Delete(key, testCodec.Name, testCodec.Version); err != nil {
						errs[c] = fmt.Errorf("round %d delete: %w", r, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if err := backing.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// rawRequest performs one Get over an already-dialed raw connection.
func rawRequest(conn net.Conn) error {
	req := wireRequest{ID: 1, Op: opGet, Key: testKey(), Codec: testCodec.Name, Version: testCodec.Version}
	if err := writeFrame(conn, encodeRequest(req)); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(conn)
	if err != nil {
		return err
	}
	resp, err := decodeResponse(frame)
	if err != nil {
		return err
	}
	if resp.ID != req.ID {
		return fmt.Errorf("response ID %d, want %d", resp.ID, req.ID)
	}
	return nil
}

// TestServeConnectionCap: with MaxConns admitted connections open, the
// next connection is dropped without a response; closing an admitted
// connection frees its slot for a new client.
func TestServeConnectionCap(t *testing.T) {
	addr := startServe(t, NewMemStore(), ServeOptions{MaxConns: 2})

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	first, second := dial(), dial()
	defer first.Close()
	defer second.Close()
	// Both admitted connections answer requests.
	if err := rawRequest(first); err != nil {
		t.Fatalf("first admitted conn: %v", err)
	}
	if err := rawRequest(second); err != nil {
		t.Fatalf("second admitted conn: %v", err)
	}

	// The third connection is over the cap: the server closes it without
	// answering, which the client observes as EOF (or a reset).
	third := dial()
	defer third.Close()
	third.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(third); err == nil {
		t.Fatal("over-cap connection received a frame instead of being dropped")
	}

	// Freeing a slot admits a new connection. The release is async (the
	// per-conn goroutine must observe the close), so retry briefly.
	first.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		fresh := dial()
		err := rawRequest(fresh)
		fresh.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connection admitted after a slot freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeIdleTimeout: a connection that never sends a frame is dropped
// once the idle deadline passes, and new clients are unaffected.
func TestServeIdleTimeout(t *testing.T) {
	addr := startServe(t, NewMemStore(), ServeOptions{IdleTimeout: 50 * time.Millisecond})

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFrame(idle); err == nil {
		t.Fatal("idle connection received a frame instead of being dropped")
	}

	rs, err := DialRemote(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sealed := Seal(testCodec.Name, testCodec.Version, []byte{4})
	if err := rs.Put(testKey(), testCodec.Name, testCodec.Version, sealed); err != nil {
		t.Fatalf("put on a live connection: %v", err)
	}
	if got, ok := rs.Get(testKey(), testCodec.Name, testCodec.Version); !ok || !bytes.Equal(got, sealed) {
		t.Fatalf("get after idle reap: ok=%v", ok)
	}
}
