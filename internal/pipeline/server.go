package pipeline

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ServeOptions bounds the store server's connection handling. The zero
// value preserves the historical behavior: unlimited connections, no idle
// deadline.
type ServeOptions struct {
	// MaxConns caps concurrently served connections; 0 means unlimited.
	// A connection accepted over the cap is closed immediately without a
	// response — the client's retry budget re-establishes it once a slot
	// frees, so a cap degrades throughput, never correctness.
	MaxConns int
	// IdleTimeout drops a connection that sends no request frame for
	// this long; 0 means never. It bounds the resources an abandoned or
	// wedged client can pin (each connection holds a goroutine and a
	// MaxConns slot).
	IdleTimeout time.Duration
}

// Serve exposes a backing store over the framed-TCP wire protocol
// until the listener is closed: it accepts connections — concurrently, one
// goroutine per connection, bounded by opts — and answers each request —
// Get, Put, Delete, Audit — against backing, sealing every response in the
// same frames artifacts use on disk. The server is a thin relay: it never
// unseals artifact payloads (only the protocol envelope), so a byte stored
// through it is the byte a Get returns, and every consistency property —
// atomic publication, audit, corruption detection — is the backing
// store's. Concurrent requests are therefore as safe as the backing store
// makes them, which every backend guarantees (last-writer-wins Puts of
// content-addressed bytes). cmd/rlibm-store wraps it behind a disk store;
// tests run it in-process over a loopback listener.
//
// A connection serves its own requests sequentially and is dropped on the
// first malformed frame or idle timeout (the client's retry budget
// re-establishes it). Serve returns once the listener is closed, after
// in-flight connections have drained; the returned error is nil on a clean
// shutdown.
func Serve(l net.Listener, backing Store, opts ServeOptions, logf Logf) error {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	var sem chan struct{}
	if opts.MaxConns > 0 {
		sem = make(chan struct{}, opts.MaxConns)
	}
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				logf("store-serve: %s: connection cap %d reached — dropping connection",
					conn.RemoteAddr(), opts.MaxConns)
				conn.Close()
				continue
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			serveConn(conn, backing, opts.IdleTimeout, logf)
		}()
	}
}

// serveConn answers one connection's requests until it errors, closes, or
// idles past the deadline.
func serveConn(conn net.Conn, backing Store, idle time.Duration, logf Logf) {
	defer conn.Close()
	peer := conn.RemoteAddr().String()
	for {
		if idle > 0 {
			// Deadlines bound one read; the values never feed an artifact.
			//lint:ignore wallclock per-frame idle deadline; the clock value never influences generated coefficients.
			deadline := time.Now().Add(idle)
			if err := conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		frame, err := readFrame(conn)
		if err != nil {
			return // peer closed, idled out, or lost framing; nothing to answer
		}
		req, err := decodeRequest(frame)
		if err != nil {
			logf("store-serve: %s: malformed request: %v — dropping connection", peer, err)
			return
		}
		resp := handleRequest(backing, req)
		if err := writeFrame(conn, encodeResponse(resp)); err != nil {
			logf("store-serve: %s: write response: %v", peer, err)
			return
		}
	}
}

// handleRequest dispatches one decoded request against the backing store.
func handleRequest(backing Store, req wireRequest) wireResponse {
	resp := wireResponse{ID: req.ID, Op: req.Op, Status: statusOK}
	switch req.Op {
	case opGet:
		data, ok := backing.Get(req.Key, req.Codec, req.Version)
		if !ok {
			resp.Status = statusMiss
			break
		}
		resp.Data = data
	case opPut:
		if err := backing.Put(req.Key, req.Codec, req.Version, req.Data); err != nil {
			resp.Status = statusErr
			resp.Errmsg = err.Error()
		}
	case opDelete:
		if err := backing.Delete(req.Key, req.Codec, req.Version); err != nil {
			resp.Status = statusErr
			resp.Errmsg = err.Error()
		}
	case opAudit:
		if err := backing.Audit(); err != nil {
			resp.Status = statusErr
			resp.Errmsg = err.Error()
		}
	}
	return resp
}
