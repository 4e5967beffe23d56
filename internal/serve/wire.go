package serve

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/bigmath"
	"repro/internal/fp"
	"repro/internal/pipeline"
)

// The bulk endpoint: a framed binary protocol for high-volume clients
// (benchmarks, regeneration verifiers) that would drown in JSON encoding
// overhead. It reuses the store-wire transport exactly — 4-byte
// little-endian length prefix, sealed frame (codec "serve-wire" v1), one
// frame reader with one length cap — so transport corruption is caught by
// the frame checksum and the same fuzz target (FuzzStoreWire) exercises
// the decode path of both protocols. Requests carry a client-chosen ID the
// response must echo; a mismatch means the connection lost framing and the
// client abandons it.

const (
	bulkCodecName    = "serve-wire"
	bulkCodecVersion = 1
)

// Bulk response statuses.
const (
	bulkOK byte = iota
	bulkErr
)

// bulkRequest is one framed evaluation request.
type bulkRequest struct {
	ID     uint64
	Func   string
	Bits   int
	Exp    int
	Mode   string
	Inputs []uint64
}

// bulkResponse is one framed evaluation response. Code carries the stable
// fault code ("serve-overload", "serve-draining", …) on bulkErr.
type bulkResponse struct {
	ID      uint64
	Status  byte
	Code    string
	Errmsg  string
	Outputs []uint64
}

func encodeBulkRequest(r bulkRequest) []byte {
	var e pipeline.Enc
	e.U64(r.ID)
	e.Str(r.Func)
	e.Int(r.Bits)
	e.Int(r.Exp)
	e.Str(r.Mode)
	e.Int(len(r.Inputs))
	for _, v := range r.Inputs {
		e.U64(v)
	}
	return pipeline.Seal(bulkCodecName, bulkCodecVersion, e.Bytes())
}

func decodeBulkRequest(frame []byte) (bulkRequest, error) {
	payload, err := pipeline.Unseal(frame, bulkCodecName, bulkCodecVersion)
	if err != nil {
		return bulkRequest{}, err
	}
	d := pipeline.NewDec(payload)
	r := bulkRequest{ID: d.U64(), Func: d.Str(), Bits: d.Int(), Exp: d.Int(), Mode: d.Str()}
	n := d.Len()
	r.Inputs = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r.Inputs = append(r.Inputs, d.U64())
	}
	if err := d.Done(); err != nil {
		return bulkRequest{}, err
	}
	return r, nil
}

func encodeBulkResponse(r bulkResponse) []byte {
	var e pipeline.Enc
	e.U64(r.ID)
	e.Byte(r.Status)
	e.Str(r.Code)
	e.Str(r.Errmsg)
	e.Int(len(r.Outputs))
	for _, v := range r.Outputs {
		e.U64(v)
	}
	return pipeline.Seal(bulkCodecName, bulkCodecVersion, e.Bytes())
}

func decodeBulkResponse(frame []byte) (bulkResponse, error) {
	payload, err := pipeline.Unseal(frame, bulkCodecName, bulkCodecVersion)
	if err != nil {
		return bulkResponse{}, err
	}
	d := pipeline.NewDec(payload)
	r := bulkResponse{ID: d.U64(), Status: d.Byte(), Code: d.Str(), Errmsg: d.Str()}
	n := d.Len()
	r.Outputs = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		r.Outputs = append(r.Outputs, d.U64())
	}
	if err := d.Done(); err != nil {
		return bulkResponse{}, err
	}
	if r.Status > bulkErr {
		return bulkResponse{}, fmt.Errorf("%w: unknown bulk status %d", pipeline.ErrCorrupt, r.Status)
	}
	return r, nil
}

// acceptBulk accepts bulk connections until the listener closes (drain).
func (s *Server) acceptBulk(ln net.Listener) {
	defer s.connWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.bulkConns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveBulkConn(conn)
	}
}

// serveBulkConn answers frames on one connection until the client hangs
// up, goes idle past IdleTimeout, or the server drains. Each read carries
// a deadline, so a silent client cannot hold a connection goroutine
// forever; Shutdown additionally nudges the deadline to now, waking idle
// readers immediately. A frame whose evaluation was already admitted
// before the drain began still gets its response — the write happens
// before the loop re-checks draining.
func (s *Server) serveBulkConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.bulkConns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		if s.draining.Load() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		frame, err := pipeline.ReadFrame(conn)
		if err != nil {
			// EOF, idle timeout, or a drain nudge; in every case the
			// client has no outstanding frame, so just disconnect.
			return
		}
		resp := s.answerBulk(frame)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if err := pipeline.WriteFrame(conn, encodeBulkResponse(resp)); err != nil {
			return
		}
	}
}

// answerBulk decodes one request frame and evaluates it. Decode failures
// answer with ID 0 — the connection lost framing and the client's ID check
// will abandon it, which is the correct outcome.
func (s *Server) answerBulk(frame []byte) bulkResponse {
	req, err := decodeBulkRequest(frame)
	if err != nil {
		return bulkResponse{Status: bulkErr, Code: "bad-request", Errmsg: err.Error()}
	}
	r, err := parseBulkRequest(req)
	if err != nil {
		return bulkResponse{ID: req.ID, Status: bulkErr, Code: "bad-request", Errmsg: err.Error()}
	}
	out, err := s.Evaluate(context.Background(), r)
	if err != nil {
		_, code := errStatus(err)
		return bulkResponse{ID: req.ID, Status: bulkErr, Code: code, Errmsg: err.Error()}
	}
	return bulkResponse{ID: req.ID, Status: bulkOK, Outputs: out}
}

// parseBulkRequest resolves the wire fields of one bulk request.
func parseBulkRequest(r bulkRequest) (Request, error) {
	fn, err := bigmath.ParseFunc(r.Func)
	if err != nil {
		return Request{}, err
	}
	f, err := fp.NewFormat(r.Bits, r.Exp)
	if err != nil {
		return Request{}, err
	}
	mode := fp.RoundNearestEven
	if r.Mode != "" {
		mode, err = fp.ParseMode(r.Mode)
		if err != nil {
			return Request{}, err
		}
	}
	return Request{Fn: fn, Out: f, Mode: mode, Inputs: r.Inputs}, nil
}

// nudgeBulkConns wakes idle bulk readers by expiring their read deadline;
// their blocked ReadFrame returns a timeout error and the loop exits.
func (s *Server) nudgeBulkConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.bulkConns {
		c.SetReadDeadline(time.Now())
	}
}

// closeBulkConns hard-closes every remaining bulk connection (drain
// deadline expired).
func (s *Server) closeBulkConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.bulkConns {
		c.Close()
	}
}

// A BulkClient speaks the framed protocol; used by the serve-mixed
// workload of the bench/ module and the serve tests. Not safe for
// concurrent use — open one client per goroutine, mirroring one
// connection per in-flight request stream.
type BulkClient struct {
	conn   net.Conn
	nextID uint64
}

// DialBulk connects to a server's bulk endpoint.
func DialBulk(addr string) (*BulkClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &BulkClient{conn: conn}, nil
}

// Close disconnects the client.
func (c *BulkClient) Close() error { return c.conn.Close() }

// BulkError is a typed server-side failure answered over the bulk
// protocol; Code is the same stable code the HTTP endpoint reports.
type BulkError struct {
	Code string
	Msg  string
}

func (e *BulkError) Error() string { return fmt.Sprintf("serve[%s]: %s", e.Code, e.Msg) }

// Eval round-trips one request. A *BulkError reports a typed server-side
// failure (overload, draining, …); any other error means the connection is
// unusable and should be closed.
func (c *BulkClient) Eval(req Request) ([]uint64, error) {
	c.nextID++
	wr := bulkRequest{
		ID:     c.nextID,
		Func:   req.Fn.String(),
		Bits:   req.Out.Bits(),
		Exp:    req.Out.ExpBits(),
		Mode:   req.Mode.String(),
		Inputs: req.Inputs,
	}
	if err := pipeline.WriteFrame(c.conn, encodeBulkRequest(wr)); err != nil {
		return nil, err
	}
	frame, err := pipeline.ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	resp, err := decodeBulkResponse(frame)
	if err != nil {
		return nil, err
	}
	if resp.ID != wr.ID {
		return nil, fmt.Errorf("serve: bulk response ID %d does not echo request ID %d: connection lost framing", resp.ID, wr.ID)
	}
	if resp.Status != bulkOK {
		return nil, &BulkError{Code: resp.Code, Msg: resp.Errmsg}
	}
	return resp.Outputs, nil
}
