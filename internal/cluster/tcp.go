// The real-deployment transport: length-prefixed binary frames over
// TCP with per-node connection reuse. A frame is
//
//	[4B big-endian frame length][1B op][payload]
//
// where the length covers the op byte and payload. Responses echo the
// request op on success; errors reply with op|0x80 and a
// [1B code][message] payload so typed sentinels (bad request, overload,
// closed) survive the wire. The frontend owns retry, hedging and health
// accounting — this transport just delivers or fails, closing the
// connection on any framing error so a poisoned stream is never reused.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"updlrm/internal/serve"
)

const (
	opLookup byte = 1
	opUpdate byte = 2
	opPing   byte = 3
	// opError flags an error response (or'ed onto the request op).
	opError byte = 0x80

	// maxFrameBytes bounds one frame; larger lengths are treated as a
	// corrupt stream.
	maxFrameBytes = 1 << 30
	// frameChunkBytes is the most readFrame allocates before any of the
	// frame's bytes have arrived.
	frameChunkBytes = 1 << 20
)

// Wire error codes: which sentinel the remote error maps back to.
const (
	codeGeneric byte = iota
	codeBadRequest
	codeOverloadPredict
	codeOverloadUpdate
	codeClosed
)

// wireError is a remote error reconstructed from an error frame; it
// satisfies errors.Is against the sentinel its code names.
type wireError struct {
	code byte
	msg  string
}

func (e *wireError) Error() string { return e.msg }

func (e *wireError) Is(target error) bool {
	switch e.code {
	case codeBadRequest:
		return target == serve.ErrBadRequest
	case codeOverloadPredict:
		return target == serve.ErrOverloaded
	case codeOverloadUpdate:
		return target == serve.ErrUpdateOverloaded
	case codeClosed:
		return target == serve.ErrClosed
	}
	return false
}

func errCode(err error) byte {
	switch {
	case errors.Is(err, serve.ErrBadRequest):
		return codeBadRequest
	case errors.Is(err, serve.ErrOverloaded):
		return codeOverloadPredict
	case errors.Is(err, serve.ErrUpdateOverloaded):
		return codeOverloadUpdate
	case errors.Is(err, serve.ErrClosed):
		return codeClosed
	}
	return codeGeneric
}

// writeFrame writes one [len][op][payload] frame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, returning its op and payload. The header's
// length is a claim, not a fact: the buffer starts at no more than
// frameChunkBytes and at most doubles per read that actually delivered,
// so a peer that sends four bytes cannot make this side allocate a
// gigabyte. Frames up to frameChunkBytes still cost one allocation.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("cluster: bad frame length %d", n)
	}
	size := int(n)
	body := make([]byte, min(size, frameChunkBytes))
	for have := 0; ; {
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return 0, nil, err
		}
		have = len(body)
		if have == size {
			return body[0], body[1:], nil
		}
		grow := min(size-have, have)
		body = slices.Grow(body, grow)[:have+grow]
	}
}

// TCPTransport dials backend nodes by their configured names
// (host:port addresses) and reuses idle connections per node. Safe for
// concurrent use; concurrent calls to the same node use separate
// connections.
type TCPTransport struct {
	dialTimeout time.Duration
	callTimeout time.Duration

	mu     sync.Mutex
	idle   map[string][]net.Conn
	closed bool
}

// NewTCPTransport builds the transport. callTimeout bounds one round
// trip when the caller's context carries no earlier deadline; zero
// means DefaultCallTimeout.
func NewTCPTransport(callTimeout time.Duration) *TCPTransport {
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	return &TCPTransport{
		dialTimeout: callTimeout,
		callTimeout: callTimeout,
		idle:        make(map[string][]net.Conn),
	}
}

func (t *TCPTransport) conn(addr string) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("cluster: transport closed")
	}
	if pool := t.idle[addr]; len(pool) > 0 {
		c := pool[len(pool)-1]
		t.idle[addr] = pool[:len(pool)-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	return net.DialTimeout("tcp", addr, t.dialTimeout)
}

func (t *TCPTransport) release(addr string, c net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.idle[addr] = append(t.idle[addr], c)
	t.mu.Unlock()
}

// call runs one framed round trip, retiring the connection on any
// error.
func (t *TCPTransport) call(ctx context.Context, addr string, op byte, payload []byte) ([]byte, error) {
	c, err := t.conn(addr)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(t.callTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	if err := writeFrame(c, op, payload); err != nil {
		c.Close()
		return nil, err
	}
	rop, body, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	t.release(addr, c)
	if rop == op|opError {
		code := codeGeneric
		msg := "remote error"
		if len(body) > 0 {
			code = body[0]
			msg = string(body[1:])
		}
		return nil, &wireError{code: code, msg: msg}
	}
	if rop != op {
		return nil, fmt.Errorf("cluster: op %d reply to op %d", rop, op)
	}
	return body, nil
}

// Lookup implements Transport.
func (t *TCPTransport) Lookup(ctx context.Context, node string, req *LookupRequest) (*LookupResponse, error) {
	body, err := t.call(ctx, node, opLookup, encodeLookupRequest(make([]byte, 0, req.WireBytes()), req))
	if err != nil {
		return nil, err
	}
	return decodeLookupResponse(body)
}

// Update implements Transport.
func (t *TCPTransport) Update(ctx context.Context, node string, req *UpdateRequest) (*UpdateResponse, error) {
	body, err := t.call(ctx, node, opUpdate, encodeUpdateRequest(make([]byte, 0, req.WireBytes()), req))
	if err != nil {
		return nil, err
	}
	return decodeUpdateResponse(body)
}

// Ping implements Transport.
func (t *TCPTransport) Ping(ctx context.Context, node string) error {
	_, err := t.call(ctx, node, opPing, nil)
	return err
}

// Close closes every pooled connection; in-flight calls finish on
// their own connections.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	for _, pool := range t.idle {
		for _, c := range pool {
			c.Close()
		}
	}
	t.idle = map[string][]net.Conn{}
	t.mu.Unlock()
	return nil
}

// BackendServer serves one Backend's RPCs on a TCP listener, one
// goroutine per accepted connection.
type BackendServer struct {
	b  *Backend
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeBackend starts serving b on ln and returns immediately; Close
// stops the listener and every connection.
func ServeBackend(ln net.Listener, b *Backend) *BackendServer {
	s := &BackendServer{b: b, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the listen address (the node name frontends should
// dial).
func (s *BackendServer) Addr() string { return s.ln.Addr().String() }

func (s *BackendServer) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *BackendServer) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	for {
		op, payload, err := readFrame(c)
		if err != nil {
			return
		}
		rop, body, rerr := s.dispatch(op, payload)
		if rerr != nil {
			msg := append([]byte{errCode(rerr)}, rerr.Error()...)
			if err := writeFrame(c, op|opError, msg); err != nil {
				return
			}
			continue
		}
		if err := writeFrame(c, rop, body); err != nil {
			return
		}
	}
}

func (s *BackendServer) dispatch(op byte, payload []byte) (byte, []byte, error) {
	switch op {
	case opLookup:
		req, err := decodeLookupRequest(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.b.Lookup(req)
		if err != nil {
			return 0, nil, err
		}
		return opLookup, encodeLookupResponse(make([]byte, 0, resp.WireBytes()), resp), nil
	case opUpdate:
		req, err := decodeUpdateRequest(payload)
		if err != nil {
			return 0, nil, err
		}
		resp, err := s.b.Update(req)
		if err != nil {
			return 0, nil, err
		}
		return opUpdate, encodeUpdateResponse(make([]byte, 0, resp.WireBytes()), resp), nil
	case opPing:
		return opPing, nil, nil
	default:
		return 0, nil, fmt.Errorf("cluster: unknown op %d", op)
	}
}

// Close stops the listener and tears down every connection, waiting
// for the per-connection goroutines.
func (s *BackendServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
