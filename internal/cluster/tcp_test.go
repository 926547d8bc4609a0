package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"testing"

	"updlrm/internal/serve"
)

// startTCPCluster listens first (so the OS-assigned addresses become
// the node names), serves a backend per listener, and dials a frontend
// over the real TCP transport. It returns the node names so callers
// can build an in-process cluster with the identical placement (node
// names feed the hash ring).
func startTCPCluster(t *testing.T) (*Frontend, []string) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	var lns []net.Listener
	var nodes []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		nodes = append(nodes, ln.Addr().String())
	}
	cfg := Config{Nodes: nodes}
	for i, ln := range lns {
		b, err := NewBackend(model, profile, ecfg, cfg, nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := ServeBackend(ln, b)
		t.Cleanup(func() { srv.Close() })
	}
	front, err := NewFrontend(model, profile, ecfg, cfg, NewTCPTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	return front, nodes
}

// TestTCPClusterBitIdentity runs the acceptance check over real
// sockets: the TCP cluster must match the in-process cluster (and, by
// TestClusterBitIdentity, the single-node server) bit for bit.
func TestTCPClusterBitIdentity(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	tcp, nodes := startTCPCluster(t)
	// Same node names → same ring placement → same per-node wire sizes,
	// so even the modeled NetworkNs must agree exactly.
	inproc, _, err := New(model, profile, ecfg, Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inproc.Close)

	ctx := context.Background()
	for i, req := range requestsFrom(profile, 48) {
		want, err := inproc.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tcp.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.CTR) != math.Float32bits(want.CTR) {
			t.Fatalf("request %d: TCP CTR %x != in-process %x", i,
				math.Float32bits(got.CTR), math.Float32bits(want.CTR))
		}
		// The analytic network term depends only on WireBytes, which both
		// transports share.
		if got.Breakdown.NetworkNs != want.Breakdown.NetworkNs {
			t.Fatalf("request %d: NetworkNs %v != %v", i,
				got.Breakdown.NetworkNs, want.Breakdown.NetworkNs)
		}
	}
	cs := tcp.ClusterStats()
	var served int
	for _, n := range cs.Nodes {
		if n.Errors != 0 || n.Degraded {
			t.Fatalf("node %s: errors=%d degraded=%v", n.Node, n.Errors, n.Degraded)
		}
		// Owner-preferred routing can leave a node that owns no ranges
		// (placement follows the OS-assigned addresses) with zero healthy
		// traffic — only nodes that served lookups must show wire bytes.
		if n.Lookups > 0 {
			served++
			if n.BytesSent == 0 || n.BytesRecv == 0 {
				t.Fatalf("node %s: bytesSent=%d bytesRecv=%d", n.Node, n.BytesSent, n.BytesRecv)
			}
		}
	}
	if served == 0 {
		t.Fatal("no node served any lookups")
	}
}

// TestTCPClusterUpdates runs ApplyDeltas over the wire and verifies the
// update changes predictions.
func TestTCPClusterUpdates(t *testing.T) {
	_, profile, _ := testFixture(t)
	front, _ := startTCPCluster(t)
	ctx := context.Background()
	req := requestsFrom(profile, 1)[0]
	before, err := front.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	dim := front.EmbDim()
	var deltas []serve.Delta
	for _, row := range req.Sparse[0] {
		vec := make([]float32, dim)
		for i := range vec {
			vec[i] = 0.25
		}
		deltas = append(deltas, serve.Delta{Table: 0, Row: row, Vec: vec})
	}
	if err := front.ApplyDeltas(ctx, deltas); err != nil {
		t.Fatal(err)
	}
	after, err := front.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(before.CTR) == math.Float32bits(after.CTR) {
		t.Fatal("prediction unchanged after embedding update")
	}
	st := front.Stats()
	if st.UpdateBatches != 1 || st.UpdatedRows != int64(len(deltas)) {
		t.Fatalf("update stats: batches=%d rows=%d", st.UpdateBatches, st.UpdatedRows)
	}
}

// TestTCPWireErrors checks the error-frame path end to end: a remote
// bad request must come back as a typed sentinel through errors.Is.
func TestTCPWireErrors(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := ln.Addr().String()
	cfg := Config{Nodes: []string{node}, Replication: 1}
	b, err := NewBackend(model, profile, ecfg, cfg, node)
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeBackend(ln, b)
	t.Cleanup(func() { srv.Close() })

	tr := NewTCPTransport(0)
	t.Cleanup(func() { tr.Close() })
	ctx := context.Background()
	if err := tr.Ping(ctx, node); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// Row out of range on the remote → serve.ErrBadRequest via wireError.
	bad := &LookupRequest{Samples: 1, Tables: make([]LookupTable, b.NumLocalTables())}
	for lt := range bad.Tables {
		bad.Tables[lt] = LookupTable{Table: int32(lt), Off: []int32{0, 0}}
	}
	bad.Tables[0].Off = []int32{0, 1}
	bad.Tables[0].Idx = []int32{1 << 28}
	_, err = tr.Lookup(ctx, node, bad)
	if !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("remote bad request surfaced as %v", err)
	}
	var we *wireError
	if !errors.As(err, &we) || we.code != codeBadRequest {
		t.Fatalf("expected codeBadRequest wireError, got %#v", err)
	}
	// The connection survives an error frame and the pool reuses it.
	if err := tr.Ping(ctx, node); err != nil {
		t.Fatalf("ping after error frame: %v", err)
	}
	// Unknown address → plain dial error, not a wire error.
	if err := tr.Ping(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("ping to closed port succeeded")
	}
}

// TestReadFrameHostileLength: a header claiming a 1 GiB frame followed
// by EOF must fail having allocated only the first chunk, not the
// claim.
func TestReadFrameHostileLength(t *testing.T) {
	hdr := []byte{0x40, 0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 1 GiB frame read without error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
		t.Fatalf("readFrame allocated %d bytes for a 4-byte input, want < 2 MiB", d)
	}
}

// TestReadFrameSizes: a frame below the first chunk costs one body
// allocation (plus the header array, which escapes through io.Reader),
// and a frame several chunks long survives the grow-as-bytes-arrive
// path intact.
func TestReadFrameSizes(t *testing.T) {
	frame := func(n int) ([]byte, []byte) {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, opLookup, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), payload
	}

	small, _ := frame(64 << 10)
	var r bytes.Reader
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(small)
		if _, _, err := readFrame(&r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("64 KiB frame cost %v allocations, want 2 (header + body)", allocs)
	}

	big, want := frame(3*frameChunkBytes + 17)
	op, got, err := readFrame(bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if op != opLookup || !bytes.Equal(got, want) {
		t.Fatalf("multi-chunk frame corrupted: op %d, %d bytes (want %d)", op, len(got), len(want))
	}
}
