package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/trace"
)

// testFixture builds a small read-preset workload, model and engine
// config shared by the cluster tests. The hot cache stays disabled so
// cluster serving is bit-comparable to a cache-less single-node server.
func testFixture(t testing.TB) (*dlrm.Model, *trace.Trace, core.Config) {
	t.Helper()
	spec, err := synth.Preset("read")
	if err != nil {
		t.Fatal(err)
	}
	spec = synth.Scaled(spec, 0.004, 0.5)
	spec.Tables = 4
	profile, err := spec.Generate(192)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dlrm.New(dlrm.DefaultConfig(profile.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig()
	ecfg.TotalDPUs = 64
	return model, profile, ecfg
}

// newSingleNode builds the single-node reference server (one shard, no
// cache) requests are compared against bit-for-bit.
func newSingleNode(t *testing.T, model *dlrm.Model, profile *trace.Trace, ecfg core.Config) *serve.Server {
	t.Helper()
	engines, err := serve.NewShards(model, profile, []core.Config{ecfg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(engines, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func requestsFrom(profile *trace.Trace, n int) []serve.Request {
	if n > len(profile.Samples) {
		n = len(profile.Samples)
	}
	reqs := make([]serve.Request, n)
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		reqs[i] = serve.Request{Dense: s.Dense, Sparse: s.Sparse}
	}
	return reqs
}

// TestClusterBitIdentity is the tentpole acceptance check: a 2-node
// in-process cluster with table-aligned ownership serves the read
// preset bit-identically to the single-node server.
func TestClusterBitIdentity(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	srv := newSingleNode(t, model, profile, ecfg)

	front, backends, err := New(model, profile, ecfg, Config{Nodes: []string{"node-a", "node-b"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	if len(backends) != 2 {
		t.Fatalf("%d backends, want 2", len(backends))
	}
	hosted := 0
	for _, b := range backends {
		hosted += b.NumLocalTables()
	}
	// Replication 2 over 2 nodes: both nodes host every table.
	if hosted != 2*profile.NumTables {
		t.Fatalf("hosted table slices = %d, want %d", hosted, 2*profile.NumTables)
	}

	ctx := context.Background()
	for i, req := range requestsFrom(profile, 64) {
		want, err := srv.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := front.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.CTR) != math.Float32bits(want.CTR) {
			t.Fatalf("request %d: cluster CTR %x != single-node %x", i,
				math.Float32bits(got.CTR), math.Float32bits(want.CTR))
		}
		if got.Breakdown.NetworkNs <= 0 {
			t.Fatalf("request %d: NetworkNs = %v, want > 0", i, got.Breakdown.NetworkNs)
		}
		if got.Breakdown.NetworkNs >= got.Breakdown.TotalNs() {
			t.Fatalf("request %d: NetworkNs %v >= TotalNs %v", i,
				got.Breakdown.NetworkNs, got.Breakdown.TotalNs())
		}
	}

	cs := front.ClusterStats()
	var lookups int64
	for _, n := range cs.Nodes {
		lookups += n.Lookups
		if n.Errors != 0 || n.Degraded {
			t.Fatalf("node %s: errors=%d degraded=%v on a healthy cluster", n.Node, n.Errors, n.Degraded)
		}
	}
	if lookups == 0 || cs.GatherBatches == 0 || cs.NetworkNs <= 0 {
		t.Fatalf("cluster stats: lookups=%d batches=%d networkNs=%v", lookups, cs.GatherBatches, cs.NetworkNs)
	}
	st := front.Stats()
	if st.Requests != 64 {
		t.Fatalf("Stats.Requests = %d, want 64", st.Requests)
	}
}

// TestClusterBitIdentityMoreNodes covers the partitioned case proper:
// 3 nodes, replication 2, so no node holds the whole model.
func TestClusterBitIdentityMoreNodes(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	srv := newSingleNode(t, model, profile, ecfg)
	front, backends, err := New(model, profile, ecfg, Config{
		Nodes: []string{"node-a", "node-b", "node-c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	for _, b := range backends {
		if b.NumLocalTables() == profile.NumTables {
			// Not required, just documenting the interesting shape: with 4
			// tables x2 copies over 3 nodes someone holds a strict subset.
			continue
		}
	}
	ctx := context.Background()
	for i, req := range requestsFrom(profile, 48) {
		want, err := srv.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := front.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.CTR) != math.Float32bits(want.CTR) {
			t.Fatalf("request %d: cluster CTR %x != single-node %x", i,
				math.Float32bits(got.CTR), math.Float32bits(want.CTR))
		}
	}
}

// TestClusterUpdateCoherence applies the same deltas to both
// deployments and requires bit-identical post-update predictions —
// updates must reach owner and replicas alike.
func TestClusterUpdateCoherence(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	srv := newSingleNode(t, model, profile, ecfg)
	front, _, err := New(model, profile, ecfg, Config{Nodes: []string{"node-a", "node-b", "node-c"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	ctx := context.Background()
	dim := model.Cfg.EmbDim
	var deltas []serve.Delta
	for tab := 0; tab < profile.NumTables; tab++ {
		for r := 0; r < 3; r++ {
			row := int32((r * 7) % profile.RowsPerTable[tab])
			vec := make([]float32, dim)
			for i := range vec {
				vec[i] = float32(tab+1) * 0.01 * float32(i-r)
			}
			deltas = append(deltas, serve.Delta{Table: tab, Row: row, Vec: vec})
		}
	}
	if err := srv.ApplyDeltas(ctx, deltas); err != nil {
		t.Fatal(err)
	}
	if err := front.ApplyDeltas(ctx, deltas); err != nil {
		t.Fatal(err)
	}
	for i, req := range requestsFrom(profile, 48) {
		want, err := srv.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := front.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.CTR) != math.Float32bits(want.CTR) {
			t.Fatalf("post-update request %d: cluster CTR %x != single-node %x", i,
				math.Float32bits(got.CTR), math.Float32bits(want.CTR))
		}
	}
	st := front.Stats()
	if st.UpdateBatches != 1 || st.UpdatedRows != int64(len(deltas)) {
		t.Fatalf("update stats: batches=%d rows=%d, want 1/%d", st.UpdateBatches, st.UpdatedRows, len(deltas))
	}
}

// TestClusterManualLeaveRejoin routes around a manually downed node
// (predictions stay bit-identical — the replica owns the same slices)
// and restores it on rejoin.
func TestClusterManualLeaveRejoin(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	srv := newSingleNode(t, model, profile, ecfg)
	front, _, err := New(model, profile, ecfg, Config{Nodes: []string{"node-a", "node-b"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	if err := front.SetNodeDown("node-a"); err != nil {
		t.Fatal(err)
	}
	if err := front.SetNodeDown("nope"); err == nil {
		t.Fatal("expected error for unknown node")
	}
	cs := front.ClusterStats()
	if !cs.Nodes[0].Degraded || cs.Nodes[1].Degraded {
		t.Fatalf("degraded flags = %v/%v, want true/false", cs.Nodes[0].Degraded, cs.Nodes[1].Degraded)
	}

	ctx := context.Background()
	for i, req := range requestsFrom(profile, 24) {
		want, err := srv.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := front.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(got.CTR) != math.Float32bits(want.CTR) {
			t.Fatalf("degraded request %d: CTR %x != %x", i,
				math.Float32bits(got.CTR), math.Float32bits(want.CTR))
		}
	}
	// All traffic went to node-b while node-a was down.
	cs = front.ClusterStats()
	if cs.Nodes[0].Lookups != 0 {
		t.Fatalf("downed node served %d lookups", cs.Nodes[0].Lookups)
	}
	if cs.Nodes[1].Lookups == 0 {
		t.Fatal("replica served no lookups")
	}

	if err := front.SetNodeUp("node-a"); err != nil {
		t.Fatal(err)
	}
	for _, req := range requestsFrom(profile, 24) {
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	cs = front.ClusterStats()
	if cs.Nodes[0].Lookups == 0 {
		t.Fatal("rejoined node served no lookups")
	}
}

// TestClusterCrashFailover kills a backend at the transport (the
// in-process stand-in for a node crash): calls fail over to the
// replica, the node degrades after FailureThreshold consecutive
// failures, and re-registering plus SetNodeUp restores it.
func TestClusterCrashFailover(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cfg := Config{Nodes: []string{"node-a", "node-b"}, FailureThreshold: 2}
	norm, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var backends []*Backend
	for _, node := range norm.Nodes {
		b, err := NewBackend(model, profile, ecfg, cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	tr := NewLocalTransport(backends...)
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	ctx := context.Background()
	reqs := requestsFrom(profile, 24)
	tr.Deregister("node-a")
	for i, req := range reqs {
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatalf("request %d after crash: %v", i, err)
		}
	}
	cs := front.ClusterStats()
	if cs.Nodes[0].Errors == 0 {
		t.Fatal("crashed node recorded no errors")
	}
	if cs.Nodes[0].Failovers == 0 {
		t.Fatal("no failovers recorded")
	}
	if !cs.Nodes[0].Degraded {
		t.Fatal("crashed node not degraded after threshold failures")
	}

	tr.Register(backends[0])
	if err := front.SetNodeUp("node-a"); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if _, err := front.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if front.ClusterStats().Nodes[0].Degraded {
		t.Fatal("node still degraded after rejoin")
	}
}

// TestClusterLeaveRejoinRace hammers Predict (and the update lane)
// while a node leaves and rejoins — the -race acceptance test for the
// rebalance path.
func TestClusterLeaveRejoinRace(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	front, _, err := New(model, profile, ecfg, Config{
		Nodes:         []string{"node-a", "node-b"},
		GatherWorkers: 2,
		HedgeAfter:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	ctx := context.Background()
	reqs := requestsFrom(profile, 32)
	dim := model.Cfg.EmbDim
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := reqs[(g*13+i)%len(reqs)]
				if _, err := front.Predict(ctx, req); err != nil &&
					!errors.Is(err, serve.ErrOverloaded) {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		vec := make([]float32, dim)
		vec[0] = 0.001
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := front.ApplyDeltas(ctx, []serve.Delta{{Table: i % profile.NumTables, Row: 0, Vec: vec}})
			if err != nil && !errors.Is(err, serve.ErrUpdateOverloaded) {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for cycle := 0; cycle < 40; cycle++ {
		node := fmt.Sprintf("node-%c", 'a'+cycle%2)
		if err := front.SetNodeDown(node); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
		if err := front.SetNodeUp(node); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestClusterBackendGovernor drives one backend's pressure governor
// through its bands deterministically and checks the node-local ladder
// (cache shrink at High, arena freeze at Critical, full release) plus
// the band/pressure propagation through lookup responses into
// ClusterStats.
func TestClusterBackendGovernor(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cfg := Config{
		Nodes:    []string{"node-a", "node-b"},
		HotCache: hotcache.Config{CapacityBytes: 1 << 20},
		Governor: governor.Config{BudgetBytes: 1 << 40, Interval: time.Hour},
	}
	front, backends, err := New(model, profile, ecfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	for _, b := range backends {
		t.Cleanup(b.Close)
		if b.gov == nil {
			t.Fatalf("backend %s has no governor", b.Node())
		}
	}

	ctx := context.Background()
	serveSome := func() {
		t.Helper()
		for _, req := range requestsFrom(profile, 32) {
			if _, err := front.Predict(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	serveSome()

	cs := front.ClusterStats()
	for _, n := range cs.Nodes {
		if n.GovernorBand != "normal" {
			t.Fatalf("node %s band %q at huge budget, want normal", n.Node, n.GovernorBand)
		}
	}

	// Push node-a to High: cache shrinks, arenas untouched.
	b := backends[0]
	origCap := b.cache.CapacityBytes()
	tracked := b.cache.SizeBytes() + b.eng.ArenaBytes()
	if tracked <= 0 {
		t.Fatal("no tracked bytes on backend after traffic")
	}
	b.gov.SetBudget(int64(float64(tracked) / 0.80))
	if snap := b.gov.Observe(); snap.Band != governor.BandHigh {
		t.Fatalf("band = %v, want high", snap.Band)
	}
	if got := b.cache.CapacityBytes(); got >= origCap {
		t.Fatalf("backend cache capacity %d not shrunk from %d at High", got, origCap)
	}
	if b.eng.ArenaCap() != 0 {
		t.Fatal("arena capped at High; should only freeze at Critical")
	}

	// Critical: arena growth freezes too.
	tracked = b.cache.SizeBytes() + b.eng.ArenaBytes()
	b.gov.SetBudget(int64(float64(tracked) / 0.95))
	if snap := b.gov.Observe(); snap.Band != governor.BandCritical {
		t.Fatalf("band = %v, want critical", snap.Band)
	}
	if b.eng.ArenaCap() == 0 {
		t.Fatal("arena growth not frozen at Critical")
	}

	// The next lookups carry the elevated band to the frontend.
	serveSome()
	cs = front.ClusterStats()
	if got := cs.Nodes[0].GovernorBand; got != "critical" {
		t.Fatalf("node-a band %q after Critical, want critical", got)
	}
	if cs.Nodes[0].Pressure <= 0 {
		t.Fatalf("node-a pressure %v, want > 0", cs.Nodes[0].Pressure)
	}

	// Recovery: both steps release, capacity restored.
	b.gov.SetBudget(1 << 40)
	if snap := b.gov.Observe(); snap.Band != governor.BandNormal {
		t.Fatalf("band after recovery = %v, want normal", snap.Band)
	}
	if got := b.cache.CapacityBytes(); got != origCap {
		t.Fatalf("backend cache capacity %d after recovery, want %d", got, origCap)
	}
	if b.eng.ArenaCap() != 0 {
		t.Fatal("arena cap not lifted after recovery")
	}
	serveSome()
	if got := front.ClusterStats().Nodes[0].GovernorBand; got != "normal" {
		t.Fatalf("node-a band %q after recovery, want normal", got)
	}
}
