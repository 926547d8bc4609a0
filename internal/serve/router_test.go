package serve

import (
	"context"
	"math"
	"testing"

	"updlrm/internal/core"
	"updlrm/internal/metrics"
	"updlrm/internal/partition"
	"updlrm/internal/trace"
)

// TestProfileAffineFit pins the cost model: two seed probes fix the
// fixed-plus-marginal line exactly, predictions interpolate and
// extrapolate it, degenerate (single-size) profiles fall back to
// proportional cost, and observations move the fit.
func TestProfileAffineFit(t *testing.T) {
	r := newRouter(1)
	// cost(n) = 1000 + 100n, probed at n=1 and n=32.
	r.seed(0, []profilePoint{
		{n: 1, cost: 1100, bd: metrics.Breakdown{MLPNs: 1100}},
		{n: 32, cost: 4200, bd: metrics.Breakdown{MLPNs: 4200}},
	})
	p := &r.shards[0]
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1100}, {32, 4200}, {8, 1800}, {64, 7400}} {
		if got := p.predict(c.n); math.Abs(got-c.want) > 1e-6*c.want {
			t.Errorf("predict(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got, want := p.perReq.TotalNs(), 4200.0/32; math.Abs(got-want) > 1e-9 {
		t.Errorf("perReq seeded to %v, want %v (largest probe amortized)", got, want)
	}

	// Degenerate profile (one size only): proportional fallback.
	r2 := newRouter(1)
	r2.seed(0, []profilePoint{{n: 4, cost: 800, bd: metrics.Breakdown{MLPNs: 800}}})
	if got := r2.shards[0].predict(8); math.Abs(got-1600) > 1e-6 {
		t.Errorf("degenerate predict(8) = %v, want proportional 1600", got)
	}

	// Observations shift the fit toward the observed costs.
	before := p.predict(16)
	for i := 0; i < 50; i++ {
		r.complete(0, 0, metrics.Breakdown{MLPNs: 9000}, 16)
	}
	after := p.predict(16)
	if !(after > before && math.Abs(after-9000) < math.Abs(before-9000)) {
		t.Errorf("fit did not track observations: predict(16) %v -> %v, observed 9000", before, after)
	}

	// Backlog charges and releases balance.
	pred := r.charge(0, 16)
	if pred <= 0 {
		t.Fatalf("charge returned %v", pred)
	}
	r.complete(0, pred, metrics.Breakdown{MLPNs: 9000}, 16)
	if bl := r.snapshot()[0].BacklogNs; bl != 0 {
		t.Errorf("backlog %v after balanced charge/complete", bl)
	}
}

// referenceCost sums a config's modeled per-request cost over the first
// n profile samples, served as single-sample batches — the ground truth
// the router's profiles should converge to under MaxBatch 1.
func referenceCost(t *testing.T, eng *core.Engine, profile *trace.Trace, n int) float64 {
	t.Helper()
	var total float64
	for i := 0; i < n; i++ {
		res, err := eng.RunBatch(trace.MakeBatch(profile, i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Breakdown.TotalNs()
	}
	return total
}

// TestHeteroRoutesToCheaperShard builds a two-shard server whose
// replicas differ sharply in capacity (64 vs 16 DPUs — an ~18% modeled
// cost gap on this fixture) and checks the profile router concentrates
// serial traffic on the shard whose engine is actually cheaper, with
// consistent per-shard accounting in Stats.
func TestHeteroRoutesToCheaperShard(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	fast := ecfg.Clone()
	slow := ecfg.Clone()
	slow.TotalDPUs = 16
	engines, err := NewShards(model, profile, []core.Config{slow, fast})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 64
	ctx := context.Background()
	perShard := make([]int, 2)
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		perShard[resp.Shard]++
	}
	// Shard 1 (64 DPUs) is the cheap one; serial requests leave no
	// backlog, so every pick is purely profile-driven.
	if perShard[1] < n*9/10 {
		t.Fatalf("cheap shard served %d of %d; router not following the cost profiles (%v)", perShard[1], n, perShard)
	}

	st := srv.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("Stats.Shards has %d entries, want 2", len(st.Shards))
	}
	var batches, requests int64
	for _, sh := range st.Shards {
		batches += sh.Batches
		requests += sh.Requests
		if sh.BacklogNs != 0 {
			t.Errorf("idle shard reports backlog %.0f ns", sh.BacklogNs)
		}
		if sh.PredictedPerReqNs <= 0 {
			t.Errorf("shard profile not seeded: %+v", sh)
		}
	}
	if batches != n || requests != n {
		t.Fatalf("shard accounting: %d batches / %d requests, want %d/%d", batches, requests, n, n)
	}
	// The learned profiles must preserve the engines' true cost
	// ordering: the 16-DPU shard predicts costlier than the 64-DPU one.
	if st.Shards[1].PredictedPerReqNs >= st.Shards[0].PredictedPerReqNs {
		t.Fatalf("profiles inverted: cheap shard %.0f ns/req >= slow shard %.0f ns/req",
			st.Shards[1].PredictedPerReqNs, st.Shards[0].PredictedPerReqNs)
	}
}

// TestHeteroMethodsRouteAndStayBitIdentical is the partition-method
// heterogeneity check: one shard runs uniform partitioning, the other
// non-uniform. The router must (a) steer the majority of traffic to
// whichever method is actually cheaper on this workload, and (b) never
// perturb arithmetic — every response is bitwise identical to a
// homogeneous server running the serving shard's method on the same
// request (partition methods group fp additions differently, so
// cross-method CTRs may differ in the last ulp; within a method they
// may not).
func TestHeteroMethodsRouteAndStayBitIdentical(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	uni := ecfg.Clone()
	uni.Method = partition.MethodUniform
	non := ecfg.Clone()
	non.Method = partition.MethodNonUniform
	engines, err := NewShards(model, profile, []core.Config{uni, non})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Homogeneous references, one per method.
	refs := make([]*core.Engine, 2)
	for i, cfg := range []core.Config{uni, non} {
		ref, err := core.New(model.Clone(), profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	const n = 64
	ctx := context.Background()
	perShard := make([]int, 2)
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		perShard[resp.Shard]++
		want, err := refs[resp.Shard].RunBatch(trace.MakeBatch(profile, i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want.CTR[0] {
			t.Fatalf("sample %d: shard %d CTR %v != homogeneous %v reference %v",
				i, resp.Shard, resp.CTR, refs[resp.Shard].Config().Method, want.CTR[0])
		}
	}

	// Ground truth: which method is cheaper on these samples.
	costU := referenceCost(t, refs[0], profile, n)
	costN := referenceCost(t, refs[1], profile, n)
	cheaper := 0
	if costN < costU {
		cheaper = 1
	}
	if perShard[cheaper] <= n/2 {
		t.Fatalf("cheaper shard (%v, %.0f vs %.0f ns) served only %d of %d",
			refs[cheaper].Config().Method, costU, costN, perShard[cheaper], n)
	}
}

// TestHeteroNonArithmeticBitIdenticalToHomogeneous: shards that differ
// only in non-arithmetic settings (dense worker-pool width, per-shard
// pipelining) must serve a trace bitwise identically to a homogeneous
// server — routing choice invisible in the results, whole-trace.
func TestHeteroNonArithmeticBitIdenticalToHomogeneous(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	a := ecfg.Clone()
	a.HostWorkers = 1
	b := ecfg.Clone()
	b.HostWorkers = 3
	engines, err := NewShards(model, profile, []core.Config{a, b})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{MaxBatch: 1, ShardPipeline: []bool{false, true}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ref, err := core.New(model.Clone(), profile, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	const n = 48
	ctx := context.Background()
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		used[resp.Shard] = true
		want, err := ref.RunBatch(trace.MakeBatch(profile, i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want.CTR[0] {
			t.Fatalf("sample %d (shard %d): CTR %v != homogeneous reference %v", i, resp.Shard, resp.CTR, want.CTR[0])
		}
		if resp.Shard == 1 && resp.PipelinedNs <= 0 {
			t.Fatalf("sample %d: pipelined shard reported no residency", i)
		}
		if resp.Shard == 0 && resp.PipelinedNs != 0 {
			t.Fatalf("sample %d: serial shard reported PipelinedNs %v", i, resp.PipelinedNs)
		}
	}
	// Equal-cost replicas: profiles converge to the same value, so the
	// router behaves like least-backlog and both shards serve traffic
	// eventually — but this is timing-free only for shard identity of
	// the results, which is what the loop asserted. Don't require both
	// shards used (profiles differ in fp dust deterministically).
	_ = used
}
