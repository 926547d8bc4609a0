package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/synth"
	"updlrm/internal/trace"
)

// testFixture builds a small profile trace, model and engine config
// shared by the serving tests and benchmarks.
func testFixture(t testing.TB) (*dlrm.Model, *trace.Trace, core.Config) {
	t.Helper()
	spec, err := synth.Preset("home")
	if err != nil {
		t.Fatal(err)
	}
	spec = synth.Scaled(spec, 0.005, 0.5)
	spec.Tables = 4
	profile, err := spec.Generate(256)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dlrm.New(dlrm.DefaultConfig(profile.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TotalDPUs = 64
	return model, profile, cfg
}

// repeat is the homogeneous deployment's config list: n shards of one
// engine config.
func repeat(ecfg core.Config, n int) []core.Config {
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = ecfg
	}
	return cfgs
}

func newTestServer(t *testing.T, shards int, scfg Config) (*Server, *trace.Trace, *core.Engine) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	engines, err := NewShards(model, profile, repeat(ecfg, shards))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	// A reference engine outside the server for equivalence checks.
	ref, err := core.New(model.Clone(), profile, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, profile, ref
}

func TestServerShapeAccessors(t *testing.T) {
	srv, profile, _ := newTestServer(t, 2, Config{})
	if srv.NumTables() != profile.NumTables {
		t.Fatalf("NumTables = %d, want %d", srv.NumTables(), profile.NumTables)
	}
	if srv.DenseDim() != profile.DenseDim {
		t.Fatalf("DenseDim = %d, want %d", srv.DenseDim(), profile.DenseDim)
	}
	rows := srv.RowsPerTable()
	for i, r := range profile.RowsPerTable {
		if rows[i] != r {
			t.Fatalf("RowsPerTable[%d] = %d, want %d", i, rows[i], r)
		}
	}
	if got := srv.Config().Shards; got != 2 {
		t.Fatalf("Shards = %d, want 2", got)
	}
}

// TestPredictCopiesBuffers checks the server never aliases caller-owned
// slices: mutating the request buffers right after Predict returns must
// not perturb a concurrently served duplicate.
func TestPredictCopiesBuffers(t *testing.T) {
	srv, profile, ref := newTestServer(t, 1, Config{MaxBatch: 1})
	ctx := context.Background()
	want, err := ref.RunBatch(trace.MakeBatch(profile, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	orig := profile.Samples[0]
	dense := append([]float32(nil), orig.Dense...)
	sparse := make([][]int32, len(orig.Sparse))
	for i, idx := range orig.Sparse {
		sparse[i] = append([]int32(nil), idx...)
	}
	for i := 0; i < 8; i++ {
		resp, err := srv.Predict(ctx, Request{Dense: dense, Sparse: sparse})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want.CTR[0] {
			t.Fatalf("iteration %d: CTR %v != reference %v", i, resp.CTR, want.CTR[0])
		}
		// Scribble over the buffers; the next Predict rebuilds them.
		for j := range dense {
			dense[j] = -1
		}
		for _, idx := range sparse {
			for j := range idx {
				idx[j] = 0
			}
		}
		copy(dense, orig.Dense)
		for i, idx := range orig.Sparse {
			copy(sparse[i], idx)
		}
	}
}

// TestCopyRequestIsolation: the queued copy shares nothing with the
// caller's slices, its per-table views of the one index backing cannot
// grow into each other, and the copy costs three allocations whatever
// the table count.
func TestCopyRequestIsolation(t *testing.T) {
	req := Request{
		Dense:  []float32{1, 2, 3},
		Sparse: [][]int32{{10, 11}, {}, {20}, {30, 31, 32}},
		Class:  Critical,
	}
	cp := copyRequest(req)
	req.Dense[0] = -1
	for _, idx := range req.Sparse {
		for j := range idx {
			idx[j] = -1
		}
	}
	want := [][]int32{{10, 11}, {}, {20}, {30, 31, 32}}
	if cp.Dense[0] != 1 || cp.Class != Critical || len(cp.Sparse) != len(want) {
		t.Fatalf("copy = %+v", cp)
	}
	for tb, idx := range cp.Sparse {
		if cap(idx) != len(idx) {
			t.Fatalf("table %d view has cap %d beyond len %d", tb, cap(idx), len(idx))
		}
		cp.Sparse[tb] = append(idx, 99) // must reallocate, not spill into table tb+1
	}
	for tb := range want {
		got := cp.Sparse[tb][:len(want[tb])]
		for j := range want[tb] {
			if got[j] != want[tb][j] {
				t.Fatalf("table %d = %v, want %v", tb, got, want[tb])
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { copyRequest(req) }); allocs != 3 {
		t.Fatalf("copyRequest made %v allocations, want 3", allocs)
	}
}

// TestServerMatchesRunBatch drives every profile sample through the
// server one at a time (MaxBatch 1, so each is its own batch) and checks
// the CTRs are bitwise-identical to a direct single-engine RunBatch of
// the same samples — the serving layer must not perturb results.
func TestServerMatchesRunBatch(t *testing.T) {
	srv, profile, ref := newTestServer(t, 2, Config{MaxBatch: 1})
	ctx := context.Background()
	n := 32
	b := trace.MakeBatch(profile, 0, n)
	want, err := ref.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want.CTR[i] {
			t.Fatalf("sample %d: served CTR %v != RunBatch CTR %v", i, resp.CTR, want.CTR[i])
		}
		if resp.BatchSize != 1 {
			t.Fatalf("sample %d: batch size %d, want 1", i, resp.BatchSize)
		}
		if total := resp.Breakdown.TotalNs(); total <= 0 {
			t.Fatalf("sample %d: non-positive modeled total %v", i, total)
		}
		if resp.ModeledNs() < resp.Breakdown.TotalNs() {
			t.Fatalf("sample %d: modeled %v < breakdown %v", i, resp.ModeledNs(), resp.Breakdown.TotalNs())
		}
	}
}

// TestServerConcurrent hammers a 4-shard server from many goroutines
// (run under -race) and checks every response against the reference
// engine's batch results.
func TestServerConcurrent(t *testing.T) {
	srv, profile, ref := newTestServer(t, 4, Config{
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
	})
	ctx := context.Background()
	n := len(profile.Samples)
	want, err := ref.RunBatch(trace.MakeBatch(profile, 0, n))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	shards := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				errs <- err
				return
			}
			if resp.CTR != want.CTR[i] {
				t.Errorf("sample %d: served CTR %v != reference %v", i, resp.CTR, want.CTR[i])
			}
			shards[i] = resp.Shard
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Requests != int64(n) {
		t.Fatalf("stats recorded %d requests, want %d", st.Requests, n)
	}
	if st.Errors != 0 {
		t.Fatalf("stats recorded %d errors", st.Errors)
	}
	if st.Batches <= 0 || st.Batches > int64(n) {
		t.Fatalf("stats recorded %d batches for %d requests", st.Batches, n)
	}
	if st.P50Ns <= 0 || st.P95Ns < st.P50Ns || st.P99Ns < st.P95Ns || st.MaxNs < st.P99Ns {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v max=%v",
			st.P50Ns, st.P95Ns, st.P99Ns, st.MaxNs)
	}
	used := map[int]bool{}
	for _, sh := range shards {
		used[sh] = true
	}
	if len(used) < 2 {
		t.Logf("only %d of 4 shards used (timing-dependent; not a failure)", len(used))
	}
}

// TestBatchingWindowCoalesces preloads the queue while no worker can
// drain it, then checks the batcher coalesced the burst instead of
// running singleton batches.
func TestBatchingWindowCoalesces(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{
		MaxBatch:    16,
		BatchWindow: 5 * time.Millisecond,
	})
	ctx := context.Background()

	const burst = 16
	var wg sync.WaitGroup
	sizes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i%len(profile.Samples)]
			resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = resp.BatchSize
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Batches >= burst {
		t.Fatalf("burst of %d ran as %d batches; window did not coalesce", burst, st.Batches)
	}
	if st.AvgBatchSize <= 1 {
		t.Fatalf("avg batch size %v, want > 1", st.AvgBatchSize)
	}
	var coalesced bool
	for _, sz := range sizes {
		if sz > 16 {
			t.Fatalf("batch size %d exceeds MaxBatch", sz)
		}
		if sz > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatal("no request saw a coalesced batch")
	}
}

func TestServerCloseDrains(t *testing.T) {
	srv, profile, _ := newTestServer(t, 2, Config{MaxBatch: 4, BatchWindow: time.Millisecond})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Errorf("pre-close request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()
	srv.Close() // idempotent
	s := profile.Samples[0]
	if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != ErrClosed {
		t.Fatalf("post-close Predict error = %v, want ErrClosed", err)
	}
}

func TestPredictContextCancel(t *testing.T) {
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := profile.Samples[0]
	if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestConstructorsRejectBadInput(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	if _, err := NewShards(nil, profile, repeat(ecfg, 2)); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewShards(model, profile, nil); err == nil {
		t.Fatal("empty shard config list accepted")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty engine set accepted")
	}
}
