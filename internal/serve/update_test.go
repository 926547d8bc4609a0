package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"updlrm/internal/core"
	"updlrm/internal/hotcache"
	"updlrm/internal/trace"
)

// dedupRows returns the distinct rows of one sample's bag for a table.
func dedupRows(bag []int32) []int32 {
	seen := map[int32]bool{}
	var rows []int32
	for _, r := range bag {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	return rows
}

// TestApplyDeltasCoherent is the serving-tier acceptance test: after
// ApplyDeltas returns, no Predict on any shard may observe a pre-delta
// embedding. A writer streams updates to the rows a probe sample reads,
// checking the probe's CTR against a reference engine that applied the
// same cumulative deltas, while reader goroutines keep every shard busy
// with in-flight micro-batches. Run under -race.
func TestApplyDeltasCoherent(t *testing.T) {
	srv, profile, ref := newTestServer(t, 2, Config{MaxBatch: 4})
	ctx := context.Background()
	dim := ref.EmbDim()
	probe := profile.Samples[0]
	rows := dedupRows(probe.Sparse[0])

	// Precompute the probe's expected CTR after each cumulative update.
	const steps = 8
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = 0.01
	}
	flat := make([]float32, 0, len(rows)*dim)
	for range rows {
		flat = append(flat, vec...)
	}
	b := trace.MakeBatch(profile, 0, 1)
	want := make([]float32, steps+1)
	res, err := ref.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	want[0] = res.CTR[0]
	for k := 1; k <= steps; k++ {
		if _, err := ref.ApplyDeltas(0, rows, flat); err != nil {
			t.Fatal(err)
		}
		if res, err = ref.RunBatch(b); err != nil {
			t.Fatal(err)
		}
		want[k] = res.CTR[0]
	}

	// Background readers keep micro-batches in flight on both shards.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := profile.Samples[1+i%(len(profile.Samples)-1)]
				if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Error(err)
					return
				}
				i++
			}
		}(r)
	}

	deltas := make([]Delta, len(rows))
	for i, r := range rows {
		deltas[i] = Delta{Table: 0, Row: r, Vec: vec}
	}
	resp, err := srv.Predict(ctx, Request{Dense: probe.Dense, Sparse: probe.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CTR != want[0] {
		t.Fatalf("pre-update probe CTR %v != reference %v", resp.CTR, want[0])
	}
	for k := 1; k <= steps; k++ {
		if err := srv.ApplyDeltas(ctx, deltas); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		// The coherence guarantee: this Predict starts after ApplyDeltas
		// returned, so it must see exactly the k-update state — bitwise.
		resp, err := srv.Predict(ctx, Request{Dense: probe.Dense, Sparse: probe.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CTR != want[k] {
			t.Fatalf("after update %d: probe CTR %v, want %v (stale embedding observed)",
				k, resp.CTR, want[k])
		}
	}
	close(stop)
	wg.Wait()

	st := srv.Stats()
	if st.UpdateBatches != steps {
		t.Fatalf("UpdateBatches = %d, want %d", st.UpdateBatches, steps)
	}
	if want := int64(steps * len(rows)); st.UpdatedRows != want {
		t.Fatalf("UpdatedRows = %d, want %d", st.UpdatedRows, want)
	}
	if st.UpdateModeledNs <= 0 {
		t.Fatal("UpdateModeledNs not charged")
	}
	if st.UpdateP99Ns <= 0 {
		t.Fatal("update wall latency not recorded")
	}
}

// TestServeZeroDeltaBitIdentity: streaming zero deltas through the
// update lane must leave served CTRs bit-identical — the write
// machinery cannot perturb the read path.
func TestServeZeroDeltaBitIdentity(t *testing.T) {
	srv, profile, ref := newTestServer(t, 2, Config{MaxBatch: 4})
	ctx := context.Background()
	dim := ref.EmbDim()
	const n = 16
	before := make([]float32, n)
	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		before[i] = resp.CTR
	}

	zero := make([]float32, dim)
	var deltas []Delta
	for tab := 0; tab < profile.NumTables; tab++ {
		for _, r := range []int32{0, 1, 2, 3} {
			deltas = append(deltas, Delta{Table: tab, Row: r, Vec: zero})
		}
	}
	for k := 0; k < 4; k++ {
		if err := srv.ApplyDeltas(ctx, deltas); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < n; i++ {
		s := profile.Samples[i]
		resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(resp.CTR) != math.Float32bits(before[i]) {
			t.Fatalf("sample %d CTR changed after zero-delta stream: %x -> %x",
				i, math.Float32bits(before[i]), math.Float32bits(resp.CTR))
		}
	}
}

// TestApplyDeltasInvalidatesSharedCache: with a shared hot-row cache
// deployed, updated rows must not serve stale cached vectors on any
// shard, and the server's stats must surface the invalidation traffic.
func TestApplyDeltasInvalidatesSharedCache(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 20, Shards: 2}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.HotCache = cache
	engines, err := NewShards(model, profile, repeat(ecfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	// Warm the cache: repeated passes over the head of the trace admit
	// its hot rows.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 32; i++ {
			s := profile.Samples[i]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cache.Stats().Entries == 0 {
		t.Fatal("no rows cached after warmup")
	}

	// Reference: a cache-less engine receiving the same deltas.
	refCfg := ecfg.Clone()
	refCfg.HotCache = nil
	ref, err := core.New(model.Clone(), profile, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := profile.Samples[0]
	dim := model.Cfg.EmbDim
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = 1
	}
	rows := dedupRows(probe.Sparse[0])
	var deltas []Delta
	flat := make([]float32, 0, len(rows)*dim)
	for _, r := range rows {
		deltas = append(deltas, Delta{Table: 0, Row: r, Vec: vec})
		flat = append(flat, vec...)
	}
	if err := srv.ApplyDeltas(ctx, deltas); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyDeltas(0, rows, flat); err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.RunBatch(trace.MakeBatch(profile, 0, 1))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Predict(ctx, Request{Dense: probe.Dense, Sparse: probe.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(float64(resp.CTR - wantRes.CTR[0])); diff > 1e-5 {
		t.Fatalf("post-update CTR %v, want %v (stale cache?)", resp.CTR, wantRes.CTR[0])
	}

	st := srv.Stats()
	if st.UpdateInvalidations == 0 {
		t.Fatal("UpdateInvalidations = 0 after deltas over cached rows")
	}
	if st.CacheInvalidations == 0 {
		t.Fatal("CacheInvalidations = 0 not folded from the cache")
	}
	if st.UpdateBatches != 1 {
		t.Fatalf("UpdateBatches = %d, want 1", st.UpdateBatches)
	}
}

func BenchmarkServeMixedRW(b *testing.B) {
	model, profile, ecfg := testFixture(b)
	ecfg.Kernel = benchKernel(b)
	engines, err := NewShards(model, profile, repeat(ecfg, 2))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(engines, Config{MaxBatch: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	dim := model.Cfg.EmbDim
	vec := make([]float32, dim)
	for i := range vec {
		vec[i] = 0.001
	}
	const updRows = 8
	deltas := make([]Delta, updRows)
	for i := range deltas {
		deltas[i] = Delta{Table: i % profile.NumTables, Row: int32(i * 7), Vec: vec}
	}
	samples := profile.Samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8 == 7 {
			if err := srv.ApplyDeltas(ctx, deltas); err != nil {
				b.Fatal(err)
			}
			continue
		}
		s := samples[i%len(samples)]
		if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
			b.Fatal(err)
		}
	}
}
