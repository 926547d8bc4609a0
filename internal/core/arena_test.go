package core

import (
	"testing"

	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/trace"
)

// snapshotResult deep-copies the arena-backed parts of a Result so they
// survive the engine's next RunBatch.
func snapshotResult(r *Result) *Result {
	cp := *r
	cp.CTR = append([]float32(nil), r.CTR...)
	cp.Embeddings = r.Embeddings.Clone()
	return &cp
}

// TestArenaReuseNoStaleBleed is the scratch-recycling safety check: the
// engine runs a large batch, then a smaller different batch, then the
// large batch again — every pass over the reused arena must reproduce
// the first run bit for bit (CTRs, embeddings, breakdown, counters),
// proving no stale rows, partial sums, or job reads leak between
// requests.
func TestArenaReuseNoStaleBleed(t *testing.T) {
	model, tr := smallWorld(t)
	for _, method := range []partition.Method{
		partition.MethodUniform, partition.MethodCacheAware,
	} {
		eng, err := New(model, tr, smallConfig(method))
		if err != nil {
			t.Fatal(err)
		}
		big := trace.MakeBatch(tr, 0, 64)
		small := trace.MakeBatch(tr, 64, 96)

		first, err := eng.RunBatch(big)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotResult(first)

		// Interleave a smaller batch so the arena shrinks, then regrows.
		if _, err := eng.RunBatch(small); err != nil {
			t.Fatal(err)
		}
		again, err := eng.RunBatch(big)
		if err != nil {
			t.Fatal(err)
		}

		for s := range want.CTR {
			if want.CTR[s] != again.CTR[s] {
				t.Fatalf("%v: CTR[%d] drifted across arena reuse: %v != %v",
					method, s, again.CTR[s], want.CTR[s])
			}
		}
		for s := 0; s < big.Size; s++ {
			for tb := 0; tb < want.Embeddings.Tables(); tb++ {
				ew, ea := want.Embeddings.At(s, tb), again.Embeddings.At(s, tb)
				for k := range ew {
					if ew[k] != ea[k] {
						t.Fatalf("%v: embedding (%d,%d,%d) drifted across arena reuse", method, s, tb, k)
					}
				}
			}
		}
		if want.Breakdown != again.Breakdown {
			t.Fatalf("%v: breakdown drifted:\nfirst %+v\nagain %+v", method, want.Breakdown, again.Breakdown)
		}
		if want.EMTReads != again.EMTReads || want.CacheHitReads != again.CacheHitReads ||
			want.MRAMBytesRead != again.MRAMBytesRead {
			t.Fatalf("%v: counters drifted across arena reuse", method)
		}
	}
}

// TestArenaReuseMultiWorkerWorkspaces pins the batch-major dense
// path's per-worker GEMM activation workspaces: with a multi-worker
// host pool, batches of shifting sizes (growing, shrinking, odd) must
// stay bit-identical to a single-worker engine that recycles one
// workspace — no stale activation rows may survive a reshape, and no
// row-block split may perturb arithmetic.
func TestArenaReuseMultiWorkerWorkspaces(t *testing.T) {
	model, tr := smallWorld(t)
	cfg := smallConfig(partition.MethodUniform)
	cfg.HostWorkers = 1
	serial, err := New(model.Clone(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgN := smallConfig(partition.MethodUniform)
	cfgN.HostWorkers = 4
	pooled, err := New(model.Clone(), tr, cfgN)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 64}, {10, 21}, {0, 96}, {90, 96}, {5, 70}} {
		b := trace.MakeBatch(tr, span[0], span[1])
		want, err := serial.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		wantCTR := append([]float32(nil), want.CTR...)
		got, err := pooled.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for s := range wantCTR {
			if wantCTR[s] != got.CTR[s] {
				t.Fatalf("batch [%d,%d): CTR[%d] %v (4 workers) != %v (serial)",
					span[0], span[1], s, got.CTR[s], wantCTR[s])
			}
		}
	}
}

// TestArenaResultsMatchFreshEngine cross-checks the reused arena
// against a fresh engine that has never served another batch: after
// arbitrary interleaving, the recycled buffers must produce exactly
// what a cold engine produces.
func TestArenaResultsMatchFreshEngine(t *testing.T) {
	model, tr := smallWorld(t)
	warm, err := New(model, tr, smallConfig(partition.MethodNonUniform))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena with varied batch shapes.
	for _, r := range [][2]int{{0, 96}, {10, 12}, {32, 96}} {
		if _, err := warm.RunBatch(trace.MakeBatch(tr, r[0], r[1])); err != nil {
			t.Fatal(err)
		}
	}
	b := trace.MakeBatch(tr, 0, 48)
	got, err := warm.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(model, tr, smallConfig(partition.MethodNonUniform))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.CTR {
		if want.CTR[s] != got.CTR[s] {
			t.Fatalf("CTR[%d]: warm arena %v != fresh engine %v", s, got.CTR[s], want.CTR[s])
		}
	}
	if want.Breakdown != got.Breakdown {
		t.Fatalf("breakdown: warm %+v != fresh %+v", got.Breakdown, want.Breakdown)
	}
}

// TestArenaReuseWithHotCache runs the stale-bleed interleaving with a
// live hot-row cache: the cache split path shares the same arena
// (coldScratch, flat embeddings) and must stay correct as
// batch shapes change. Cache state advances between passes, so instead
// of bitwise-replaying, every pass is checked against the CPU
// reference.
func TestArenaReuseWithHotCache(t *testing.T) {
	model, tr := smallWorld(t)
	cfg := smallConfig(partition.MethodUniform)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 64 << 10, Seed: 9}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HotCache = cache
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, r := range [][2]int{{0, 64}, {64, 96}, {0, 96}} {
			b := trace.MakeBatch(tr, r[0], r[1])
			got, err := eng.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			gotCTR := append([]float32(nil), got.CTR...)
			want, err := ref.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for s := range want.CTR {
				d := float64(want.CTR[s]) - float64(gotCTR[s])
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("pass %d [%d,%d): CTR[%d] cache-split %v != reference %v",
						pass, r[0], r[1], s, gotCTR[s], want.CTR[s])
				}
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("cache never hit; the split path went unexercised")
	}
}

// TestArenaCapTrimsFootprint checks the governor's engine lever: after
// a big batch grows the arena, setting a cap below the footprint makes
// the next batch release and re-grow to its own (smaller) size — while
// the big batch's CTR slice, which aliases a released buffer, stays
// intact. Uncapping stops the trimming.
func TestArenaCapTrimsFootprint(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	if eng.ArenaBytes() != 0 {
		t.Fatalf("fresh engine ArenaBytes = %d, want 0 before any batch", eng.ArenaBytes())
	}
	big := trace.MakeBatch(tr, 0, 96)
	small := trace.MakeBatch(tr, 0, 4)

	bigRes, err := eng.RunBatch(big)
	if err != nil {
		t.Fatal(err)
	}
	held, bigCTR := bigRes.CTR, append([]float32(nil), bigRes.CTR...)
	grown := eng.ArenaBytes()
	if grown <= 0 {
		t.Fatalf("ArenaBytes = %d after a batch", grown)
	}

	// Without a cap, a small batch keeps the high-water mark.
	if _, err := eng.RunBatch(small); err != nil {
		t.Fatal(err)
	}
	if kept := eng.ArenaBytes(); kept < grown {
		t.Fatalf("uncapped arena shrank: %d -> %d", grown, kept)
	}

	// Re-grow, cap below the footprint, and run the small batch: the
	// trim must release the big buffers and land well under the old mark.
	if _, err := eng.RunBatch(big); err != nil {
		t.Fatal(err)
	}
	eng.SetArenaCap(grown / 2)
	if got := eng.ArenaCap(); got != grown/2 {
		t.Fatalf("ArenaCap = %d want %d", got, grown/2)
	}
	smallRes, err := eng.RunBatch(small)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := eng.ArenaBytes()
	if trimmed >= grown {
		t.Fatalf("capped arena did not trim: %d (was %d)", trimmed, grown)
	}
	if len(smallRes.CTR) != small.Size {
		t.Fatalf("post-trim batch returned %d CTRs", len(smallRes.CTR))
	}
	// The big CTR slice captured before the cap still holds its values —
	// trimming dropped the arena's reference to the buffer, not the
	// caller's. (The Result struct itself is recycled by every batch.)
	for s := range bigCTR {
		if held[s] != bigCTR[s] {
			t.Fatalf("held CTR buffer mutated by trim at [%d]", s)
		}
	}
	// Trimmed engines still compute correctly.
	fresh, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunBatch(small)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.CTR {
		if want.CTR[s] != smallRes.CTR[s] {
			t.Fatalf("post-trim CTR[%d] %v != fresh %v", s, smallRes.CTR[s], want.CTR[s])
		}
	}
	// SetArenaCap(0) (and negatives) uncap.
	eng.SetArenaCap(-1)
	if eng.ArenaCap() != 0 {
		t.Fatalf("ArenaCap after SetArenaCap(-1) = %d", eng.ArenaCap())
	}
	if _, err := eng.RunBatch(big); err != nil {
		t.Fatal(err)
	}
	if eng.ArenaBytes() <= trimmed {
		t.Fatal("uncapped arena failed to grow back")
	}
}
