package core

import (
	"math"
	"testing"

	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/trace"
)

func TestApplyDeltasValidation(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	dim := eng.EmbDim()
	good := make([]float32, dim)
	cases := []struct {
		name   string
		table  int
		rows   []int32
		deltas []float32
	}{
		{"bad table", 99, []int32{0}, good},
		{"no rows", 0, nil, nil},
		{"row out of range", 0, []int32{1 << 20}, good},
		{"delta len mismatch", 0, []int32{0}, good[:dim-1]},
	}
	for _, c := range cases {
		if _, err := eng.ApplyDeltas(c.table, c.rows, c.deltas); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestApplyDeltasVisibleAndIsolated is the heart of the write path: a
// delta changes subsequent batch results by exactly the delta, charges
// modeled write time, and — because writes go through a per-engine
// copy-on-write overlay — leaves replicas sharing the same base model
// completely untouched.
func TestApplyDeltasVisibleAndIsolated(t *testing.T) {
	model, tr := smallWorld(t)
	cfg := smallConfig(partition.MethodCacheAware)
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := New(model.Clone(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.MakeBatch(tr, 0, 8)
	dim := eng.EmbDim()

	before, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if before.Breakdown.UpdateNs != 0 {
		t.Fatalf("read batch charged UpdateNs = %v", before.Breakdown.UpdateNs)
	}
	// Sum of pre-delta embeddings for sample 0 of table 0.
	base := append([]float32(nil), before.Embeddings.At(0, 0)...)

	// Shift every distinct row sample 0 reads in table 0 by +2 per
	// element: the aggregated embedding must shift by +2 per bag slot.
	bag := b.SampleIndices(0, 0)
	seen := map[int32]bool{}
	var rows []int32
	for _, r := range bag {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	deltas := make([]float32, len(rows)*dim)
	for i := range deltas {
		deltas[i] = 2
	}
	res, err := eng.ApplyDeltas(0, rows, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != len(rows) {
		t.Fatalf("Rows = %d, want %d", res.Rows, len(rows))
	}
	if res.Breakdown.UpdateNs <= 0 || res.MRAMBytesWritten <= 0 {
		t.Fatalf("update charged nothing: %+v", res)
	}
	for _, r := range rows {
		if v := eng.RowVersion(0, r); v == 0 {
			t.Fatalf("row %d version still 0 after delta", r)
		}
	}

	after, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got := after.Embeddings.At(0, 0)
	// Each bag occurrence reads a row shifted by +2.
	for k := 0; k < dim; k++ {
		want := base[k] + 2*float32(len(bag))
		if math.Abs(float64(got[k]-want)) > 1e-3 {
			t.Fatalf("col %d = %v, want %v (base %v)", k, got[k], want, base[k])
		}
	}

	// The replica sharing the same base tables must still see the
	// pre-delta values bit-for-bit.
	repRes, err := replica.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	rep := repRes.Embeddings.At(0, 0)
	for k := 0; k < dim; k++ {
		if math.Float32bits(rep[k]) != math.Float32bits(base[k]) {
			t.Fatalf("replica col %d diverged: %v != %v", k, rep[k], base[k])
		}
	}
}

// TestZeroDeltaStreamBitIdentity: a stream of zero deltas must leave
// every CTR bit-identical — the read path cannot be perturbed by the
// write machinery (overlay swap, fetcher indirection, version stamps).
func TestZeroDeltaStreamBitIdentity(t *testing.T) {
	model, tr := smallWorld(t)
	cfg := smallConfig(partition.MethodCacheAware)
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.MakeBatch(tr, 0, 32)
	ref, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	refCTR := append([]float32(nil), ref.CTR...)

	dim := eng.EmbDim()
	zero := make([]float32, 4*dim)
	for tab := 0; tab < eng.NumTables(); tab++ {
		rows := []int32{0, 1, 5, 7}
		if _, err := eng.ApplyDeltas(tab, rows, zero); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refCTR {
		if math.Float32bits(got.CTR[i]) != math.Float32bits(refCTR[i]) {
			t.Fatalf("CTR %d changed after zero-delta stream: %x -> %x",
				i, math.Float32bits(refCTR[i]), math.Float32bits(got.CTR[i]))
		}
	}
}

// TestApplyDeltasInvalidatesHotCache: a cached hot row must not survive
// a delta — the next lookup re-fills with the post-delta value.
func TestApplyDeltasInvalidatesHotCache(t *testing.T) {
	model, tr := smallWorld(t)
	cfg := smallConfig(partition.MethodUniform)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 20, Shards: 2}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HotCache = cache
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.MakeBatch(tr, 0, 32)
	// Two passes: admit hot rows, then hit them.
	for i := 0; i < 2; i++ {
		if _, err := eng.RunBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Stats().Entries == 0 {
		t.Fatal("no rows cached after two passes")
	}

	// Delta every row of table 0 that the batch touches.
	seen := map[int32]bool{}
	var rows []int32
	for _, r := range b.Idx[0] {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	dim := eng.EmbDim()
	deltas := make([]float32, len(rows)*dim)
	for i := range deltas {
		deltas[i] = 1
	}
	res, err := eng.ApplyDeltas(0, rows, deltas)
	if err != nil {
		t.Fatal(err)
	}

	// Every cached table-0 row the delta touched must be gone: probing
	// it now must miss (version-0 entries were evicted).
	vec := make([]float32, dim)
	for _, r := range rows {
		if cache.Lookup(0, r, vec) {
			t.Fatalf("row %d still cached after delta", r)
		}
	}
	if res.Invalidations == 0 {
		t.Fatal("delta over cached rows invalidated nothing")
	}
	if cs := cache.Stats(); cs.Invalidations != res.Invalidations {
		t.Fatalf("cache Invalidations %d != result %d", cs.Invalidations, res.Invalidations)
	}

	// And the next batch must aggregate post-delta values: compare with
	// a cache-less engine that receives the same delta.
	refCfg := smallConfig(partition.MethodUniform)
	ref, err := New(model.Clone(), tr, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyDeltas(0, rows, deltas); err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	wantCTR := append([]float32(nil), want.CTR...)
	got, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantCTR {
		if math.Abs(float64(got.CTR[i]-wantCTR[i])) > 1e-5 {
			t.Fatalf("CTR %d = %v, want %v (stale cache?)", i, got.CTR[i], wantCTR[i])
		}
	}
}

// TestWriteRatioChangesPlanning: the acceptance criterion that a write
// workload produces a different partitioning decision than its read
// counterpart — here the cache-aware planner must admit fewer lists
// once refresh traffic discounts their benefit.
func TestWriteRatioChangesPlanning(t *testing.T) {
	model, tr := smallWorld(t)
	read := smallConfig(partition.MethodCacheAware)
	eng, err := New(model, tr, read)
	if err != nil {
		t.Fatal(err)
	}
	write := smallConfig(partition.MethodCacheAware)
	write.WriteRatio = 0.25
	wEng, err := New(model.Clone(), tr, write)
	if err != nil {
		t.Fatal(err)
	}
	readLists, writeLists := 0, 0
	for i, p := range eng.Plans() {
		readLists += p.CachedLists()
		writeLists += wEng.Plans()[i].CachedLists()
	}
	if readLists == 0 {
		t.Fatal("read plan cached no lists; fixture too small")
	}
	if writeLists >= readLists {
		t.Fatalf("write plan cached %d lists, read plan %d — write ratio had no effect",
			writeLists, readLists)
	}
}

// TestApplyDeltasAllocatesNothing: once every table has its overlay and
// the engine's update scratch is sized, applying deltas to rows already
// written allocates nothing.
func TestApplyDeltasAllocatesNothing(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodCacheAware))
	if err != nil {
		t.Fatal(err)
	}
	rows := []int32{3, 17, 17, 250, 999}
	deltas := make([]float32, len(rows)*eng.EmbDim())
	table := 0
	apply := func() {
		if _, err := eng.ApplyDeltas(table%eng.NumTables(), rows, deltas); err != nil {
			t.Fatal(err)
		}
		table++
	}
	for i := 0; i < eng.NumTables(); i++ {
		apply() // first write per table builds its overlay rows
	}
	if allocs := testing.AllocsPerRun(50, apply); allocs != 0 {
		t.Fatalf("%v allocations per ApplyDeltas, want 0", allocs)
	}
}

func BenchmarkApplyDeltas(b *testing.B) {
	model, tr := smallWorld(b)
	cfg := smallConfig(partition.MethodCacheAware)
	cfg.Kernel = benchKernel(b)
	eng, err := New(model, tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dim := eng.EmbDim()
	const nRows = 64
	rows := make([]int32, nRows)
	for i := range rows {
		rows[i] = int32(i * 13 % model.Cfg.RowsPerTable[0])
	}
	deltas := make([]float32, nRows*dim)
	for i := range deltas {
		deltas[i] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ApplyDeltas(i%eng.NumTables(), rows, deltas); err != nil {
			b.Fatal(err)
		}
	}
}
