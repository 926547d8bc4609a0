package core

import (
	"testing"

	"updlrm/internal/dlrm"
	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/tensor"
	"updlrm/internal/testkit"
	"updlrm/internal/trace"
)

// warmCache builds a cache sized for frac of the model's embedding
// storage and pre-warms it by replaying the trace once through the
// engine (admission needs to see the stream before hits appear).
func warmCache(t *testing.T, model *dlrm.Model, tr *trace.Trace, cfg Config, frac float64) *hotcache.Cache {
	t.Helper()
	var totalBytes int64
	for _, rows := range model.Cfg.RowsPerTable {
		totalBytes += int64(rows) * int64(model.Cfg.EmbDim) * 4
	}
	cache, err := hotcache.New(hotcache.Config{
		CapacityBytes: int64(frac * float64(totalBytes)),
		Seed:          3,
	}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	if cache == nil {
		t.Fatalf("cache capacity %.0f%% of %d B collapsed to nil", 100*frac, totalBytes)
	}
	cfg.HotCache = cache
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunTrace(tr, cfg.BatchSize); err != nil {
		t.Fatal(err)
	}
	return cache
}

// TestHotCacheZeroIsBitIdentical is the acceptance equivalence check:
// building the engine with a disabled cache (nil, which is what a
// CapacityBytes of 0 produces) must yield bit-identical CTRs,
// embeddings and an identical modeled breakdown to an engine that never
// heard of the cache path.
func TestHotCacheZeroIsBitIdentical(t *testing.T) {
	model, tr := smallWorld(t)
	b := trace.MakeBatch(tr, 0, 96)
	for _, method := range []partition.Method{
		partition.MethodUniform, partition.MethodNonUniform, partition.MethodCacheAware,
	} {
		plain, err := New(model, tr, smallConfig(method))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(method)
		disabled, err := hotcache.New(hotcache.Config{CapacityBytes: 0}, model.Cfg.EmbDim)
		if err != nil {
			t.Fatal(err)
		}
		cfg.HotCache = disabled // nil: capacity 0 disables the path
		gated, err := New(model, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plain.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := gated.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rp.CTR {
			if rp.CTR[i] != rg.CTR[i] {
				t.Fatalf("%v: CTR[%d] %v != %v with zero-size cache", method, i, rp.CTR[i], rg.CTR[i])
			}
		}
		for s := 0; s < b.Size; s++ {
			for tb := 0; tb < rp.Embeddings.Tables(); tb++ {
				ep, eg := rp.Embeddings.At(s, tb), rg.Embeddings.At(s, tb)
				for k := range ep {
					if ep[k] != eg[k] {
						t.Fatalf("%v: embedding bit-difference at (%d,%d,%d)", method, s, tb, k)
					}
				}
			}
		}
		if rp.Breakdown != rg.Breakdown {
			t.Fatalf("%v: breakdown differs with zero-size cache:\n%+v\n%+v", method, rp.Breakdown, rg.Breakdown)
		}
		if rp.MRAMBytesRead != rg.MRAMBytesRead {
			t.Fatalf("%v: MRAM bytes differ: %d != %d", method, rp.MRAMBytesRead, rg.MRAMBytesRead)
		}
		if rg.HostCacheHits != 0 || rg.HostCacheMisses != 0 {
			t.Fatalf("%v: zero-size cache recorded traffic: %d/%d", method, rg.HostCacheHits, rg.HostCacheMisses)
		}
	}
}

// TestHotCacheStaysCorrect checks the split path still computes the
// right embeddings: a warmed cache serves a large share of rows
// host-side yet the batch's embeddings and CTRs match the CPU
// reference within summation-order tolerance.
func TestHotCacheStaysCorrect(t *testing.T) {
	model, tr := smallWorld(t)
	b := trace.MakeBatch(tr, 0, 96)
	refEmbs := dlrm.EmbedCPU(model, b)
	refCTR := model.Clone().ForwardBatch(b, refEmbs)
	for _, method := range []partition.Method{
		partition.MethodUniform, partition.MethodNonUniform, partition.MethodCacheAware,
	} {
		cfg := smallConfig(method)
		cfg.HotCache = warmCache(t, model, tr, smallConfig(method), 0.05)
		eng, err := New(model, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostCacheHits == 0 {
			t.Fatalf("%v: warmed 5%% cache served no rows", method)
		}
		for s := 0; s < b.Size; s++ {
			for tb := 0; tb < res.Embeddings.Tables(); tb++ {
				if !tensor.AlmostEqual(res.Embeddings.At(s, tb), refEmbs[s][tb], 1e-4) {
					t.Fatalf("%v: embedding mismatch at sample %d table %d (max diff %v)",
						method, s, tb, tensor.MaxAbsDiff(res.Embeddings.At(s, tb), refEmbs[s][tb]))
				}
			}
		}
		if !tensor.AlmostEqual(res.CTR, refCTR, 1e-4) {
			t.Fatalf("%v: CTR mismatch with cache enabled", method)
		}
	}
}

// TestHotCacheReducesTrafficAndLatency is the acceptance perf check at
// engine level: under the Zipf-skewed small world, a cache worth a few
// percent of embedding storage must strictly reduce MRAM traffic, every
// DPU stage, and the end-to-end modeled time versus the cache-less run.
func TestHotCacheReducesTrafficAndLatency(t *testing.T) {
	model, tr := smallWorld(t)
	b := trace.MakeBatch(tr, 0, 96)
	for _, method := range []partition.Method{
		partition.MethodUniform, partition.MethodCacheAware,
	} {
		base, err := New(model, tr, smallConfig(method))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := base.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(method)
		cfg.HotCache = warmCache(t, model, tr, smallConfig(method), 0.05)
		cached, err := New(model, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := cached.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if rc.MRAMBytesRead >= rb.MRAMBytesRead {
			t.Fatalf("%v: MRAM bytes %d not below cache-less %d", method, rc.MRAMBytesRead, rb.MRAMBytesRead)
		}
		cb, bb := rc.Breakdown, rb.Breakdown
		// Stages 1 and 2 shrink with every cached row; stage 3's pull is
		// per-sample, so it only shrinks when samples are served entirely
		// from the cache — require it not to grow.
		if cb.CPUToDPUNs >= bb.CPUToDPUNs || cb.DPULookupNs >= bb.DPULookupNs || cb.DPUToCPUNs > bb.DPUToCPUNs {
			t.Fatalf("%v: DPU stages not reduced:\ncached %+v\nbase   %+v", method, cb, bb)
		}
		if cb.HostCacheNs <= 0 {
			t.Fatalf("%v: host cache time not charged", method)
		}
		if cb.TotalNs() >= bb.TotalNs() {
			t.Fatalf("%v: modeled total %v not below cache-less %v", method, cb.TotalNs(), bb.TotalNs())
		}
	}
}

// TestHotCacheCountsDuplicateRows: a bag naming one row k times makes k
// probes. Cold, the first occurrence misses and is admitted and the
// other k-1 already hit; warm, all k hit and the sample never reaches
// the DPUs, yet its embedding is still k copies of the row.
func TestHotCacheCountsDuplicateRows(t *testing.T) {
	model, tr := smallWorld(t)
	const k = 5
	row := int32(17)
	b := trace.MakeBatch(tr, 0, 1)
	for tb := range b.Idx {
		b.Idx[tb] = b.Idx[tb][:0]
		for i := 0; i < k; i++ {
			b.Idx[tb] = append(b.Idx[tb], row)
		}
		b.Off[tb] = []int32{0, k}
	}
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16, Seed: 3}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(partition.MethodUniform)
	cfg.HotCache = cache
	eng, err := New(model, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables := int64(len(b.Idx))
	for pass, want := range [][2]int64{{(k - 1) * tables, tables}, {k * tables, 0}} {
		res, err := eng.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostCacheHits != want[0] || res.HostCacheMisses != want[1] {
			t.Fatalf("pass %d: %d hits / %d misses, want %d / %d",
				pass, res.HostCacheHits, res.HostCacheMisses, want[0], want[1])
		}
		ref := dlrm.EmbedCPU(model, b)
		for tb := range b.Idx {
			if !tensor.AlmostEqual(res.Embeddings.At(0, tb), ref[0][tb], 1e-4) {
				t.Fatalf("pass %d: table %d embedding is not %d copies of the row", pass, tb, k)
			}
		}
	}
}

// TestWarmCacheWaveAllocatesNothing: with the cache warm, a kernel wave
// with its cache split — bag probes and the admissions and evictions
// they trigger — performs no heap allocation, and neither does a
// cache-less one.
func TestWarmCacheWaveAllocatesNothing(t *testing.T) {
	model, tr := smallWorld(t)
	// Alternate two batches so the cache keeps admitting and evicting.
	batches := []*trace.Batch{trace.MakeBatch(tr, 0, 32), trace.MakeBatch(tr, 32, 64)}
	waveAllocs := func(cache *hotcache.Cache) float64 {
		cfg := smallConfig(partition.MethodCacheAware)
		cfg.HotCache = cache
		eng, err := New(model, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		i := 0
		wave := func() {
			b := batches[i%2]
			i++
			eng.sc.embs.Reset(b.Size, len(eng.plans), model.Cfg.EmbDim)
			if err := eng.runWave(b, 0, b.Size, &res); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 40; j++ {
			wave() // size the arena
		}
		return testkit.AllocsPerRun(20, wave)
	}
	cache := warmCache(t, model, tr, smallConfig(partition.MethodCacheAware), 0.02)
	before := cache.Stats()
	if with, without := waveAllocs(cache), waveAllocs(nil); with != 0 || without != 0 {
		t.Fatalf("%v allocations per warm cached wave, %v per cache-less wave, want 0 and 0", with, without)
	}
	after := cache.Stats()
	if after.Hits == before.Hits || after.Admitted == before.Admitted || after.Evicted == before.Evicted {
		t.Fatalf("the waves did not hit, admit and evict: before %+v after %+v", before, after)
	}
}

// TestHotCacheDimMismatchRejected: an engine must refuse a shared cache
// built for a different embedding width.
func TestHotCacheDimMismatchRejected(t *testing.T) {
	model, tr := smallWorld(t)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(partition.MethodUniform)
	cfg.HotCache = cache
	if _, err := New(model, tr, cfg); err == nil {
		t.Fatal("dim-mismatched cache accepted")
	}
}
