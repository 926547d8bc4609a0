package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"updlrm/internal/dlrm"
	"updlrm/internal/partition"
	"updlrm/internal/testkit"
	"updlrm/internal/trace"
	"updlrm/internal/upmem"
)

// The batch golden: small engines — the three partitioning methods, the
// event-driven timing engine, int8 tables, a WRAM so small every batch
// splits into kernel waves, a table overlay after ApplyDeltas, and the
// hot-row cache — each run over the three 32-sample batches of the
// small-world trace. testdata/batch.golden holds every Breakdown field
// as float64 bits, the read counters, and an FNV of the Embeddings and
// CTR bits per batch, recorded before stage 2's host side was rebuilt,
// so the modeled clock and the functional output are pinned across a
// refactor of job building, kernel simulation and aggregation.
// Regenerate with UPDATE_GOLDEN=1 (only when the model itself is meant
// to change).

type goldenCase struct {
	name string
	cfg  func() Config
	// prepare runs once on the fresh engine before the first batch.
	prepare func(t *testing.T, e *Engine)
}

func goldenCases(t *testing.T, model *dlrm.Model, tr *trace.Trace) []goldenCase {
	method := func(m partition.Method) func() Config {
		return func() Config { return smallConfig(m) }
	}
	return []goldenCase{
		{name: "uniform", cfg: method(partition.MethodUniform)},
		{name: "nonuniform", cfg: method(partition.MethodNonUniform)},
		{name: "cacheaware", cfg: method(partition.MethodCacheAware)},
		{name: "event", cfg: func() Config {
			cfg := smallConfig(partition.MethodCacheAware)
			cfg.Engine = upmem.EventDriven
			return cfg
		}},
		{name: "quantized", cfg: func() Config {
			cfg := smallConfig(partition.MethodCacheAware)
			cfg.QuantizeEMT = true
			return cfg
		}},
		{name: "waves", cfg: func() Config {
			cfg := smallConfig(partition.MethodNonUniform)
			cfg.ForcedNc = 8
			cfg.HW.WRAMBytes = 1024 // 14 tasklets x 32 B staging leaves 18 samples a wave
			return cfg
		}},
		{name: "updated", cfg: method(partition.MethodCacheAware), prepare: func(t *testing.T, e *Engine) {
			dim := e.EmbDim()
			for table := 0; table < 2; table++ {
				rows := []int32{0, 1, 2, 5, 17, 40}
				deltas := make([]float32, len(rows)*dim)
				for i := range deltas {
					deltas[i] = float32(i%7-3) * 0.01
				}
				if _, err := e.ApplyDeltas(table, rows, deltas); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "hotcache", cfg: func() Config {
			cfg := smallConfig(partition.MethodCacheAware)
			cfg.HotCache = warmCache(t, model, tr, cfg, 0.02)
			return cfg
		}},
	}
}

func dumpResult(name string, batch int, r *Result) string {
	bits := math.Float64bits
	bd := r.Breakdown
	return fmt.Sprintf("%s batch=%d push=%016x lookup=%016x pull=%016x agg=%016x hostcache=%016x mlp=%016x total=%016x "+
		"emt=%d cachehit=%d mram=%d hits=%d misses=%d embs=%016x ctr=%016x\n",
		name, batch, bits(bd.CPUToDPUNs), bits(bd.DPULookupNs), bits(bd.DPUToCPUNs), bits(bd.HostAggNs),
		bits(bd.HostCacheNs), bits(bd.MLPNs), bits(bd.TotalNs()),
		r.EMTReads, r.CacheHitReads, r.MRAMBytesRead, r.HostCacheHits, r.HostCacheMisses,
		testkit.FNVFloats(r.Embeddings.Data()), testkit.FNVFloats(r.CTR))
}

func TestBatchGolden(t *testing.T) {
	model, tr := smallWorld(t)
	var got strings.Builder
	for _, gc := range goldenCases(t, model, tr) {
		eng, err := New(model.Clone(), tr, gc.cfg())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if gc.prepare != nil {
			gc.prepare(t, eng)
		}
		for i, b := range trace.Batches(tr, 32) {
			res, err := eng.RunBatch(b)
			if err != nil {
				t.Fatalf("%s batch %d: %v", gc.name, i, err)
			}
			got.WriteString(dumpResult(gc.name, i, res))
		}
	}
	testkit.Golden(t, "testdata/batch.golden", got.String())
}
