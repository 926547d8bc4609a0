package core

import (
	"runtime"
	"testing"

	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/testkit"
	"updlrm/internal/trace"
)

// TestSteadyStateBatchAllocatesNothing: once the arena is sized,
// RunBatch — job building, the kernel step fanned out over the standing
// pool, aggregation, the pooled dense forward, the Result itself —
// performs no heap allocation, whatever the host width, with and
// without the hot-row cache.
func TestSteadyStateBatchAllocatesNothing(t *testing.T) {
	model, tr := smallWorld(t)
	batches := []*trace.Batch{trace.MakeBatch(tr, 0, 32), trace.MakeBatch(tr, 32, 64)}
	testkit.AtProcs([]int{1, 2, 4}, func(procs int) {
		caches := map[string]*hotcache.Cache{
			"no cache":   nil,
			"warm cache": warmCache(t, model, tr, smallConfig(partition.MethodCacheAware), 0.02),
		}
		for name, cache := range caches {
			cfg := smallConfig(partition.MethodCacheAware)
			cfg.HotCache = cache
			eng, err := New(model, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			run := func() {
				if _, err := eng.RunBatch(batches[i%2]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for j := 0; j < 40; j++ {
				run() // size the arena
			}
			if n := testkit.AllocsPerRun(50, run); n != 0 {
				t.Errorf("GOMAXPROCS %d, %s: %v allocations per steady-state RunBatch", procs, name, n)
			}
		}
	})
}

// TestDroppedEnginesReleaseTheirGoroutines: an engine has no Close, and
// deployments are built and dropped freely (serving shards, benchmark
// set-up, design sweeps) — the dense-compute pool and the kernel step
// pool must both go with it.
func TestDroppedEnginesReleaseTheirGoroutines(t *testing.T) {
	model, tr := smallWorld(t)
	b := trace.MakeBatch(tr, 0, 32)
	testkit.AtProcs([]int{4}, func(int) {
		base := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			cfg := smallConfig(partition.MethodUniform)
			cfg.HostWorkers = 3
			eng, err := New(model, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if n := testkit.GoroutinesAfterGC(base); n > base {
			t.Fatalf("%d goroutines after dropping 50 engines, %d before building any", n, base)
		}
	})
}
