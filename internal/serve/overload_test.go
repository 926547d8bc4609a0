package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/hotcache"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// newCachedServer builds n replicas sharing one hot-row cache sized at
// frac of the model's embedding storage.
func newCachedServer(t *testing.T, shards int, frac float64, scfg Config) (*Server, *hotcache.Cache, int) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	var totalBytes int64
	for _, rows := range profile.RowsPerTable {
		totalBytes += int64(rows) * int64(model.Cfg.EmbDim) * 4
	}
	cache, err := hotcache.New(hotcache.Config{
		CapacityBytes: int64(frac * float64(totalBytes)),
		Seed:          11,
	}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	if cache == nil {
		t.Fatalf("cache at %.1f%% of %d B collapsed to nil", 100*frac, totalBytes)
	}
	ecfg.HotCache = cache
	engines, err := NewShards(model, profile, repeat(ecfg, shards))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var lookups int
	for _, s := range profile.Samples {
		for _, idx := range s.Sparse {
			lookups += len(idx)
		}
	}
	return srv, cache, lookups
}

// TestCacheCountersConsistentUnderConcurrency hammers a cached server
// from many clients (run under -race) and checks the hit/miss counters
// exactly account for every row lookup, and that the server's Stats
// mirror the cache's own.
func TestCacheCountersConsistentUnderConcurrency(t *testing.T) {
	srv, cache, lookups := newCachedServer(t, 4, 0.05, Config{
		MaxBatch:    8,
		BatchWindow: 100 * time.Microsecond,
	})
	if srv.HotCache() != cache {
		t.Fatal("server does not report the shared cache")
	}
	// testFixture is deterministic: this regenerates the same stream the
	// server was partitioned from.
	_, profile, _ := testFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range profile.Samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.CacheHits+st.CacheMisses != int64(lookups) {
		t.Fatalf("cache accounting: hits %d + misses %d != %d row lookups",
			st.CacheHits, st.CacheMisses, lookups)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across a full skewed trace")
	}
	cs := cache.Stats()
	if st.CacheHits != cs.Hits || st.CacheMisses != cs.Misses ||
		st.CacheAdmitted != cs.Admitted || st.CacheBytesSaved != cs.BytesSaved {
		t.Fatalf("server stats diverge from cache stats:\nserver %+v\ncache  %+v", st, cs)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate > 1 {
		t.Fatalf("hit rate %v out of (0,1]", st.CacheHitRate)
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache empty after a full trace")
	}
}

// TestReplicasMustShareCache: New refuses engine replicas wired to
// different cache instances — stats and admission state would split.
func TestReplicasMustShareCache(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	mk := func(ecfg core.Config) *core.Engine {
		eng, err := core.New(model.Clone(), profile, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	c1, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 16}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	cfg1, cfg2 := ecfg, ecfg
	cfg1.HotCache = c1
	cfg2.HotCache = c2
	if _, err := New([]*core.Engine{mk(cfg1), mk(cfg2)}, Config{}); err == nil {
		t.Fatal("replicas with different caches accepted")
	}
	srv, err := New([]*core.Engine{mk(cfg1), mk(cfg1)}, Config{})
	if err != nil {
		t.Fatalf("replicas sharing a cache rejected: %v", err)
	}
	srv.Close()
}
