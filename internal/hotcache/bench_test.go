package hotcache

import (
	"sync"
	"testing"
)

// The benchmark cache has the serving default's shape: per-table
// segments, a few hundred rows each, 32-wide vectors.
const (
	benchDim    = 32
	benchTables = 4
	benchRows   = 512 // capacity per table
	benchBag    = 16
)

func newBenchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New(Config{
		CapacityBytes: benchTables * benchRows * (benchDim*4 + EntryOverheadBytes),
		Tables:        benchTables,
		Seed:          1,
	}, benchDim)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// fillSegment makes rows [0, benchRows) of table resident.
func fillSegment(b *testing.B, c *Cache, table int) {
	b.Helper()
	acc := make([]float32, benchDim)
	for r := int32(0); r < benchRows; r++ {
		c.ProbeBag(table, []int32{r}, acc, nil, rowFill)
	}
	if st := c.PerTable()[table]; st.Entries != benchRows {
		b.Fatalf("table %d holds %d rows, want %d", table, st.Entries, benchRows)
	}
}

// residentBags cuts a scattered walk over the resident rows into bags.
func residentBags() [][]int32 {
	bags := make([][]int32, benchRows/benchBag)
	for i := range bags {
		bags[i] = make([]int32, benchBag)
		for j := range bags[i] {
			bags[i][j] = int32((i*benchBag + j) * 37 % benchRows)
		}
	}
	return bags
}

// BenchmarkHotCacheBagHit: one op is one 16-row bag, every row resident.
func BenchmarkHotCacheBagHit(b *testing.B) {
	c := newBenchCache(b)
	fillSegment(b, c, 0)
	bags := residentBags()
	acc := make([]float32, benchDim)
	cold := make([]int32, 0, benchBag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold, _ = c.ProbeBag(0, bags[i%len(bags)], acc, cold[:0], rowFill)
	}
	if len(cold) != 0 {
		b.Fatal("a resident row missed")
	}
}

// BenchmarkHotCacheBagMissAdmit: one op is one 16-row bag on a full
// segment in which every row is new and named twice — the second
// occurrence out-votes the idle LRU victim, so each bag runs 8 misses
// with a fill and an eviction, then 8 hits.
func BenchmarkHotCacheBagMissAdmit(b *testing.B) {
	c := newBenchCache(b)
	fillSegment(b, c, 0)
	acc := make([]float32, benchDim)
	cold := make([]int32, 0, benchBag)
	bag := make([]int32, benchBag)
	next := int32(benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBag; j += 2 {
			bag[j], bag[j+1] = next, next
			next++
		}
		cold, _ = c.ProbeBag(0, bag, acc, cold[:0], rowFill)
	}
	b.StopTimer()
	if st := c.Stats(); st.Evicted == 0 || st.Admitted < int64(benchRows)+int64(b.N) {
		b.Fatalf("bags did not admit and evict: %+v", st)
	}
}

// BenchmarkHotCacheInvalidate: one op is one Invalidate that evicts a
// resident row; the segment is refilled off the clock.
func BenchmarkHotCacheInvalidate(b *testing.B) {
	c := newBenchCache(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := int32(i % benchRows)
		if r == 0 {
			b.StopTimer()
			fillSegment(b, c, 0)
			b.StartTimer()
		}
		if !c.Invalidate(0, r, 1) {
			b.Fatalf("row %d was not resident", r)
		}
	}
}

// BenchmarkHotCacheBagParallel: two goroutines probe all-resident bags
// of the same table, so they share one segment lock the way two engine
// shards do. One op is one bag.
func BenchmarkHotCacheBagParallel(b *testing.B) {
	c := newBenchCache(b)
	fillSegment(b, c, 0)
	bags := residentBags()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc := make([]float32, benchDim)
			cold := make([]int32, 0, benchBag)
			for i := g; i < b.N; i += 2 {
				cold, _ = c.ProbeBag(0, bags[i%len(bags)], acc, cold[:0], rowFill)
			}
		}(g)
	}
	wg.Wait()
}
