package hotcache

import (
	"sync"
	"testing"

	"updlrm/internal/synth"
	"updlrm/internal/tensor"
)

// fillConst returns a fill function writing a recognizable vector.
func fillConst(table int, row int32, dim int) func([]float32) uint64 {
	return func(dst []float32) uint64 {
		for i := range dst {
			dst[i] = float32(table)*1e6 + float32(row) + float32(i)/100
		}
		return 0
	}
}

func newTestCache(t *testing.T, capacityBytes int64, shards, dim int) *Cache {
	t.Helper()
	c, err := New(Config{CapacityBytes: capacityBytes, Shards: shards, Seed: 1}, dim)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("nil cache for positive capacity")
	}
	return c
}

func TestNilCacheIsValid(t *testing.T) {
	c, err := New(Config{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatal("zero capacity should return a nil cache")
	}
	buf := make([]float32, 32)
	if c.Lookup(0, 1, buf) {
		t.Fatal("nil cache hit")
	}
	c.Offer(0, 1, func([]float32) uint64 { t.Fatal("nil cache materialized a row"); return 0 })
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if c.Dim() != 0 {
		t.Fatalf("nil cache dim = %d", c.Dim())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{CapacityBytes: -1}, 32); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := New(Config{CapacityBytes: 1 << 20}, 0); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := New(Config{CapacityBytes: 1 << 20, Shards: -2}, 32); err == nil {
		t.Fatal("negative shards accepted")
	}
}

// TestTinyPositiveCapacityHoldsOneRow: a positive budget below one
// row's cost still yields a working 1-entry cache — sweeps over small
// fractions must neither abort nor silently run cache-less.
func TestTinyPositiveCapacityHoldsOneRow(t *testing.T) {
	c, err := New(Config{CapacityBytes: 8}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("positive capacity returned a disabled cache")
	}
	buf := make([]float32, 32)
	c.Lookup(0, 1, buf)
	if !c.Offer(0, 1, fillConst(0, 1, 32)) {
		t.Fatal("empty 1-entry cache rejected its first candidate")
	}
	if !c.Lookup(0, 1, buf) {
		t.Fatal("admitted row not resident")
	}
	if st := c.Stats(); st.CapacityEntries != 1 {
		t.Fatalf("CapacityEntries = %d, want 1", st.CapacityEntries)
	}
}

func TestHitReturnsStoredVector(t *testing.T) {
	const dim = 8
	c := newTestCache(t, 64*(dim*4+EntryOverheadBytes), 1, dim)
	buf := make([]float32, dim)
	if c.Lookup(2, 7, buf) {
		t.Fatal("hit before any admission")
	}
	c.Offer(2, 7, fillConst(2, 7, dim))
	if !c.Lookup(2, 7, buf) {
		t.Fatal("miss after admission into empty cache")
	}
	want := make([]float32, dim)
	fillConst(2, 7, dim)(want)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, buf[i], want[i])
		}
	}
	// Same row id in a different table is a different key.
	if c.Lookup(3, 7, buf) {
		t.Fatal("cross-table hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Admitted != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSaved != dim*4 {
		t.Fatalf("BytesSaved = %d, want %d", st.BytesSaved, dim*4)
	}
	if hr := st.HitRate(); hr <= 0.3 || hr >= 0.4 {
		t.Fatalf("hit rate = %v, want 1/3", hr)
	}
}

// TestAdmissionFiltersColdRows fills a tiny cache with hot rows, then
// offers a once-seen cold row: the frequency duel must reject it and
// keep the proven hot set resident.
func TestAdmissionFiltersColdRows(t *testing.T) {
	const dim = 4
	// Capacity: exactly 2 entries, one shard.
	c := newTestCache(t, 2*(dim*4+EntryOverheadBytes), 1, dim)
	buf := make([]float32, dim)

	// Rows 0 and 1 are hot: many recorded accesses each.
	for pass := 0; pass < 6; pass++ {
		for row := int32(0); row < 2; row++ {
			if !c.Lookup(0, row, buf) {
				c.Offer(0, row, fillConst(0, row, dim))
			}
		}
	}
	// Row 99 was seen once; it must lose the duel against a hot victim.
	c.Lookup(0, 99, buf)
	c.Offer(0, 99, func([]float32) uint64 { t.Fatal("cold row was materialized"); return 0 })
	if c.Lookup(0, 99, buf) {
		t.Fatal("cold row admitted over hot residents")
	}
	for row := int32(0); row < 2; row++ {
		if !c.Lookup(0, row, buf) {
			t.Fatalf("hot row %d displaced", row)
		}
	}
	st := c.Stats()
	if st.Rejected == 0 {
		t.Fatalf("no rejections recorded: %+v", st)
	}
	if st.Evicted != 0 {
		t.Fatalf("evictions without a winning candidate: %+v", st)
	}
}

// TestFrequentRowDisplacesInfrequent checks the other side of the duel:
// a row that becomes hot is admitted, evicting a less-used resident.
func TestFrequentRowDisplacesInfrequent(t *testing.T) {
	const dim = 4
	c := newTestCache(t, 1*(dim*4+EntryOverheadBytes), 1, dim)
	buf := make([]float32, dim)

	// Resident row 5, recorded once.
	c.Lookup(0, 5, buf)
	c.Offer(0, 5, fillConst(0, 5, dim))

	// Row 6 gets hotter than row 5, then offers itself.
	for i := 0; i < 5; i++ {
		c.Lookup(0, 6, buf)
	}
	c.Offer(0, 6, fillConst(0, 6, dim))
	if !c.Lookup(0, 6, buf) {
		t.Fatal("hot candidate not admitted")
	}
	if c.Lookup(0, 5, buf) {
		t.Fatal("cold victim survived in a 1-entry cache")
	}
	st := c.Stats()
	if st.Evicted != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 1 || st.CapacityEntries != 1 {
		t.Fatalf("occupancy = %+v", st)
	}
}

// TestZipfConvergence streams Zipf-skewed accesses through a cache
// sized for a few percent of the key space and checks the steady-state
// hit rate clears the bar a skew-oblivious cache could not: under
// exponent ~1 skew, the top few percent of rows carry most accesses.
func TestZipfConvergence(t *testing.T) {
	const (
		dim     = 8
		rows    = 10_000
		entries = 300 // 3% of the key space
		draws   = 200_000
	)
	c := newTestCache(t, entries*(dim*4+EntryOverheadBytes), 4, dim)
	z := synth.NewZipf(rows, 1.05, tensor.NewRNG(42))
	buf := make([]float32, dim)
	for i := 0; i < draws; i++ {
		row := int32(z.Draw())
		if !c.Lookup(0, row, buf) {
			c.Offer(0, row, fillConst(0, row, dim))
		}
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > st.CapacityEntries {
		t.Fatalf("occupancy out of bounds: %+v", st)
	}
	if hr := st.HitRate(); hr < 0.5 {
		t.Fatalf("steady-state hit rate %.3f under Zipf(1.05) with a 3%% cache; want >= 0.5", hr)
	}
	if st.Hits+st.Misses != draws {
		t.Fatalf("lookup accounting: hits %d + misses %d != %d", st.Hits, st.Misses, draws)
	}
}

// TestConcurrentMixedUse hammers one cache from many goroutines with
// overlapping key ranges (run under -race) and checks the counters are
// consistent afterwards.
func TestConcurrentMixedUse(t *testing.T) {
	const (
		dim        = 8
		goroutines = 8
		perG       = 2_000
	)
	c := newTestCache(t, 128*(dim*4+EntryOverheadBytes), 8, dim)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			z := synth.NewZipf(500, 1.1, tensor.NewRNG(uint64(g)))
			buf := make([]float32, dim)
			for i := 0; i < perG; i++ {
				table := i % 3
				row := int32(z.Draw())
				if !c.Lookup(table, row, buf) {
					c.Offer(table, row, fillConst(table, row, dim))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("lookup accounting: %d + %d != %d", st.Hits, st.Misses, goroutines*perG)
	}
	if st.Admitted-st.Evicted != int64(st.Entries) {
		t.Fatalf("occupancy accounting: admitted %d - evicted %d != entries %d",
			st.Admitted, st.Evicted, st.Entries)
	}
	if st.Entries > st.CapacityEntries {
		t.Fatalf("over capacity: %+v", st)
	}
	// Every resident vector must still carry the values its fill wrote.
	want := make([]float32, dim)
	probe := make([]float32, dim)
	for table := 0; table < 3; table++ {
		for row := int32(0); row < 500; row++ {
			before := c.Stats().Hits
			if !c.Lookup(table, row, probe) {
				continue
			}
			_ = before
			fillConst(table, row, dim)(want)
			for i := range want {
				if probe[i] != want[i] {
					t.Fatalf("(%d,%d) element %d = %v, want %v", table, row, i, probe[i], want[i])
				}
			}
		}
	}
}

func TestSketchAgingDecays(t *testing.T) {
	s := newSketch(4, 7) // sample window 32
	k := uint64(0xabcdef)
	for i := 0; i < 10; i++ {
		s.Record(k)
	}
	if est := s.Estimate(k); est < 10 {
		t.Fatalf("estimate %d after 10 records", est)
	}
	// Flood with other keys until the window triggers aging.
	for i := uint64(0); i < 64; i++ {
		s.Record(mix64(i))
	}
	if est := s.Estimate(k); est > 6 {
		t.Fatalf("estimate %d after aging, want halved (<= 6)", est)
	}
}

func TestSketchSaturates(t *testing.T) {
	s := newSketch(1024, 3) // large window: no aging during this test
	k := uint64(99)
	for i := 0; i < 40; i++ {
		s.Record(k)
	}
	if est := s.Estimate(k); est != counterMax {
		t.Fatalf("estimate %d, want saturated %d", est, counterMax)
	}
}

// TestPerTablePartitionRouting: with Tables set, every row of table t
// lands in segment t — same-index rows of different tables never
// collide or share capacity.
func TestPerTablePartitionRouting(t *testing.T) {
	const dim = 8
	c, err := New(Config{CapacityBytes: 1 << 20, Tables: 4, Seed: 7}, dim)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 4 {
		t.Fatalf("got %d segments, want 4", len(c.shards))
	}
	buf := make([]float32, dim)
	for table := 0; table < 4; table++ {
		if !c.Offer(table, 5, fillConst(table, 5, dim)) {
			t.Fatalf("table %d row 5 not admitted into empty segment", table)
		}
		if c.shards[table].n != 1 {
			t.Fatalf("table %d row landed outside its segment", table)
		}
	}
	for table := 0; table < 4; table++ {
		if !c.Lookup(table, 5, buf) {
			t.Fatalf("table %d row 5 missing after admission", table)
		}
		want := float32(table) * 1e6
		if buf[0] < want || buf[0] >= want+1e6 {
			t.Fatalf("table %d served another table's vector (%v)", table, buf[0])
		}
	}
}

// TestPerTablePartitionIsolation: a burst-hot table hammering its
// segment cannot evict (or out-duel) another table's resident hot row —
// the capacity-isolation property hashed sharding cannot give.
func TestPerTablePartitionIsolation(t *testing.T) {
	const dim = 8
	rowBytes := int64(dim)*4 + EntryOverheadBytes
	// Budget for 8 entries across 2 tables: 4 per segment.
	c, err := New(Config{CapacityBytes: 8 * rowBytes, Tables: 2, Seed: 3}, dim)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, dim)
	// Table 1's hot row: admitted, then re-touched so its frequency
	// estimate stays high.
	if !c.Offer(1, 42, fillConst(1, 42, dim)) {
		t.Fatal("table 1 hot row not admitted")
	}
	for i := 0; i < 32; i++ {
		if !c.Lookup(1, 42, buf) {
			t.Fatal("table 1 hot row evaporated while being re-touched")
		}
	}
	// Table 0 floods its own segment far past capacity.
	for row := int32(0); row < 512; row++ {
		c.Lookup(0, row, buf)
		c.Offer(0, row, fillConst(0, row, dim))
	}
	if !c.Lookup(1, 42, buf) {
		t.Fatal("table 0's flood evicted table 1's hot row across the partition")
	}
	if got := c.shards[0].n; got > c.shards[0].capacity {
		t.Fatalf("table 0 segment holds %d entries, capacity %d", got, c.shards[0].capacity)
	}
	st := c.Stats()
	if st.CapacityEntries != 8 {
		t.Fatalf("CapacityEntries = %d, want 8 (4 per table)", st.CapacityEntries)
	}
}

// TestPerTablePartitionTinyBudget: a budget below one row per table
// still gives every table segment one resident slot.
func TestPerTablePartitionTinyBudget(t *testing.T) {
	c, err := New(Config{CapacityBytes: 8, Tables: 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for table := 0; table < 3; table++ {
		if cap := c.shards[table].capacity; cap != 1 {
			t.Fatalf("table %d capacity = %d, want 1", table, cap)
		}
		if !c.Offer(table, 1, fillConst(table, 1, 16)) {
			t.Fatalf("table %d rejected first candidate", table)
		}
	}
	if _, err := New(Config{CapacityBytes: 1 << 20, Tables: -1}, 16); err == nil {
		t.Fatal("negative Tables accepted")
	}
}
