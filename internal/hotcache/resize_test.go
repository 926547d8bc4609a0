package hotcache

import (
	"fmt"
	"strings"
	"testing"
)

// fillRows admits n distinct rows of table 0..tables-1 round-robin so
// the cache has residents to evict.
func fillRows(t *testing.T, c *Cache, tables, n int, dim int) {
	t.Helper()
	for i := 0; i < n; i++ {
		table := i % tables
		row := int32(i)
		// Record enough frequency that the duel admits.
		for j := 0; j < 4; j++ {
			var dst [64]float32
			c.Lookup(table, row, dst[:dim])
		}
		c.Offer(table, row, func(dst []float32) uint64 {
			for k := range dst {
				dst[k] = float32(i)
			}
			return 1
		})
	}
}

func TestResizeSharesSizingWithNew(t *testing.T) {
	const dim = 16
	rowBytes := int64(dim) * 4
	for _, budget := range []int64{1, 512, 64 << 10, 1 << 20} {
		fresh, err := New(Config{CapacityBytes: budget, Tables: 4}, dim)
		if err != nil {
			t.Fatal(err)
		}
		resized, err := New(Config{CapacityBytes: 1 << 22, Tables: 4}, dim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resized.Resize(budget); err != nil {
			t.Fatalf("Resize(%d): %v", budget, err)
		}
		if f, r := fresh.Stats().CapacityEntries, resized.Stats().CapacityEntries; f != r {
			t.Fatalf("budget %d: New capacity %d != Resize capacity %d", budget, f, r)
		}
		if want := entriesFor(budget, rowBytes); fresh.Stats().CapacityEntries != 4*perSegment(want, 4) {
			t.Fatalf("budget %d: New capacity %d disagrees with entriesFor %d", budget, fresh.Stats().CapacityEntries, want)
		}
	}
}

func TestResizeRejectsBadBudget(t *testing.T) {
	c, err := New(Config{CapacityBytes: 64 << 10, Tables: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int64{0, -1, -64 << 10} {
		_, err := c.Resize(bad)
		if err == nil {
			t.Fatalf("Resize(%d): want error", bad)
		}
		want := fmt.Sprintf("hotcache: CapacityBytes = %d", bad)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Resize(%d) error %q: want the New error shape %q", bad, err, want)
		}
	}
	var nilCache *Cache
	if _, err := nilCache.Resize(1 << 20); err == nil {
		t.Fatal("nil cache Resize: want error")
	}
}

func TestResizeShrinkEvictsLRUTail(t *testing.T) {
	const dim = 8
	c, err := New(Config{CapacityBytes: 1 << 20, Tables: 2}, dim)
	if err != nil {
		t.Fatal(err)
	}
	fillRows(t, c, 2, 200, dim)
	before := c.Stats()
	if before.Entries < 100 {
		t.Fatalf("fill admitted only %d entries", before.Entries)
	}
	occBefore := c.SizeBytes()
	small := int64(40 * (dim*4 + EntryOverheadBytes)) // ~40 entries
	evicted, err := c.Resize(small)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Entries > after.CapacityEntries {
		t.Fatalf("entries %d exceed capacity %d after shrink", after.Entries, after.CapacityEntries)
	}
	if evicted != before.Entries-after.Entries {
		t.Fatalf("evicted=%d, entries %d -> %d", evicted, before.Entries, after.Entries)
	}
	if got := c.SizeBytes(); got >= occBefore || got > small {
		t.Fatalf("SizeBytes %d after shrink to %d (was %d)", got, small, occBefore)
	}
	if c.CapacityBytes() != small {
		t.Fatalf("CapacityBytes=%d want %d", c.CapacityBytes(), small)
	}
	if c.Resizes() != 1 {
		t.Fatalf("Resizes=%d want 1", c.Resizes())
	}
	// Surviving entries are still servable and grow back after a re-grow.
	if _, err := c.Resize(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CapacityEntries; got <= after.CapacityEntries {
		t.Fatalf("grow did not raise capacity: %d", got)
	}
}

// TestResizeVersionCoherence checks a shrink keeps version semantics:
// entries surviving the shrink still honour Invalidate-by-version.
func TestResizeVersionCoherence(t *testing.T) {
	const dim = 4
	c, err := New(Config{CapacityBytes: 1 << 20, Tables: 1}, dim)
	if err != nil {
		t.Fatal(err)
	}
	fillRows(t, c, 1, 50, dim)
	if _, err := c.Resize(int64(10 * (dim*4 + EntryOverheadBytes))); err != nil {
		t.Fatal(err)
	}
	// Find one surviving row and invalidate it with a later version.
	var dst [dim]float32
	survivor := int32(-1)
	for r := int32(0); r < 50; r++ {
		if c.Lookup(0, r, dst[:]) {
			survivor = r
			break
		}
	}
	if survivor < 0 {
		t.Fatal("no entries survived the shrink")
	}
	if !c.Invalidate(0, survivor, 2) {
		t.Fatal("Invalidate missed a surviving entry")
	}
	if c.Lookup(0, survivor, dst[:]) {
		t.Fatal("invalidated entry still served after resize")
	}
}

func TestRebalanceMovesCapacityTowardHits(t *testing.T) {
	const dim = 8
	c, err := New(Config{CapacityBytes: int64(100 * (dim*4 + EntryOverheadBytes)), Tables: 4}, dim)
	if err != nil {
		t.Fatal(err)
	}
	per := c.Stats().CapacityEntries / 4
	evicted, err := c.Rebalance([]float64{90, 6, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Fatalf("rebalancing an empty cache evicted %d", evicted)
	}
	pt := c.PerTable()
	if len(pt) != 4 {
		t.Fatalf("PerTable len=%d", len(pt))
	}
	if pt[0].CapacityEntries <= per {
		t.Fatalf("hot table capacity %d not above even split %d", pt[0].CapacityEntries, per)
	}
	for i := 1; i < 4; i++ {
		if pt[i].CapacityEntries < 1 {
			t.Fatalf("table %d capacity %d below the one-row floor", i, pt[i].CapacityEntries)
		}
		if pt[i].CapacityEntries >= pt[0].CapacityEntries {
			t.Fatalf("cold table %d capacity %d >= hot table %d", i, pt[i].CapacityEntries, pt[0].CapacityEntries)
		}
	}
	// Total entry budget is conserved (same sizing rule as New).
	total := 0
	for _, s := range pt {
		total += s.CapacityEntries
	}
	if want := entriesFor(c.CapacityBytes(), int64(dim)*4); total != want {
		t.Fatalf("rebalanced total %d != budget %d", total, want)
	}
	// Zero weights fall back to the even split.
	if _, err := c.Rebalance([]float64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.PerTable() {
		if s.CapacityEntries != per {
			t.Fatalf("table %d capacity %d after zero-weight rebalance, want %d", i, s.CapacityEntries, per)
		}
	}
	// Bad inputs.
	if _, err := c.Rebalance([]float64{1, 2}); err == nil {
		t.Fatal("short weights: want error")
	}
	if _, err := c.Rebalance([]float64{1, -1, 1, 1}); err == nil {
		t.Fatal("negative weight: want error")
	}
	// Hash-sharded and nil caches ignore the call.
	hashed, err := New(Config{CapacityBytes: 1 << 16}, dim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hashed.Rebalance([]float64{1}); err != nil {
		t.Fatal(err)
	}
	var nilCache *Cache
	if _, err := nilCache.Rebalance(nil); err != nil {
		t.Fatal(err)
	}
	if nilCache.SizeBytes() != 0 || nilCache.CapacityBytes() != 0 || nilCache.PerTable() != nil {
		t.Fatal("nil cache accessors must be zero")
	}
}
