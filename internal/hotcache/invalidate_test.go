package hotcache

import (
	"math"
	"testing"
)

// fillVer returns a fill stamping the vector with the given version.
func fillVer(dim int, ver uint64) func([]float32) uint64 {
	return func(dst []float32) uint64 {
		for i := range dst {
			dst[i] = float32(ver)
		}
		return ver
	}
}

func TestInvalidateEvictsOnlyStale(t *testing.T) {
	c := newTestCache(t, 1<<20, 1, 8)
	buf := make([]float32, 8)

	if !c.Offer(0, 7, fillVer(8, 0)) {
		t.Fatal("offer not admitted")
	}
	// A delta bumps the row to version 1: the version-0 entry is stale.
	if !c.Invalidate(0, 7, 1) {
		t.Fatal("stale entry not invalidated")
	}
	if c.Lookup(0, 7, buf) {
		t.Fatal("lookup hit an invalidated entry")
	}
	// Refill at the post-delta version; the same Invalidate is now a
	// no-op (another replica broadcasting the same delta).
	if !c.Offer(0, 7, fillVer(8, 1)) {
		t.Fatal("refill not admitted")
	}
	if c.Invalidate(0, 7, 1) {
		t.Fatal("fresh entry (version 1) evicted by minVersion 1")
	}
	if !c.Lookup(0, 7, buf) || buf[0] != 1 {
		t.Fatalf("fresh entry lost or wrong: hit=%v vec=%v", buf[0] == 1, buf[0])
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	// Unknown rows and nil caches are safe no-ops.
	if c.Invalidate(3, 99, 5) {
		t.Fatal("invalidated a row that was never cached")
	}
	var nilCache *Cache
	if nilCache.Invalidate(0, 7, 1) {
		t.Fatal("nil cache invalidated something")
	}
}

func TestNegativeCaching(t *testing.T) {
	c := newTestCache(t, 1<<20, 1, 4)
	bad := func(dst []float32) uint64 {
		dst[2] = float32(math.NaN())
		return 0
	}
	if c.Offer(0, 5, bad) {
		t.Fatal("NaN row was admitted")
	}
	st := c.Stats()
	if st.BadFills != 1 || st.NegativeEntries != 1 || st.Entries != 0 {
		t.Fatalf("after bad fill: %+v", st)
	}
	// Repeat offers short-circuit: the fill must not run again.
	if c.Offer(0, 5, func([]float32) uint64 { t.Fatal("fill ran for a marked bad row"); return 0 }) {
		t.Fatal("marked row admitted")
	}
	buf := make([]float32, 4)
	if _, n := c.ProbeBag(0, []int32{5}, buf, nil, func(int32, []float32) uint64 { t.Fatal("fill ran for a marked bad row"); return 0 }); n.Hits != 0 || n.Admitted != 0 {
		t.Fatal("marked row hit or admitted")
	}
	if st = c.Stats(); st.NegativeHits != 2 {
		t.Fatalf("NegativeHits = %d, want 2", st.NegativeHits)
	}
	// A delta to the row clears the mark — it may have healed.
	c.Invalidate(0, 5, 1)
	if st = c.Stats(); st.NegativeEntries != 0 {
		t.Fatalf("NegativeEntries = %d after invalidate, want 0", st.NegativeEntries)
	}
	if !c.Offer(0, 5, fillVer(4, 1)) {
		t.Fatal("healed row not admitted")
	}
	// Other rows are unaffected by the mark.
	if !c.Offer(0, 6, fillVer(4, 0)) {
		t.Fatal("unrelated row not admitted")
	}
}
