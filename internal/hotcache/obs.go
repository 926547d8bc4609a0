package hotcache

import (
	"strconv"

	"updlrm/internal/obs"
)

// tableCounters is one embedding table's pre-resolved cache counters.
// The segment-local counts under sh.mu remain the source of truth for
// Stats; these atomic counters add the per-table exported view, fed
// once per call (export) rather than once per row.
type tableCounters struct {
	hits, misses       *obs.Counter
	admitted, rejected *obs.Counter
	evicted            *obs.Counter
	invalidations      *obs.Counter
	negHits, badFills  *obs.Counter
}

// Instrument registers the cache's metric families on reg with one
// child per embedding table (label "table" = table index), plus
// occupancy gauges read at scrape time. The cache key packs the table
// index in its high 32 bits, so every path — including eviction, where
// only the victim's key survives — attributes to the right table.
// No-op on a nil cache or registry; call once, before serving starts.
func (c *Cache) Instrument(reg *obs.Registry, numTables int) {
	if c == nil || reg == nil || numTables <= 0 {
		return
	}
	hits := reg.CounterVec("hotcache_hits_total",
		"Row lookups served host-side from the hot-row cache, by table.", "table")
	misses := reg.CounterVec("hotcache_misses_total",
		"Row lookups that fell through to the DPU path, by table.", "table")
	admitted := reg.CounterVec("hotcache_admitted_total",
		"Rows admitted after winning the TinyLFU frequency duel, by table.", "table")
	rejected := reg.CounterVec("hotcache_rejected_total",
		"Admission candidates that lost the frequency duel, by table.", "table")
	evicted := reg.CounterVec("hotcache_evicted_total",
		"Resident rows displaced by admissions, by table of the victim.", "table")
	inval := reg.CounterVec("hotcache_invalidations_total",
		"Resident rows evicted as stale by the update stream, by table.", "table")
	negHits := reg.CounterVec("hotcache_negative_hits_total",
		"Offers short-circuited by a remembered bad row, by table.", "table")
	badFills := reg.CounterVec("hotcache_bad_fills_total",
		"Admissions rolled back on row validation failure (NaN/Inf), by table.", "table")
	c.tabs = make([]tableCounters, numTables)
	for t := range c.tabs {
		l := strconv.Itoa(t)
		c.tabs[t] = tableCounters{
			hits:          hits.With(l),
			misses:        misses.With(l),
			admitted:      admitted.With(l),
			rejected:      rejected.With(l),
			evicted:       evicted.With(l),
			invalidations: inval.With(l),
			negHits:       negHits.With(l),
			badFills:      badFills.With(l),
		}
	}
	reg.GaugeFunc("hotcache_entries",
		"Rows currently resident across all cache shards.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("hotcache_capacity_entries",
		"Maximum resident rows across all cache shards.",
		func() float64 { return float64(c.Stats().CapacityEntries) })
}

// tc returns the counters for the table packed into cache key k, or
// nil when the cache is uninstrumented (or the table out of range).
func (c *Cache) tc(k uint64) *tableCounters {
	t := k >> 32
	if t >= uint64(len(c.tabs)) {
		return nil
	}
	return &c.tabs[t]
}

// export adds one call's counts to table's exported counters. Evictions
// are not among them: they belong to the victim's table (exportEvicted).
func (c *Cache) export(table int, d *counters) {
	tc := c.tc(key(table, 0))
	if tc == nil {
		return
	}
	addCount(tc.hits, d.hits)
	addCount(tc.misses, d.misses)
	addCount(tc.admitted, d.admitted)
	addCount(tc.rejected, d.rejected)
	addCount(tc.negHits, d.negHits)
	addCount(tc.badFills, d.badFills)
}

// addCount skips the atomic add for the counts a call did not touch.
func addCount(ctr *obs.Counter, n int64) {
	if n > 0 {
		ctr.Add(n)
	}
}

// exportEvicted counts one eviction against the table of victim key k.
func (c *Cache) exportEvicted(k uint64) {
	if tc := c.tc(k); tc != nil {
		tc.evicted.Inc()
	}
}
