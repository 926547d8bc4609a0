// Package hotcache is the serving-tier hot-row embedding cache: a
// concurrent, sharded software cache of per-(table, row) embedding
// vectors that sits between the serving layer and the DPU pipeline.
// Rows served from it skip the full push/lookup/pull DPU round trip and
// are aggregated on the host instead — the RecNMP observation that a
// small cache in front of near-memory lookup hardware absorbs most of a
// skewed stream's traffic, applied to UpDLRM's UPMEM back end.
//
// Admission is TinyLFU-style: a compact count-min sketch with aging
// estimates every row's recent access frequency, and a missed row is
// admitted only when its estimate beats the eviction candidate's.
// Under Zipf-skewed traffic the cache therefore converges on the true
// hot set from the live stream alone — no offline profiling pass — and
// one-hit wonders never displace proven hot rows.
//
// Storage is a slab per segment (see shard): every vector slot, key,
// version and LRU link a segment will ever use is allocated when its
// capacity is set, admission writes the fill into the slot it will
// occupy, and eviction hands the victim's slot to the next admission.
// Probing, admitting, evicting and invalidating therefore allocate
// nothing, and the slab holds no pointers for the collector to trace.
//
// The engine probes by bag: ProbeBag takes all of one sample's rows for
// one table, sums the resident ones straight from the slab into the
// sample's embedding, runs the admission duel for the rest, and holds
// the segment lock across the whole bag instead of once per row.
// Lookup, Offer and Invalidate are the same routine one row at a time.
//
// The cache is shared by all engine replicas of a serving deployment:
// every shard probes and feeds the same instance, so a row made hot by
// any shard's traffic is served host-side by all of them.
package hotcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"updlrm/internal/tensor"
)

// EntryOverheadBytes is the bookkeeping charged against CapacityBytes
// per row of capacity, on top of the vector payload: the slot's key,
// version and two LRU links (24 B), its cells of the half-empty index
// (8-16 B) and its share of the segment's frequency sketch (16-32 B).
const EntryOverheadBytes = 64

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 8

// Config sizes a hot-row cache.
type Config struct {
	// CapacityBytes is the total host-memory budget across all shards,
	// payload plus EntryOverheadBytes per row. Zero disables the cache
	// (NewServer then runs every lookup through the DPUs, bit-identical
	// to a cache-less deployment); any positive budget holds at least
	// one row, so small sweep fractions never abort or silently disable.
	CapacityBytes int64
	// Shards is the number of independently locked cache segments;
	// zero means DefaultShards. More shards cut lock contention under
	// concurrent serving at a small capacity-granularity cost. Ignored
	// when Tables partitions the cache instead.
	Shards int
	// Tables switches the cache from hashed sharding to per-table
	// capacity partitioning: table t's rows route to segment t, which
	// owns a fixed 1/Tables share of the entry budget (and its own
	// frequency sketch), so one burst-hot table can never evict —
	// or pollute the admission statistics of — another table's proven
	// hot set. DLRM tables differ wildly in size and skew, which is
	// exactly when a shared LRU misbehaves. Every segment holds at
	// least one row even under tiny budgets. Zero keeps hashed
	// sharding with a shared budget.
	Tables int
	// Seed perturbs the shard and sketch hashes.
	Seed uint64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count row lookups (a row requested k times in one
	// batch counts k).
	Hits, Misses int64
	// Admitted counts rows inserted after winning the frequency duel;
	// Rejected counts candidates that lost it; Evicted counts residents
	// displaced by admissions.
	Admitted, Rejected, Evicted int64
	// Entries and CapacityEntries are current and maximum resident rows.
	Entries, CapacityEntries int
	// BytesSaved is the nominal fp32 row payload served host-side
	// (Hits x Dim x 4) — MRAM traffic the DPUs never moved.
	BytesSaved int64
	// Invalidations counts resident entries evicted because a row delta
	// made their stamped version stale.
	Invalidations int64
	// BadFills counts admissions rolled back because the filled vector
	// failed validation (NaN/Inf); NegativeHits counts offers
	// short-circuited by a remembered bad row; NegativeEntries is the
	// number of rows currently marked bad.
	BadFills, NegativeHits int64
	NegativeEntries        int
}

// HitRate returns Hits/(Hits+Misses), 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a concurrent hot-row embedding cache. The zero value of a
// *Cache (nil) is a valid always-miss cache, so callers can thread an
// optional cache without nil checks.
type Cache struct {
	shards []*shard
	mask   uint64
	seed   uint64
	// tables > 0 means per-table partitioning: shards[t] serves table t
	// and mask is unused.
	tables   int
	dim      int
	rowBytes int64
	// capBytes is the current byte budget (Resize replaces it);
	// resizes counts Resize calls that changed it. adminMu serializes
	// Resize and Rebalance against each other — per-shard locks still
	// order them against the serving path.
	capBytes atomic.Int64
	resizes  atomic.Int64
	adminMu  sync.Mutex
	// tabs holds per-table exported counters (see Instrument); empty
	// when the cache is uninstrumented.
	tabs []tableCounters
}

// entriesFor is the single sizing rule shared by New, Resize and
// Rebalance: how many resident rows a byte budget buys at a given
// per-row payload, charging EntryOverheadBytes of bookkeeping per row
// and never going below one row for a positive budget.
func entriesFor(capacityBytes, rowBytes int64) int {
	totalEntries := int(capacityBytes / (rowBytes + EntryOverheadBytes))
	if totalEntries < 1 {
		totalEntries = 1 // a positive budget always buys one row
	}
	return totalEntries
}

// perSegment splits a total entry budget evenly across n segments,
// flooring at one row per segment.
func perSegment(totalEntries, n int) int {
	per := totalEntries / n
	if per < 1 {
		per = 1
	}
	return per
}

// New builds a cache for embedding vectors of the given dimension.
// A nil cache (disabled) is represented by a nil *Cache, which New
// returns when cfg.CapacityBytes is zero.
func New(cfg Config, dim int) (*Cache, error) {
	if cfg.CapacityBytes == 0 {
		return nil, nil
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("hotcache: CapacityBytes = %d", cfg.CapacityBytes)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("hotcache: dim = %d", dim)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("hotcache: Shards = %d", cfg.Shards)
	}
	if cfg.Tables < 0 {
		return nil, fmt.Errorf("hotcache: Tables = %d", cfg.Tables)
	}
	rowBytes := int64(dim) * 4
	totalEntries := entriesFor(cfg.CapacityBytes, rowBytes)
	if cfg.Tables > 0 {
		// Per-table partitioning: segment t owns table t's fixed share
		// of the budget (never below one row, so a tiny budget degrades
		// to one resident row per table rather than disabling tables).
		per := perSegment(totalEntries, cfg.Tables)
		c := &Cache{
			shards:   make([]*shard, cfg.Tables),
			tables:   cfg.Tables,
			seed:     cfg.Seed,
			dim:      dim,
			rowBytes: rowBytes,
		}
		c.capBytes.Store(cfg.CapacityBytes)
		for i := range c.shards {
			c.shards[i] = newShard(per, dim, cfg.Seed, cfg.Seed+uint64(i)*0x9e3779b97f4a7c15)
		}
		return c, nil
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = DefaultShards
	}
	// Round down to a power of two for mask-based routing, and never
	// use more shards than entries (every shard must hold >= 1 row).
	for nShards&(nShards-1) != 0 {
		nShards &= nShards - 1
	}
	for nShards > totalEntries {
		nShards >>= 1
	}
	c := &Cache{
		shards:   make([]*shard, nShards),
		mask:     uint64(nShards - 1),
		seed:     cfg.Seed,
		dim:      dim,
		rowBytes: rowBytes,
	}
	c.capBytes.Store(cfg.CapacityBytes)
	per := totalEntries / nShards
	for i := range c.shards {
		c.shards[i] = newShard(per, dim, cfg.Seed, cfg.Seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return c, nil
}

// Resize replaces the cache's byte budget in place, using the same
// sizing rule as New (entriesFor), so the two can never drift. A
// shrink evicts each segment's LRU tail down to its new capacity —
// version coherence is untouched, since eviction only removes entries
// and the update path's Invalidate-by-version still governs what a
// later re-fill may serve. A grow raises the caps and lets admission
// refill. Either way each segment moves, under its lock, into a slab of
// the new size, so a shrink does return memory (one allocation burst per
// resize, none after). The segment count is fixed at construction, so
// shrinking below one row per segment floors there (mirroring New's
// per-segment floor). Non-positive budgets are rejected — a live cache
// cannot be resized away — with the same error shape as New. Safe for
// concurrent use with the serving path; returns the evicted entry
// count. A nil cache rejects every resize.
func (c *Cache) Resize(capacityBytes int64) (evicted int, err error) {
	if c == nil || capacityBytes <= 0 {
		return 0, fmt.Errorf("hotcache: CapacityBytes = %d", capacityBytes)
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	if capacityBytes == c.capBytes.Load() {
		return 0, nil
	}
	totalEntries := entriesFor(capacityBytes, c.rowBytes)
	per := perSegment(totalEntries, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		evicted += sh.setCapacityLocked(per, c)
		sh.mu.Unlock()
	}
	c.capBytes.Store(capacityBytes)
	c.resizes.Add(1)
	return evicted, nil
}

// Rebalance redistributes the cache's entry budget across its
// per-table segments proportionally to the given non-negative weights
// (observed per-table hit counts, typically), flooring at one row per
// table so no table is ever fully unplugged. The total budget
// (CapacityBytes) is unchanged — this only moves capacity between
// tables. Only valid for per-table partitioned caches; a nil cache or
// a hash-sharded cache ignores the call. Returns evicted entries.
func (c *Cache) Rebalance(weights []float64) (evicted int, err error) {
	if c == nil || c.tables == 0 {
		return 0, nil
	}
	if len(weights) != c.tables {
		return 0, fmt.Errorf("hotcache: Rebalance weights = %d, tables = %d", len(weights), c.tables)
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("hotcache: Rebalance weight = %g", w)
		}
		total += w
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	totalEntries := entriesFor(c.capBytes.Load(), c.rowBytes)
	caps := make([]int, c.tables)
	if total == 0 {
		// No signal: fall back to the even split New uses.
		per := perSegment(totalEntries, c.tables)
		for i := range caps {
			caps[i] = per
		}
	} else {
		assigned := 0
		for i, w := range weights {
			caps[i] = int(float64(totalEntries) * w / total)
			if caps[i] < 1 {
				caps[i] = 1
			}
			assigned += caps[i]
		}
		// Largest-weight table absorbs rounding drift (may be negative
		// when the min-1 floors over-assigned; it still floors at 1).
		max := 0
		for i := 1; i < len(weights); i++ {
			if weights[i] > weights[max] {
				max = i
			}
		}
		if caps[max]+totalEntries-assigned >= 1 {
			caps[max] += totalEntries - assigned
		}
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		evicted += sh.setCapacityLocked(caps[i], c)
		sh.mu.Unlock()
	}
	return evicted, nil
}

// setCapacityLocked points one segment at a new entry capacity: a
// shrink evicts down the LRU tail first, and any change moves the
// segment into a slab of the new size. Caller holds sh.mu; returns
// evictions.
func (sh *shard) setCapacityLocked(capacity int, c *Cache) (evicted int) {
	if capacity < 1 {
		capacity = 1
	}
	if capacity == sh.capacity {
		return 0
	}
	for sh.n > capacity {
		victim := sh.tail
		c.exportEvicted(sh.keys[victim])
		sh.remove(victim)
		sh.release(victim)
		sh.counts.evicted++
		evicted++
	}
	sh.reslab(capacity)
	return evicted
}

// CapacityBytes returns the current byte budget (0 for nil).
func (c *Cache) CapacityBytes() int64 {
	if c == nil {
		return 0
	}
	return c.capBytes.Load()
}

// Resizes returns how many Resize calls changed the budget (0 for
// nil) — the governor's cache-shrink activity counter.
func (c *Cache) Resizes() int64 {
	if c == nil {
		return 0
	}
	return c.resizes.Load()
}

// SizeBytes returns the resident occupancy charged against the budget:
// rows held times (payload + EntryOverheadBytes). This is what a
// memory governor tracks — it grows as admission fills the cache and
// falls when Resize evicts. Safe on a nil cache (0).
func (c *Cache) SizeBytes() int64 {
	if c == nil {
		return 0
	}
	var entries int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		entries += int64(sh.n)
		sh.mu.Unlock()
	}
	return entries * (c.rowBytes + EntryOverheadBytes)
}

// PerTable returns per-segment stats — one Stats per table — for
// per-table partitioned caches, and nil otherwise (including nil
// caches). The per-table hit counters are the observed hit curve the
// adaptive budget rebalancer weighs.
func (c *Cache) PerTable() []Stats {
	if c == nil || c.tables == 0 {
		return nil
	}
	out := make([]Stats, c.tables)
	for i, sh := range c.shards {
		sh.mu.Lock()
		out[i] = sh.statsLocked()
		sh.mu.Unlock()
		out[i].BytesSaved = out[i].Hits * c.rowBytes
	}
	return out
}

// statsLocked snapshots one segment. Caller holds sh.mu.
func (sh *shard) statsLocked() Stats {
	return Stats{
		Hits:            sh.counts.hits,
		Misses:          sh.counts.misses,
		Admitted:        sh.counts.admitted,
		Rejected:        sh.counts.rejected,
		Evicted:         sh.counts.evicted,
		Entries:         sh.n,
		CapacityEntries: sh.capacity,
		Invalidations:   sh.counts.invalidations,
		BadFills:        sh.counts.badFills,
		NegativeHits:    sh.counts.negHits,
		NegativeEntries: len(sh.neg),
	}
}

// Dim returns the vector width the cache was built for (0 for nil).
func (c *Cache) Dim() int {
	if c == nil {
		return 0
	}
	return c.dim
}

// key packs (table, row) into the cache key space.
func key(table int, row int32) uint64 {
	return uint64(table)<<32 | uint64(uint32(row))
}

// shardFor routes a key to its shard: the key's table segment under
// per-table partitioning (out-of-range tables wrap, so a misconfigured
// Tables count degrades to sharing rather than panicking), the mixed
// hash otherwise.
func (c *Cache) shardFor(k uint64) *shard {
	if c.tables > 0 {
		return c.shards[int(k>>32)%c.tables]
	}
	return c.shards[mix64(k^c.seed)&c.mask]
}

// probeMode selects what one probe of a row does beyond finding it.
type probeMode uint8

const (
	// probeCount records the access in the frequency sketch, counts the
	// hit or miss, and serves a hit into dst.
	probeCount probeMode = 1 << iota
	// probeSum serves a hit by adding it to dst rather than copying.
	probeSum
	// probeAdmit runs the admission duel on a miss.
	probeAdmit
)

// probeLocked is the cache's one row routine, behind Lookup, Offer and
// ProbeBag alike: find key k, refresh and (when counting) serve it if
// resident, otherwise (when admitting) offer it. Counts go to d.
// Caller holds sh.mu. Reports whether the row was resident.
func (c *Cache) probeLocked(sh *shard, k uint64, row int32, mode probeMode, dst []float32,
	fill func(row int32, dst []float32) uint64, d *counters) bool {
	if mode&probeCount != 0 {
		sh.sketch.Record(k)
	}
	if s := sh.find(k); s != noSlot {
		// For an uncounted probe (an offer) this is a race with another
		// engine's admission: refresh recency and leave.
		sh.moveToFront(s)
		if mode&probeCount != 0 {
			if mode&probeSum != 0 {
				tensor.Add(sh.vec(s), dst[:sh.dim])
			} else {
				copy(dst[:sh.dim], sh.vec(s))
			}
			d.hits++
		}
		return true
	}
	if mode&probeCount != 0 {
		d.misses++
	}
	if mode&probeAdmit != 0 {
		c.admitLocked(sh, k, row, fill, d)
	}
	return false
}

// admitLocked runs the admission duel for the absent key k: a free
// slot admits outright, a full segment admits only when the candidate's
// estimated frequency strictly beats the LRU victim's. The fill lands
// in the spare slot and is validated there, so a corrupt row costs no
// resident its place. Caller holds sh.mu.
func (c *Cache) admitLocked(sh *shard, k uint64, row int32,
	fill func(row int32, dst []float32) uint64, d *counters) {
	if _, bad := sh.neg[k]; bad {
		// Remembered bad row: skip the duel and the fill entirely.
		d.negHits++
		return
	}
	full := sh.n >= sh.capacity
	if full && sh.sketch.Estimate(k) <= sh.sketch.Estimate(sh.keys[sh.tail]) {
		d.rejected++
		return
	}
	s := sh.spare
	vec := sh.vec(s)
	version := fill(row, vec)
	if !validRow(vec) {
		// Caching a corrupt vector would serve it forever; remember the
		// row instead so repeated offers short-circuit until a delta
		// (Invalidate) gives it a chance to heal.
		d.badFills++
		if len(sh.neg) >= sh.negCap {
			sh.neg = nil // epoch reset keeps the mark set bounded
		}
		if sh.neg == nil {
			sh.neg = make(map[uint64]uint64)
		}
		sh.neg[k] = version
		return
	}
	if full {
		victim := sh.tail
		c.exportEvicted(sh.keys[victim])
		sh.remove(victim)
		sh.spare = victim
		d.evicted++
	} else {
		sh.spare = sh.free
		sh.free = sh.next[sh.free]
	}
	sh.insert(s, k, version)
	d.admitted++
}

// validRow reports whether every element is finite (no NaN/Inf).
func validRow(vec []float32) bool {
	for _, v := range vec {
		// x != x catches NaN; the subtraction check catches ±Inf
		// without importing math for float32.
		if v != v || v-v != 0 {
			return false
		}
	}
	return true
}

// settle ends one locked run on a segment: the run's counts fold into
// the segment's totals and the call's running total, and the lock is
// released.
func (sh *shard) settle(d, total *counters) {
	sh.counts.add(d)
	sh.mu.Unlock()
	total.add(d)
	*d = counters{}
}

// BagCounts is what one ProbeBag call did, for the caller's cost model.
type BagCounts struct {
	// Hits rows were served from the cache and Misses were not (a row
	// occurring k times counts k); Admitted of the misses were filled
	// and inserted.
	Hits, Misses, Admitted int64
}

// ProbeBag is the serving hot path: it probes all of one sample's rows
// for one table under a single hold of the segment lock (hashed-shard
// caches re-lock only when consecutive rows route to different
// segments). Rows are taken in order, exactly as a per-row loop would:
// each is recorded in the frequency sketch; a resident row is added to
// acc (len >= Dim) straight from the slab; a missing row is appended to
// cold and offered for admission, fill being invoked — under the lock,
// at most once per row — only when the cache admits it. fill writes the
// row's vector into dst and returns its current version, which stamps
// the entry for coherence. A row admitted early in the bag is resident
// for its later occurrences. Returns the extended cold slice and the
// bag's counts; a nil cache misses every row without recording
// anything.
func (c *Cache) ProbeBag(table int, rows []int32, acc []float32, cold []int32,
	fill func(row int32, dst []float32) uint64) ([]int32, BagCounts) {
	if c == nil {
		return append(cold, rows...), BagCounts{}
	}
	var total, d counters
	var sh *shard
	for _, row := range rows {
		k := key(table, row)
		if next := c.shardFor(k); next != sh {
			if sh != nil {
				sh.settle(&d, &total)
			}
			sh = next
			sh.mu.Lock()
		}
		if !c.probeLocked(sh, k, row, probeCount|probeSum|probeAdmit, acc, fill, &d) {
			cold = append(cold, row)
		}
	}
	if sh != nil {
		sh.settle(&d, &total)
	}
	c.export(table, &total)
	return cold, BagCounts{Hits: total.hits, Misses: total.misses, Admitted: total.admitted}
}

// probeRow is ProbeBag for a single row: one lock, one probeLocked.
func (c *Cache) probeRow(table int, row int32, mode probeMode, dst []float32,
	fill func(row int32, dst []float32) uint64) (resident, admitted bool) {
	k := key(table, row)
	sh := c.shardFor(k)
	var d counters
	sh.mu.Lock()
	resident = c.probeLocked(sh, k, row, mode, dst, fill, &d)
	sh.counts.add(&d)
	sh.mu.Unlock()
	c.export(table, &d)
	return resident, d.admitted > 0
}

// Lookup probes the cache for (table, row), recording the access in the
// frequency sketch either way. On a hit it copies the vector into dst
// (len >= Dim) and refreshes the entry's recency; on a miss it returns
// false. A nil cache always misses without recording anything.
func (c *Cache) Lookup(table int, row int32, dst []float32) bool {
	if c == nil {
		return false
	}
	hit, _ := c.probeRow(table, row, probeCount, dst, nil)
	return hit
}

// Offer proposes (table, row) for admission after a miss. fill is
// invoked — under the shard lock, at most once — to materialize the
// row's vector only when the cache decides to admit it: either a free
// slot exists, or the candidate's estimated frequency strictly beats
// the LRU eviction candidate's (the TinyLFU duel). fill returns the
// row's current version, which stamps the entry for coherence. It
// reports whether the row was admitted (so callers can charge the
// fill's cost). A nil cache ignores offers.
func (c *Cache) Offer(table int, row int32, fill func(dst []float32) uint64) bool {
	if c == nil {
		return false
	}
	_, admitted := c.probeRow(table, row, probeAdmit, nil,
		func(_ int32, dst []float32) uint64 { return fill(dst) })
	return admitted
}

// Invalidate evicts the cached entry for (table, row) when its stamped
// version predates minVersion, and clears any stale negative mark the
// same way. Callers pass the row's post-delta version, so entries
// re-filled after the delta (version >= minVersion) survive. Reports
// whether a resident entry was evicted. Safe on a nil cache.
func (c *Cache) Invalidate(table int, row int32, minVersion uint64) bool {
	if c == nil {
		return false
	}
	k := key(table, row)
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ver, bad := sh.neg[k]; bad && ver < minVersion {
		delete(sh.neg, k)
	}
	s := sh.find(k)
	if s == noSlot || sh.versions[s] >= minVersion {
		return false
	}
	sh.remove(s)
	sh.release(s)
	sh.counts.invalidations++
	if tc := c.tc(k); tc != nil {
		tc.invalidations.Inc()
	}
	return true
}

// Stats aggregates counters across shards. Safe on a nil cache (all
// zeros).
func (c *Cache) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s := sh.statsLocked()
		sh.mu.Unlock()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Admitted += s.Admitted
		st.Rejected += s.Rejected
		st.Evicted += s.Evicted
		st.Entries += s.Entries
		st.CapacityEntries += s.CapacityEntries
		st.Invalidations += s.Invalidations
		st.BadFills += s.BadFills
		st.NegativeHits += s.NegativeHits
		st.NegativeEntries += s.NegativeEntries
	}
	st.BytesSaved = st.Hits * c.rowBytes
	return st
}
