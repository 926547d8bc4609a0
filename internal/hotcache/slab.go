package hotcache

import "sync"

// noSlot is the nil of slot numbers: list ends, empty index cells, a
// missed find.
const noSlot int32 = -1

// counters is one set of cache event counts: a segment's running
// totals, and the delta a single call accumulates before settling it.
type counters struct {
	hits, misses                int64
	admitted, rejected, evicted int64
	invalidations               int64
	badFills, negHits           int64
}

func (c *counters) add(d *counters) {
	c.hits += d.hits
	c.misses += d.misses
	c.admitted += d.admitted
	c.rejected += d.rejected
	c.evicted += d.evicted
	c.invalidations += d.invalidations
	c.badFills += d.badFills
	c.negHits += d.negHits
}

// shard is one independently locked cache segment. Its rows live in a
// slab: capacity+1 fixed vector slots in one []float32, with the key,
// version and LRU links of slot s at index s of parallel arrays, found
// through an open-addressing table of slot numbers. Nothing in it holds
// a pointer, so a warm segment allocates nothing and the collector has
// nothing to trace. One slot beyond capacity is always kept out of the
// LRU as the spare: an admission fills and validates there before any
// resident is displaced, and the displaced row's slot becomes the next
// spare.
type shard struct {
	mu  sync.Mutex
	dim int
	// seed perturbs the index hash.
	seed uint64
	// capacity is the most rows the segment may hold; n how many it does.
	capacity, n int

	vecs     []float32 // (capacity+1) x dim
	keys     []uint64
	versions []uint64 // row version each fill observed
	// prev/next link resident slots into the LRU list (head most
	// recently used, tail the eviction candidate); free slots are
	// chained through next from free.
	prev, next  []int32
	head, tail  int32
	free, spare int32
	index       []int32 // power-of-two open-addressing table, load <= 1/2
	sketch      *sketch
	// neg remembers rows whose fill failed validation (key -> version at
	// failure) so repeated bad-row offers short-circuit. Bounded by
	// negCap; cleared wholesale when full (epoch reset).
	neg    map[uint64]uint64
	negCap int

	counts counters
}

// newShard builds one cache segment holding up to capacity rows.
func newShard(capacity, dim int, seed, sketchSeed uint64) *shard {
	sh := &shard{
		dim:    dim,
		seed:   seed,
		head:   noSlot,
		sketch: newSketch(capacity, sketchSeed),
	}
	sh.reslab(capacity)
	return sh
}

// reslab moves the segment into fresh storage sized for capacity rows,
// keeping the residents (already no more than capacity) and their LRU
// order. Caller holds mu, except at construction.
func (sh *shard) reslab(capacity int) {
	slots := capacity + 1
	oldVecs, oldKeys, oldVersions, oldNext := sh.vecs, sh.keys, sh.versions, sh.next
	sh.vecs = make([]float32, slots*sh.dim)
	sh.keys = make([]uint64, slots)
	sh.versions = make([]uint64, slots)
	sh.prev = make([]int32, slots)
	sh.next = make([]int32, slots)
	cells := 4
	for cells < 2*slots {
		cells <<= 1
	}
	sh.index = make([]int32, cells)
	for i := range sh.index {
		sh.index[i] = noSlot
	}
	// Residents pack into slots 0..n-1 in recency order.
	n := int32(0)
	for s := sh.head; s != noSlot; s = oldNext[s] {
		copy(sh.vec(n), oldVecs[int(s)*sh.dim:int(s+1)*sh.dim])
		sh.keys[n], sh.versions[n] = oldKeys[s], oldVersions[s]
		sh.prev[n], sh.next[n] = n-1, n+1
		sh.indexPut(oldKeys[s], n)
		n++
	}
	sh.head, sh.tail = noSlot, noSlot
	if n > 0 {
		sh.head, sh.tail = 0, n-1
		sh.next[n-1] = noSlot
	}
	sh.spare = n
	sh.free = noSlot
	for s := int32(slots) - 1; s > n; s-- {
		sh.next[s] = sh.free
		sh.free = s
	}
	sh.capacity = capacity
	sh.negCap = max(capacity, 64)
	if len(sh.neg) > sh.negCap {
		sh.neg = nil // epoch reset, as the admission path does
	}
}

// vec is slot s's vector storage.
func (sh *shard) vec(s int32) []float32 {
	return sh.vecs[int(s)*sh.dim : int(s+1)*sh.dim : int(s+1)*sh.dim]
}

// home is the index cell key k hashes to. It takes the hash's high
// half, so it stays independent of the low bits that route hashed
// shards.
func (sh *shard) home(k uint64) int {
	return int(mix64(k^sh.seed)>>32) & (len(sh.index) - 1)
}

// find returns the slot holding key k, or noSlot.
func (sh *shard) find(k uint64) int32 {
	mask := len(sh.index) - 1
	for i := sh.home(k); ; i = (i + 1) & mask {
		if s := sh.index[i]; s == noSlot || sh.keys[s] == k {
			return s
		}
	}
}

// indexPut records that slot s holds key k (k must be absent).
func (sh *shard) indexPut(k uint64, s int32) {
	mask := len(sh.index) - 1
	i := sh.home(k)
	for sh.index[i] != noSlot {
		i = (i + 1) & mask
	}
	sh.index[i] = s
}

// indexDel forgets key k (which must be present), shifting the cells
// that probed past it back so no tombstone is left behind.
func (sh *shard) indexDel(k uint64) {
	mask := len(sh.index) - 1
	i := sh.home(k)
	for sh.keys[sh.index[i]] != k {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.index[j] != noSlot; j = (j + 1) & mask {
		// The cell at j may move back to the hole at i unless its home
		// lies cyclically in (i, j].
		if h := sh.home(sh.keys[sh.index[j]]); (j-h)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = noSlot
}

// insert makes slot s, already holding its vector, the most-recently-
// used resident for key k.
func (sh *shard) insert(s int32, k, version uint64) {
	sh.keys[s], sh.versions[s] = k, version
	sh.indexPut(k, s)
	sh.pushFront(s)
	sh.n++
}

// remove drops resident slot s from the index and the LRU list; the
// caller decides whether the slot becomes free or the spare.
func (sh *shard) remove(s int32) {
	sh.indexDel(sh.keys[s])
	sh.unlink(s)
	sh.n--
}

// release returns an unlinked slot to the free list.
func (sh *shard) release(s int32) {
	sh.next[s] = sh.free
	sh.free = s
}

// pushFront links s as the most-recently-used slot.
func (sh *shard) pushFront(s int32) {
	sh.prev[s], sh.next[s] = noSlot, sh.head
	if sh.head != noSlot {
		sh.prev[sh.head] = s
	}
	sh.head = s
	if sh.tail == noSlot {
		sh.tail = s
	}
}

// unlink removes s from the LRU list.
func (sh *shard) unlink(s int32) {
	p, n := sh.prev[s], sh.next[s]
	if p != noSlot {
		sh.next[p] = n
	} else {
		sh.head = n
	}
	if n != noSlot {
		sh.prev[n] = p
	} else {
		sh.tail = p
	}
}

// moveToFront refreshes s's recency.
func (sh *shard) moveToFront(s int32) {
	if sh.head != s {
		sh.unlink(s)
		sh.pushFront(s)
	}
}
