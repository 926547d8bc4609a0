package hotcache

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// checkSlab verifies that one segment's index, LRU list, free list and
// spare describe the same slab. Caller holds sh.mu.
func checkSlab(sh *shard) error {
	slots := len(sh.keys)
	if slots != sh.capacity+1 || len(sh.vecs) != slots*sh.dim {
		return fmt.Errorf("slab holds %d slots for capacity %d", slots, sh.capacity)
	}
	if sh.n > sh.capacity {
		return fmt.Errorf("%d residents exceed capacity %d", sh.n, sh.capacity)
	}
	role := make([]byte, slots) // 'r'esident, 'f'ree, 's'pare
	walked, prev := 0, noSlot
	for s := sh.head; s != noSlot; s = sh.next[s] {
		if role[s] != 0 {
			return fmt.Errorf("LRU list revisits slot %d", s)
		}
		role[s] = 'r'
		if sh.prev[s] != prev {
			return fmt.Errorf("slot %d prev = %d, want %d", s, sh.prev[s], prev)
		}
		if got := sh.find(sh.keys[s]); got != s {
			return fmt.Errorf("index finds key %#x in slot %d, LRU has it in %d", sh.keys[s], got, s)
		}
		prev = s
		walked++
	}
	if walked != sh.n || sh.tail != prev {
		return fmt.Errorf("LRU walk: %d slots ending at %d; n = %d, tail = %d", walked, prev, sh.n, sh.tail)
	}
	cells := 0
	for _, s := range sh.index {
		if s != noSlot {
			cells++
		}
	}
	if cells != sh.n {
		return fmt.Errorf("index holds %d cells for %d residents", cells, sh.n)
	}
	for s := sh.free; s != noSlot; s = sh.next[s] {
		if role[s] != 0 {
			return fmt.Errorf("free list reaches slot %d twice or through the LRU", s)
		}
		role[s] = 'f'
	}
	if role[sh.spare] != 0 {
		return fmt.Errorf("spare slot %d is also %c", sh.spare, role[sh.spare])
	}
	role[sh.spare] = 's'
	for s, r := range role {
		if r == 0 {
			return fmt.Errorf("slot %d is neither resident, free nor spare", s)
		}
	}
	return nil
}

// checkCache runs checkSlab over every segment.
func checkCache(t *testing.T, c *Cache) {
	t.Helper()
	for i, sh := range c.shards {
		sh.mu.Lock()
		err := checkSlab(sh)
		sh.mu.Unlock()
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
}

// rowFill writes a vector recognizable by row.
func rowFill(row int32, dst []float32) uint64 {
	for i := range dst {
		dst[i] = float32(row) + float32(i)/100
	}
	return 0
}

// TestProbeBag covers the hot-path operation: a miss runs the admission
// duel under the same lock, a hit adds the stored vector to acc, a row
// admitted early in a bag is resident for its later occurrences (so k
// occurrences of a resident row count k hits), and the returned counts
// match Stats.
func TestProbeBag(t *testing.T) {
	const dim = 4
	c := newTestCache(t, 8*(dim*4+EntryOverheadBytes), 1, dim)
	acc := make([]float32, dim)

	cold, n := c.ProbeBag(0, []int32{3, 5, 3, 3}, acc, nil, rowFill)
	if want := (BagCounts{Hits: 2, Misses: 2, Admitted: 2}); n != want {
		t.Fatalf("first bag: %+v, want %+v", n, want)
	}
	if len(cold) != 2 || cold[0] != 3 || cold[1] != 5 {
		t.Fatalf("cold = %v, want [3 5]", cold)
	}
	want := make([]float32, dim)
	rowFill(3, want)
	for i := range want {
		if acc[i] != want[i]+want[i] {
			t.Fatalf("acc[%d] = %v, want two copies of row 3 (%v)", i, acc[i], 2*want[i])
		}
	}
	cold, n = c.ProbeBag(0, []int32{5, 3}, acc, cold[:0],
		func(int32, []float32) uint64 { t.Fatal("fill on a hit"); return 0 })
	if want := (BagCounts{Hits: 2}); n != want || len(cold) != 0 {
		t.Fatalf("second bag: %+v cold %v, want two hits", n, cold)
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 2 || st.Admitted != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if cold, n = c.ProbeBag(0, nil, acc, cold[:0], rowFill); len(cold) != 0 || n != (BagCounts{}) {
		t.Fatalf("empty bag: %+v cold %v", n, cold)
	}
	checkCache(t, c)

	// Nil cache: every row is cold, nothing is counted or filled.
	var nilCache *Cache
	cold, n = nilCache.ProbeBag(0, []int32{1, 2}, acc, nil,
		func(int32, []float32) uint64 { t.Fatal("nil cache filled"); return 0 })
	if len(cold) != 2 || n != (BagCounts{}) {
		t.Fatalf("nil cache: %+v cold %v", n, cold)
	}
}

// TestBadFillSparesTheVictim: a corrupt row offered to a full segment
// must not displace a healthy resident. The fill lands in the spare
// slot, fails validation there, and the LRU victim keeps its place and
// its vector.
func TestBadFillSparesTheVictim(t *testing.T) {
	const dim, rows = 4, 4
	c := newTestCache(t, rows*(dim*4+EntryOverheadBytes), 1, dim)
	acc := make([]float32, dim)
	for r := int32(0); r < rows; r++ {
		c.ProbeBag(0, []int32{r}, acc, nil, rowFill)
	}
	// Row 0 is now the LRU victim. Make the candidate beat it in the duel.
	bad := int32(99)
	for i := 0; i < 8; i++ {
		c.Lookup(0, bad, acc)
	}
	before := c.Stats()
	if before.Entries != rows || before.Entries != before.CapacityEntries {
		t.Fatalf("segment not full: %+v", before)
	}
	filled := false
	if c.Offer(0, bad, func(dst []float32) uint64 {
		filled = true
		dst[1] = float32(math.Inf(1))
		return 0
	}) {
		t.Fatal("Inf row was admitted")
	}
	if !filled {
		t.Fatal("candidate lost the duel; the test did not reach the fill")
	}
	after := c.Stats()
	if after.Entries != before.Entries || after.Evicted != before.Evicted {
		t.Fatalf("bad fill moved residents: before %+v after %+v", before, after)
	}
	if after.BadFills != 1 || after.NegativeEntries != 1 {
		t.Fatalf("bad row not marked: %+v", after)
	}
	got, want := make([]float32, dim), make([]float32, dim)
	if !c.Lookup(0, 0, got) {
		t.Fatal("the victim was evicted by a fill that failed validation")
	}
	rowFill(0, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("victim vector[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	checkCache(t, c)
}

// TestSteadyStateAllocatesNothing: on a full segment, a cycle of bag
// probes that hit, admit and evict, single-row lookups and offers, and
// invalidations performs no heap allocation.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, mode := range []string{"tables", "hashed"} {
		t.Run(mode, func(t *testing.T) {
			c := goldenCache(t, mode)
			acc := make([]float32, goldenDim)
			cold := make([]int32, 0, 16)
			bag := make([]int32, 12)
			offer := func(dst []float32) uint64 { return rowFill(7, dst) }
			next := int32(0)
			cycle := func() {
				// Two fresh rows, each repeated until its estimate wins the
				// duel, then two rows an earlier cycle admitted. One
				// invalidation per cycle keeps a net inflow, so the segment
				// fills and then evicts.
				a, b := 2*next, 2*next+1
				for i := 0; i < 5; i++ {
					bag[i], bag[5+i] = a, b
				}
				bag[10], bag[11] = a-2, b-2
				cold, _ = c.ProbeBag(1, bag, acc, cold[:0], rowFill)
				c.Lookup(1, a-4, acc)
				c.Offer(1, 7, offer)
				c.Invalidate(1, b-6, 1)
				next++
			}
			for i := 0; i < 200; i++ {
				cycle() // fill the segment
			}
			before := c.Stats()
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("%v allocations per cycle, want 0", allocs)
			}
			after := c.Stats()
			if after.Hits == before.Hits || after.Admitted == before.Admitted ||
				after.Evicted == before.Evicted || after.Invalidations == before.Invalidations {
				t.Fatalf("the cycle did not hit, admit, evict and invalidate: before %+v after %+v", before, after)
			}
			checkCache(t, c)
		})
	}
}

// TestStressProbeInvalidateResizeRebalance runs bag probes from several
// goroutines against concurrent version bumps + invalidations, Resize
// and Rebalance, and asserts what the serving tier relies on: no bag is
// ever served a vector older than a version whose invalidation had
// already returned, residents never exceed capacity, and the slab stays
// consistent. Run under -race at -cpu 4.
func TestStressProbeInvalidateResizeRebalance(t *testing.T) {
	const (
		tables  = 3
		rows    = 64
		dim     = 4
		readers = 4
		writes  = 3000
	)
	for _, mode := range []string{"tables", "hashed"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{CapacityBytes: 96 * (dim*4 + EntryOverheadBytes), Shards: 4, Seed: 3}
			if mode == "tables" {
				cfg.Tables = tables
			}
			c, err := New(cfg, dim)
			if err != nil {
				t.Fatal(err)
			}
			// current is a row's live version (what a fill reads);
			// invalidated is the highest version whose Invalidate returned.
			var current, invalidated [tables][rows]atomic.Uint64
			var stale, bags atomic.Int64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := goldenRNG(seed)
					acc := make([]float32, dim)
					var cold []int32
					for {
						select {
						case <-stop:
							return
						default:
						}
						table := int(rng.next() % tables)
						// One row k times over: every hit adds the same
						// vector, so acc[0] / hits is the version served.
						row := int32(rng.next() % rows)
						bag := []int32{row, row, row}[:1+rng.next()%3]
						floor := invalidated[table][row].Load()
						clear(acc)
						var n BagCounts
						cold, n = c.ProbeBag(table, bag, acc, cold[:0], func(row int32, dst []float32) uint64 {
							ver := current[table][row].Load()
							for i := range dst {
								dst[i] = float32(ver)
							}
							return ver
						})
						if n.Hits > 0 && uint64(acc[0])/uint64(n.Hits) < floor {
							stale.Add(1)
						}
						bags.Add(1)
						runtime.Gosched()
					}
				}(uint64(r + 1))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				budgets := []int64{cfg.CapacityBytes / 4, cfg.CapacityBytes, cfg.CapacityBytes / 16, cfg.CapacityBytes * 2}
				weights := [][]float64{{8, 1, 1}, {1, 1, 1}, {0, 5, 1}}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Resize(budgets[i%len(budgets)]); err != nil {
						t.Error(err)
						return
					}
					if _, err := c.Rebalance(weights[i%len(weights)]); err != nil {
						t.Error(err)
						return
					}
					if st := c.Stats(); st.Entries > st.CapacityEntries {
						t.Errorf("entries %d exceed capacity %d", st.Entries, st.CapacityEntries)
						return
					}
					runtime.Gosched()
				}
			}()
			rng := goldenRNG(0xdead)
			// Keep writing until the readers have had their share too.
			// Every party yields each round, so one CPU interleaves them
			// as finely as four do.
			for i := 0; i < writes || bags.Load() < writes; i++ {
				table, row := int(rng.next()%tables), int32(rng.next()%rows)
				ver := current[table][row].Add(1)
				c.Invalidate(table, row, ver)
				invalidated[table][row].Store(ver)
				runtime.Gosched()
			}
			close(stop)
			wg.Wait()
			if n := stale.Load(); n != 0 {
				t.Fatalf("%d bags were served a version already invalidated", n)
			}
			checkCache(t, c)
			if st := c.Stats(); st.Entries > st.CapacityEntries || st.Hits == 0 || st.Invalidations == 0 {
				t.Fatalf("stats after stress: %+v", st)
			}
		})
	}
}
