package hotcache

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"updlrm/internal/tensor"
)

// The decision golden: a fixed integer-Zipf stream of bags over three
// tables, with version bumps + invalidations every 16 bags and one
// shrink/re-grow, driven through a cache in per-table and in hashed
// mode. It pins every hit/miss/admit/reject/evict/invalidate decision
// and the bits of every served vector sum. testdata/decisions.golden
// was recorded with this driver at the last commit of the pointer-list
// cache (PR 13), through both its LookupOrOffer and its Lookup+Offer;
// the slab is held to it through ProbeBag and through the single-row
// wrappers. It has no update switch: the policy is not meant to move.

const (
	goldenDim    = 16
	goldenTables = 3
	goldenRows   = 2000
	goldenBags   = 4000
)

// bagFn probes one bag: hit vectors accumulate into acc in row order,
// missed rows append to cold.
type bagFn func(c *Cache, table int, rows []int32, acc []float32, cold []int32,
	fill func(row int32, dst []float32) uint64) ([]int32, BagCounts)

type goldenRNG uint64

func (r *goldenRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

// zipfCDF is an all-integer Zipf(s=1) cumulative table, so the stream
// is the same on every platform.
func zipfCDF(n int) []uint64 {
	cdf := make([]uint64, n)
	var sum uint64
	for i := range cdf {
		sum += (1 << 32) / uint64(i+1)
		cdf[i] = sum
	}
	return cdf
}

func zipfDraw(cdf []uint64, u uint64) int32 {
	u %= cdf[len(cdf)-1]
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(lo)
}

// runGolden drives the stream through c with the given bag probe and
// returns the one-line record the golden file holds.
func runGolden(t *testing.T, c *Cache, bag bagFn) string {
	t.Helper()
	cdf := zipfCDF(goldenRows)
	var versions [goldenTables][goldenRows]uint64
	fills := make([]func(row int32, dst []float32) uint64, goldenTables)
	for tb := range fills {
		fills[tb] = func(row int32, dst []float32) uint64 {
			ver := versions[tb][row]
			for i := range dst {
				dst[i] = float32(tb*1000) + float32(row%97) + float32(ver)*0.5 + float32(i)*0.25
			}
			return ver
		}
	}
	rng := goldenRNG(42)
	h := fnv.New64a()
	var word [4]byte
	put := func(v uint32) {
		word[0], word[1], word[2], word[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(word[:])
	}
	acc := make([]float32, goldenDim)
	var rows, cold []int32
	var total BagCounts
	capBytes := c.CapacityBytes()
	for b := 0; b < goldenBags; b++ {
		table := int(rng.next() % goldenTables)
		rows = rows[:0]
		for n := 1 + int(rng.next()%12); n > 0; n-- {
			rows = append(rows, zipfDraw(cdf, rng.next()))
		}
		clear(acc)
		var n BagCounts
		cold, n = bag(c, table, rows, acc, cold[:0], fills[table])
		total.Hits += n.Hits
		total.Misses += n.Misses
		total.Admitted += n.Admitted
		for _, v := range acc {
			put(math.Float32bits(v))
		}
		for _, r := range cold {
			put(uint32(r))
		}
		if b%16 == 15 {
			for i := 0; i < 4; i++ {
				tb := int(rng.next() % goldenTables)
				row := zipfDraw(cdf, rng.next())
				versions[tb][row]++
				c.Invalidate(tb, row, versions[tb][row])
			}
		}
		switch b {
		case goldenBags / 2:
			if _, err := c.Resize(capBytes / 2); err != nil {
				t.Fatal(err)
			}
		case 3 * goldenBags / 4:
			if _, err := c.Resize(capBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if total.Hits != st.Hits || total.Misses != st.Misses || total.Admitted != st.Admitted {
		t.Fatalf("bag counts %+v disagree with Stats %+v", total, st)
	}
	checkCache(t, c)
	return fmt.Sprintf("hits=%d misses=%d admitted=%d rejected=%d evicted=%d invalidations=%d entries=%d fnv=%016x",
		st.Hits, st.Misses, st.Admitted, st.Rejected, st.Evicted, st.Invalidations, st.Entries, h.Sum64())
}

func goldenCache(t *testing.T, mode string) *Cache {
	t.Helper()
	cfg := Config{CapacityBytes: 120 * (goldenDim*4 + EntryOverheadBytes), Seed: 7}
	switch mode {
	case "tables":
		cfg.Tables = goldenTables
	case "hashed":
		cfg.Shards = 4
	}
	c, err := New(cfg, goldenDim)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bagSingleRow is ProbeBag spelled with the single-row wrappers.
func bagSingleRow(c *Cache, table int, rows []int32, acc []float32, cold []int32,
	fill func(row int32, dst []float32) uint64) ([]int32, BagCounts) {
	var n BagCounts
	vec := make([]float32, len(acc))
	for _, row := range rows {
		if c.Lookup(table, row, vec) {
			tensor.Add(vec, acc)
			n.Hits++
			continue
		}
		n.Misses++
		if c.Offer(table, row, func(dst []float32) uint64 { return fill(row, dst) }) {
			n.Admitted++
		}
		cold = append(cold, row)
	}
	return cold, n
}

func TestDecisionGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		mode, record, _ := strings.Cut(line, " ")
		want[mode] = record
	}
	for _, mode := range []string{"tables", "hashed"} {
		for name, bag := range map[string]bagFn{"ProbeBag": (*Cache).ProbeBag, "Lookup+Offer": bagSingleRow} {
			if got := runGolden(t, goldenCache(t, mode), bag); got != want[mode] {
				t.Errorf("%s through %s:\n got %s\nwant %s", mode, name, got, want[mode])
			}
		}
	}
}
