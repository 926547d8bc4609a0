// Package emt models DLRM embedding tables (EMTs) and the multi-hot
// lookup-and-reduce ("embedding bag") operation that dominates DLRM
// inference (paper §2.1).
//
// Two storage backends implement the Table interface:
//
//   - DenseTable keeps real float32 rows in memory — the natural choice for
//     examples and tests.
//   - ProceduralTable derives every value from a hash of (seed, row, col),
//     which lets full paper-scale tables (6M rows x 32 dims x 8 tables)
//     "exist" in O(1) memory. The UPMEM simulator charges timing for the
//     bytes a real MRAM would move while values come from the generator, so
//     functional results remain verifiable against the CPU reference.
package emt

import (
	"fmt"
	"math"
)

// BytesPerElem is the size of one embedding element. The paper assumes
// 32-bit feature values throughout (§3.1).
const BytesPerElem = 4

// Table is a read-only embedding table of Rows() vectors of Dim() float32s.
type Table interface {
	// Rows returns the number of embedding vectors (distinct categorical
	// values, "#Items" in Table 1).
	Rows() int
	// Dim returns the embedding dimension (32 in the paper's evaluation).
	Dim() int
	// ReadCols copies cols values of row starting at column col0 into dst.
	// It panics if the range is out of bounds or len(dst) < cols.
	ReadCols(row, col0, cols int, dst []float32)
}

// ReadRow copies the full row into dst (len >= Dim()).
func ReadRow(t Table, row int, dst []float32) {
	t.ReadCols(row, 0, t.Dim(), dst)
}

// SizeBytes returns the storage footprint of a table: Rows * Dim * 4B.
func SizeBytes(t Table) int64 {
	return int64(t.Rows()) * int64(t.Dim()) * BytesPerElem
}

func checkRange(rows, dim, row, col0, cols int, dst []float32) {
	if row < 0 || row >= rows {
		panic(fmt.Sprintf("emt: row %d out of range [0,%d)", row, rows))
	}
	if col0 < 0 || cols < 0 || col0+cols > dim {
		panic(fmt.Sprintf("emt: cols [%d,%d) out of range [0,%d)", col0, col0+cols, dim))
	}
	if len(dst) < cols {
		panic(fmt.Sprintf("emt: dst len %d < cols %d", len(dst), cols))
	}
}

// DenseTable stores rows contiguously in memory.
type DenseTable struct {
	rows, dim int
	data      []float32
	// versions counts ApplyDelta calls per row; nil until the first
	// write (see mutable.go).
	versions []uint64
}

// NewDense allocates a zeroed rows x dim table.
func NewDense(rows, dim int) *DenseTable {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("emt: invalid dense table shape %dx%d", rows, dim))
	}
	return &DenseTable{rows: rows, dim: dim, data: make([]float32, rows*dim)}
}

// Rows implements Table.
func (t *DenseTable) Rows() int { return t.rows }

// Dim implements Table.
func (t *DenseTable) Dim() int { return t.dim }

// ReadCols implements Table.
func (t *DenseTable) ReadCols(row, col0, cols int, dst []float32) {
	checkRange(t.rows, t.dim, row, col0, cols, dst)
	base := row * t.dim
	copy(dst[:cols], t.data[base+col0:base+col0+cols])
}

// Row returns the storage for row as a mutable slice (for initialization).
func (t *DenseTable) Row(row int) []float32 {
	return t.data[row*t.dim : (row+1)*t.dim]
}

// ProceduralTable computes values on demand from a 64-bit mix of
// (seed, row, col). Values are uniform in [-0.05, 0.05), the usual scale
// for embedding initialization, so reductions stay well-conditioned even
// for reduction degrees in the hundreds.
type ProceduralTable struct {
	rows, dim int
	seed      uint64
}

// NewProcedural returns a procedural table.
func NewProcedural(rows, dim int, seed uint64) *ProceduralTable {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("emt: invalid procedural table shape %dx%d", rows, dim))
	}
	return &ProceduralTable{rows: rows, dim: dim, seed: seed}
}

// Rows implements Table.
func (t *ProceduralTable) Rows() int { return t.rows }

// Dim implements Table.
func (t *ProceduralTable) Dim() int { return t.dim }

// mix is a strong 64-bit finalizer (SplitMix64 style).
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valueAt returns the deterministic element at (row, col).
func (t *ProceduralTable) valueAt(row, col int) float32 {
	h := mix(t.seed ^ mix(uint64(row)*0x9e3779b97f4a7c15^uint64(col)+0x632be59bd9b4e019))
	// Map the top 24 bits to [-0.05, 0.05).
	u := float64(h>>40) / (1 << 24) // [0,1)
	return float32((u - 0.5) * 0.1)
}

// ReadCols implements Table. It is valueAt over the window with the
// range checked once, the row's term computed once and both mix rounds
// inlined — the generator is what every simulated MRAM read, hot-cache
// fill and CPU-reference bag pays per element.
func (t *ProceduralTable) ReadCols(row, col0, cols int, dst []float32) {
	checkRange(t.rows, t.dim, row, col0, cols, dst)
	rowTerm := uint64(row) * 0x9e3779b97f4a7c15
	seed := t.seed
	dst = dst[:cols]
	for c := range dst {
		x := rowTerm ^ uint64(col0+c) + 0x632be59bd9b4e019
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		x ^= seed
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		u := float64(x>>40) / (1 << 24)
		dst[c] = float32((u - 0.5) * 0.1)
	}
}

// Bag performs the CPU-reference embedding-bag operation: it sums the
// embedding vectors of all indices into out (len == Dim). This is the
// operation UpDLRM offloads to DPUs; the engine's tests check the offloaded
// result against Bag.
func Bag(t Table, indices []int, out []float32) {
	if len(out) != t.Dim() {
		panic(fmt.Sprintf("emt: Bag out len %d != dim %d", len(out), t.Dim()))
	}
	for i := range out {
		out[i] = 0
	}
	buf := make([]float32, t.Dim())
	for _, idx := range indices {
		ReadRow(t, idx, buf)
		for i := range out {
			out[i] += buf[i]
		}
	}
}

// BagInto is like Bag but reuses the caller-provided scratch buffer
// (len >= Dim) to avoid per-call allocation in hot loops.
func BagInto(t Table, indices []int, out, scratch []float32) {
	if len(out) != t.Dim() {
		panic(fmt.Sprintf("emt: BagInto out len %d != dim %d", len(out), t.Dim()))
	}
	if len(scratch) < t.Dim() {
		panic(fmt.Sprintf("emt: BagInto scratch len %d < dim %d", len(scratch), t.Dim()))
	}
	for i := range out {
		out[i] = 0
	}
	for _, idx := range indices {
		t.ReadCols(idx, 0, t.Dim(), scratch)
		for i := range out {
			out[i] += scratch[i]
		}
	}
}

// FillRandom initializes a dense table with uniform values in
// [-scale, scale) using the deterministic generator behind seed.
func FillRandom(t *DenseTable, seed uint64, scale float32) {
	s := mix(seed)
	for i := range t.data {
		s = mix(s + 0x9e3779b97f4a7c15)
		u := float64(s>>40) / (1 << 24)
		t.data[i] = float32((2*u - 1)) * scale
	}
}

// Validate sanity-checks a table's shape against NaN/Inf in a sample of
// rows. It is cheap and used by engine constructors to fail fast on broken
// custom backends.
func Validate(t Table) error {
	if t.Rows() <= 0 || t.Dim() <= 0 {
		return fmt.Errorf("emt: invalid table shape %dx%d", t.Rows(), t.Dim())
	}
	buf := make([]float32, t.Dim())
	probe := []int{0, t.Rows() / 2, t.Rows() - 1}
	for _, row := range probe {
		ReadRow(t, row, buf)
		for c, v := range buf {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("emt: non-finite value at (%d,%d)", row, c)
			}
		}
	}
	return nil
}
