package emt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDenseTableBasics(t *testing.T) {
	tb := NewDense(4, 3)
	if tb.Rows() != 4 || tb.Dim() != 3 {
		t.Fatalf("shape = %dx%d", tb.Rows(), tb.Dim())
	}
	copy(tb.Row(2), []float32{1, 2, 3})
	dst := make([]float32, 3)
	ReadRow(tb, 2, dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("ReadRow = %v", dst)
	}
	part := make([]float32, 2)
	tb.ReadCols(2, 1, 2, part)
	if part[0] != 2 || part[1] != 3 {
		t.Fatalf("ReadCols = %v", part)
	}
	if got := SizeBytes(tb); got != 4*3*4 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestDenseTablePanics(t *testing.T) {
	tb := NewDense(2, 2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"row high", func() { tb.ReadCols(2, 0, 1, make([]float32, 1)) }},
		{"row negative", func() { tb.ReadCols(-1, 0, 1, make([]float32, 1)) }},
		{"col past end", func() { tb.ReadCols(0, 1, 2, make([]float32, 2)) }},
		{"dst short", func() { tb.ReadCols(0, 0, 2, make([]float32, 1)) }},
		{"bad shape", func() { NewDense(0, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestProceduralDeterministicAndSeedSensitive(t *testing.T) {
	a := NewProcedural(100, 8, 42)
	b := NewProcedural(100, 8, 42)
	c := NewProcedural(100, 8, 43)
	bufA := make([]float32, 8)
	bufB := make([]float32, 8)
	bufC := make([]float32, 8)
	diff := false
	for row := 0; row < 100; row += 7 {
		ReadRow(a, row, bufA)
		ReadRow(b, row, bufB)
		ReadRow(c, row, bufC)
		for i := range bufA {
			if bufA[i] != bufB[i] {
				t.Fatalf("same-seed tables differ at (%d,%d)", row, i)
			}
			if bufA[i] != bufC[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatalf("different seeds produced identical tables")
	}
}

func TestProceduralValueRange(t *testing.T) {
	tb := NewProcedural(1000, 16, 7)
	buf := make([]float32, 16)
	var minV, maxV float32 = 1, -1
	for row := 0; row < 1000; row += 13 {
		ReadRow(tb, row, buf)
		for _, v := range buf {
			if v < -0.05 || v >= 0.05 {
				t.Fatalf("value %v outside [-0.05, 0.05)", v)
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	// The range should actually be exercised, not collapse to a constant.
	if maxV-minV < 0.05 {
		t.Fatalf("values span too small: [%v, %v]", minV, maxV)
	}
}

func TestProceduralColumnSlicesConsistent(t *testing.T) {
	// Reading a row in column slices must equal reading it whole — the
	// UPMEM tiles depend on this.
	tb := NewProcedural(50, 32, 99)
	whole := make([]float32, 32)
	ReadRow(tb, 17, whole)
	for _, nc := range []int{2, 4, 8, 16} {
		part := make([]float32, nc)
		for col0 := 0; col0 < 32; col0 += nc {
			tb.ReadCols(17, col0, nc, part)
			for i := 0; i < nc; i++ {
				if part[i] != whole[col0+i] {
					t.Fatalf("nc=%d col0=%d: slice %v != whole %v", nc, col0, part[i], whole[col0+i])
				}
			}
		}
	}
}

// TestProceduralReadColsMatchesValueAt: the bulk path is valueAt, bit
// for bit, over every (row, col0, cols) window of a small table — and
// writes nothing past the window.
func TestProceduralReadColsMatchesValueAt(t *testing.T) {
	const rows, dim = 37, 11
	for _, seed := range []uint64{0, 1, 0xdeadbeefcafef00d} {
		tb := NewProcedural(rows, dim, seed)
		dst := make([]float32, dim+1)
		for row := 0; row < rows; row++ {
			for col0 := 0; col0 <= dim; col0++ {
				for cols := 0; col0+cols <= dim; cols++ {
					sentinel := float32(math.Inf(1))
					for i := range dst {
						dst[i] = sentinel
					}
					tb.ReadCols(row, col0, cols, dst)
					for c := 0; c < cols; c++ {
						if want := tb.valueAt(row, col0+c); math.Float32bits(dst[c]) != math.Float32bits(want) {
							t.Fatalf("seed %x ReadCols(%d,%d,%d)[%d] = %v, valueAt = %v", seed, row, col0, cols, c, dst[c], want)
						}
					}
					for i := cols; i < len(dst); i++ {
						if dst[i] != sentinel {
							t.Fatalf("seed %x ReadCols(%d,%d,%d) wrote dst[%d]", seed, row, col0, cols, i)
						}
					}
				}
			}
		}
	}
	// Out-of-range windows still panic.
	tb := NewProcedural(rows, dim, 1)
	for _, bad := range [][3]int{{-1, 0, 1}, {rows, 0, 1}, {0, -1, 1}, {0, 0, dim + 1}, {0, dim, 1}, {0, 0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReadCols(%d,%d,%d) did not panic", bad[0], bad[1], bad[2])
				}
			}()
			tb.ReadCols(bad[0], bad[1], bad[2], make([]float32, dim+1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ReadCols into a short dst did not panic")
			}
		}()
		tb.ReadCols(0, 0, 4, make([]float32, 3))
	}()
}

func TestBagMatchesManualSum(t *testing.T) {
	tb := NewDense(5, 3)
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			tb.Row(r)[c] = float32(r*10 + c)
		}
	}
	out := make([]float32, 3)
	Bag(tb, []int{1, 3, 3}, out)
	// rows 1,3,3: (10,11,12)+(30,31,32)+(30,31,32) = (70,73,76)
	if out[0] != 70 || out[1] != 73 || out[2] != 76 {
		t.Fatalf("Bag = %v", out)
	}
	// Empty bag yields zeros.
	Bag(tb, nil, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Fatalf("empty Bag = %v", out)
	}
}

func TestBagIntoMatchesBag(t *testing.T) {
	tb := NewProcedural(200, 8, 5)
	idx := []int{3, 77, 3, 199, 0, 42}
	a := make([]float32, 8)
	b := make([]float32, 8)
	scratch := make([]float32, 8)
	Bag(tb, idx, a)
	BagInto(tb, idx, b, scratch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BagInto differs: %v vs %v", a, b)
		}
	}
}

// Property: Bag is order-invariant and additive over index multiset splits.
func TestBagPropertiesQuick(t *testing.T) {
	tb := NewProcedural(64, 4, 11)
	f := func(rawIdx []uint8, splitRaw uint8) bool {
		idx := make([]int, len(rawIdx))
		for i, v := range rawIdx {
			idx[i] = int(v) % 64
		}
		out := make([]float32, 4)
		Bag(tb, idx, out)
		// Reversed order.
		rev := make([]int, len(idx))
		for i, v := range idx {
			rev[len(idx)-1-i] = v
		}
		outRev := make([]float32, 4)
		Bag(tb, rev, outRev)
		for i := range out {
			if math.Abs(float64(out[i]-outRev[i])) > 1e-4 {
				return false
			}
		}
		// Split additivity: Bag(idx) ~= Bag(idx[:k]) + Bag(idx[k:]).
		if len(idx) == 0 {
			return true
		}
		k := int(splitRaw) % (len(idx) + 1)
		left := make([]float32, 4)
		right := make([]float32, 4)
		Bag(tb, idx[:k], left)
		Bag(tb, idx[k:], right)
		for i := range out {
			if math.Abs(float64(out[i]-(left[i]+right[i]))) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := NewDense(10, 4)
	b := NewDense(10, 4)
	FillRandom(a, 3, 0.1)
	FillRandom(b, 3, 0.1)
	for i := range a.data {
		if a.data[i] != b.data[i] {
			t.Fatalf("FillRandom not deterministic at %d", i)
		}
		if a.data[i] < -0.1 || a.data[i] >= 0.1 {
			t.Fatalf("FillRandom value %v outside scale", a.data[i])
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(NewProcedural(10, 4, 1)); err != nil {
		t.Fatalf("Validate procedural: %v", err)
	}
	d := NewDense(3, 2)
	if err := Validate(d); err != nil {
		t.Fatalf("Validate dense: %v", err)
	}
	d.Row(1)[0] = float32(math.NaN())
	if err := Validate(d); err == nil {
		t.Fatalf("Validate must reject NaN")
	}
	d.Row(1)[0] = float32(math.Inf(1))
	if err := Validate(d); err == nil {
		t.Fatalf("Validate must reject Inf")
	}
}

func TestBagPanicsOnBadOut(t *testing.T) {
	tb := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for short out")
		}
	}()
	Bag(tb, []int{0}, make([]float32, 2))
}
