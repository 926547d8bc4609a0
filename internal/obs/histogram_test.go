package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// linearBucket is the linear scan Observe used before its binary
// search: the first bound the value does not exceed.
func linearBucket(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// TestHistogramBucketPlacement pins where an observation lands: bounds
// are inclusive upper bounds, anything below the first bound goes to
// bucket 0, anything above the last to the +Inf overflow — and the
// binary search agrees with the linear scan everywhere.
func TestHistogramBucketPlacement(t *testing.T) {
	bounds := []float64{10, 100, 1000}
	cases := []struct {
		name string
		v    float64
		want int
	}{
		{"below first bound", 3, 0},
		{"negative", -5, 0},
		{"-Inf", math.Inf(-1), 0},
		{"equal to first bound", 10, 0},
		{"just above first bound", 10.0001, 1},
		{"equal to middle bound", 100, 1},
		{"inside last bucket", 999, 2},
		{"equal to last bound", 1000, 2},
		{"overflow", 1000.5, 3},
		{"+Inf overflow", math.Inf(1), 3},
		{"NaN", math.NaN(), 0},
	}
	h := NewRegistry().Histogram("placement", "", bounds)
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("%s: bucket(%g) = %d, want %d", c.name, c.v, got, c.want)
		}
		if ref := linearBucket(bounds, c.v); ref != c.want {
			t.Errorf("%s: linear scan puts %g in %d, want %d", c.name, c.v, ref, c.want)
		}
	}

	// Every bound, its neighbours and random values on a fine latency
	// grid: the search and the scan agree.
	fine := NewRegistry().Histogram("fine", "", ExpBuckets(1e3, math.Pow(2, 0.25), 81))
	probe := func(v float64) {
		if got, want := fine.bucket(v), linearBucket(fine.bounds, v); got != want {
			t.Fatalf("bucket(%g) = %d, linear scan %d", v, got, want)
		}
	}
	for _, b := range fine.bounds {
		probe(b)
		probe(math.Nextafter(b, math.Inf(-1)))
		probe(math.Nextafter(b, math.Inf(1)))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		probe(math.Exp(rng.Float64() * 25))
	}
}

// TestHistogramQuantileErrorBound pins the error of bucketed quantiles
// against exact nearest-rank percentiles on a latency-shaped bucket
// grid (1 µs to ~1.05 s, factor 2^(1/4)): the estimate lies in the
// bucket holding the exact value, so it is off by less than that
// bucket's width — under 2^(1/4)-1 ≈ 19% of the exact value — and
// never exceeds the exact maximum.
func TestHistogramQuantileErrorBound(t *testing.T) {
	factor := math.Pow(2, 0.25)
	bounds := ExpBuckets(1e3, factor, 81)
	rng := rand.New(rand.NewPCG(7, 11))
	sets := map[string]func() float64{
		"uniform":   func() float64 { return 1e3 + rng.Float64()*1e6 },
		"lognormal": func() float64 { return math.Exp(12 + 1.5*rng.NormFloat64()) },
		"bimodal": func() float64 {
			if rng.Float64() < 0.9 {
				return 5e4 * (1 + 0.1*rng.NormFloat64())
			}
			return 8e6 * (1 + 0.1*rng.NormFloat64())
		},
	}
	for name, draw := range sets {
		r := NewRegistry()
		h := r.Histogram("q", "", bounds)
		samples := make([]float64, 20000)
		for i := range samples {
			samples[i] = min(max(draw(), 1e3), bounds[len(bounds)-1])
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		v := h.View()
		if v.Max != samples[len(samples)-1] {
			t.Errorf("%s: Max = %g, want exact %g", name, v.Max, samples[len(samples)-1])
		}
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			exact := samples[rank]
			est := v.Quantile(q)
			if rel := math.Abs(est-exact) / exact; rel >= factor-1 {
				t.Errorf("%s q=%g: estimate %g vs exact %g, relative error %.3f >= %.3f",
					name, q, est, exact, rel, factor-1)
			}
			if est > v.Max {
				t.Errorf("%s q=%g: estimate %g above the exact max %g", name, q, est, v.Max)
			}
		}
	}
}

// TestHistogramViewMerge: merged views summarize the union of the
// observations — the server-wide percentile across QoS classes.
func TestHistogramViewMerge(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("m", "", []float64{10, 100, 1000}, "class")
	a, b := vec.With("a"), vec.With("b")
	for _, x := range []float64{1, 2, 3} {
		a.Observe(x)
	}
	for _, x := range []float64{500, 600} {
		b.Observe(x)
	}
	av := a.View()
	var all HistogramView
	all.Merge(av)
	all.Merge(b.View())
	all.Merge(HistogramView{}) // empty views merge as no-ops
	if all.Count != 5 || all.Sum != 1106 || all.Max != 600 {
		t.Fatalf("merged count/sum/max = %d/%g/%g, want 5/1106/600", all.Count, all.Sum, all.Max)
	}
	if got := all.Mean(); got != 1106.0/5 {
		t.Errorf("Mean = %g", got)
	}
	if p := all.Quantile(0.99); p <= 100 || p > 600 {
		t.Errorf("merged p99 = %g, want inside (100, 600]", p)
	}
	if p := all.Quantile(0.5); p > 10 {
		t.Errorf("merged p50 = %g, want in the first bucket", p)
	}
	// The empty view adopted a copy: merging b did not touch av.
	if av.Count != 3 || av.Quantile(1) > 3 {
		t.Errorf("source view changed: count %d, p100 %g", av.Count, av.Quantile(1))
	}
}
