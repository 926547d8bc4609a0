// Package obs is the serving stack's observability layer: a
// dependency-free, concurrency-safe metrics registry (counters, gauges
// and fixed-bucket histograms, all with label support) that renders the
// Prometheus text exposition format, plus a lightweight sampled
// per-request stage tracer (see Tracer) and an http.Handler exposing
// both (see Handler).
//
// The design goal is an allocation-free hot path: instruments are
// resolved from their labeled families once at setup (CounterVec.With
// and friends), after which Inc/Add/Set/Observe are a few atomic
// operations on a pre-existing child — safe from any goroutine, never
// touching the allocator or a lock. Rendering, snapshotting and
// registration take locks and may allocate; they are scrape-time
// operations.
//
// Every instrument is nil-safe: a nil *Counter, *Gauge, *Histogram,
// *Registry or *Tracer ignores writes, so callers thread optional
// instrumentation without guards and an uninstrumented deployment pays
// only a nil check.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is a family's Prometheus type.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; a nil *Counter ignores writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n < 0 is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. The zero value is ready to
// use; a nil *Gauge ignores writes.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop; safe from any goroutine).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observation counts per bucket
// plus a running sum and an exact maximum. Buckets are defined by their
// upper bounds at registration; a +Inf bucket is implicit. Observe is
// lock-free and allocation-free. A nil *Histogram ignores observations.
type Histogram struct {
	// bounds are the inclusive upper bounds, ascending, excluding +Inf.
	bounds []float64
	// counts[i] is the number of observations in (bounds[i-1], bounds[i]];
	// counts[len(bounds)] is the +Inf overflow bucket. Cumulative sums
	// are computed at render time.
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits, CAS-raised; -Inf until observed
}

// bucket returns the index of the first bound >= v (len(bounds) for the
// +Inf bucket) by binary search. A NaN compares greater than no bound
// and lands in bucket 0.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// The maximum is raised before the count, so a view that sees this
	// observation counted also sees a maximum at least as large.
	for {
		old := h.max.Load()
		if !(v > math.Float64frombits(old)) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of h; see
// HistogramView.Quantile.
func (h *Histogram) Quantile(q float64) float64 { return h.View().Quantile(q) }

// HistogramView is a point-in-time copy of a histogram's state, read
// without locks while writers keep observing. Views of histograms with
// the same bounds merge, so a summary across several labeled children
// (every QoS class, say) comes from one combined distribution. The zero
// value is an empty view.
type HistogramView struct {
	bounds []float64
	counts []uint64
	// Count, Sum and Max are the number of observations, their sum and
	// the largest of them (0 when empty).
	Count uint64
	Sum   float64
	Max   float64
}

// View copies h's current counts, sum and maximum. A nil histogram
// yields an empty view.
func (h *Histogram) View() HistogramView {
	if h == nil {
		return HistogramView{}
	}
	v := HistogramView{bounds: h.bounds, counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		n := h.counts[i].Load()
		v.counts[i] = n
		v.Count += n
	}
	v.Sum = h.Sum()
	if v.Count > 0 {
		v.Max = math.Float64frombits(h.max.Load())
	}
	return v
}

// Merge adds o's observations to v. Both must come from histograms with
// the same bounds (it panics otherwise); an empty v becomes a copy of o.
func (v *HistogramView) Merge(o HistogramView) {
	if o.Count == 0 {
		return
	}
	if v.Count == 0 {
		*v = o
		v.counts = append([]uint64(nil), o.counts...)
		return
	}
	if len(v.counts) != len(o.counts) {
		panic("obs: merging histogram views with different bounds")
	}
	for i, n := range o.counts {
		v.counts[i] += n
	}
	v.Count += o.Count
	v.Sum += o.Sum
	v.Max = max(v.Max, o.Max)
}

// Mean returns Sum/Count, 0 when empty.
func (v HistogramView) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// by linear interpolation within the located bucket — the same estimate
// a Prometheus histogram_quantile() gives — capped at the exact
// maximum. The located bucket is the one holding the exact
// nearest-rank value, so the estimate is off by at most that bucket's
// width; values in the +Inf bucket clamp to the highest finite bound.
// Returns 0 when empty.
func (v HistogramView) Quantile(q float64) float64 {
	if v.Count == 0 {
		return 0
	}
	rank := q * float64(v.Count)
	var cum uint64
	for i, n := range v.counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(v.bounds) { // +Inf bucket
				return v.bounds[len(v.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = v.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return min(lo+(v.bounds[i]-lo)*frac, v.Max)
		}
		cum += n
	}
	return v.bounds[len(v.bounds)-1]
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// start*factor^2, ... — the standard shape for latency and size
// distributions. It panics on a non-positive start, a factor <= 1, or
// n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket bounds: start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets requires width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// child is one labeled instance of a family: exactly one of counter,
// gauge, hist or fn is non-nil.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // scrape-time gauge callback
}

// family is one named metric with its labeled children.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// resolve returns (creating if needed) the child for the given label
// values. Called at setup time, not on the hot path.
func (f *family) resolve(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Uint64, len(f.bounds)+1)
		h.max.Store(math.Float64bits(math.Inf(-1)))
		c.hist = h
	}
	f.children[key] = c
	return c
}

// Registry holds metric families and renders them. Construct with
// NewRegistry; the zero value is not usable, but a nil *Registry is a
// valid no-op sink: every constructor on it returns nil instruments,
// which in turn ignore writes — so optional instrumentation threads
// through without guards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// ':', which register enforces).
func validName(s string, label bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
		case r == ':' && !label:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// register creates a family, panicking on an invalid or duplicate name
// (both are programmer errors at setup time — build one registry per
// server instance).
func (r *Registry) register(name, help string, typ metricType, labels []string, bounds []float64) *family {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l, true) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l))
		}
	}
	if typ == typeHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q: bucket bounds not strictly ascending", name))
			}
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.families[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeCounter, nil, nil).resolve(nil).counter
}

// CounterVec registers a labeled counter family; resolve children with
// With at setup time and keep the returned *Counter for the hot path.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeGauge, nil, nil).resolve(nil).gauge
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// GaugeFunc registers an unlabeled gauge whose value is fn(), called at
// scrape/snapshot time — the natural fit for state another subsystem
// already maintains (queue depths, cache occupancy, profile terms).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	c := r.register(name, help, typeGauge, nil, nil).resolve(nil)
	c.gauge = nil
	c.fn = fn
}

// Histogram registers an unlabeled fixed-bucket histogram; bounds are
// the ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeHistogram, nil, bounds).resolve(nil).hist
}

// HistogramVec registers a labeled fixed-bucket histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, bounds)}
}

// CounterVec is a labeled counter family. A nil *CounterVec resolves
// nil children.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Resolve at setup time; the returned child is the
// allocation-free hot-path handle.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.resolve(values).counter
}

// GaugeVec is a labeled gauge family. A nil *GaugeVec resolves nil
// children.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.resolve(values).gauge
}

// WithFunc installs fn as a scrape-time callback child under the given
// label values (see Registry.GaugeFunc).
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	c := v.f.resolve(values)
	c.gauge = nil
	c.fn = fn
}

// HistogramVec is a labeled histogram family. A nil *HistogramVec
// resolves nil children.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.resolve(values).hist
}

// sortedFamilies returns the families sorted by name (deterministic
// render and snapshot order).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's children sorted by label values.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		a, b := kids[i].labelValues, kids[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return kids
}
