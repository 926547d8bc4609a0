package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"updlrm/internal/serve"
)

// windows is how many equal windows a measured phase is cut into; every
// reported host-clock figure is the median across them.
const windows = 10

// checkMode is how strictly a reply is compared with the references.
type checkMode int

const (
	// checkExact: bit-for-bit with the single-node engine reference and
	// within tolerance of the CPU reference. Holds on every deployment
	// without a hot cache and without writes.
	checkExact checkMode = iota
	// checkTol: within summation-order tolerance of the CPU reference. A
	// hot cache aggregates hit rows before the DPU partial sums, so the
	// float32 addition order differs from a cache-less engine's.
	checkTol
	// checkNear: finite, in (0,1) and within driftTol of the CPU
	// reference. Deltas come in +/- pairs, so rows stay near the reference
	// tables, but at any instant some pairs are half applied.
	checkNear
)

// check compares live sample i's CTR with the references.
func (in *inputs) check(m checkMode, i int, got float32) error {
	switch {
	case m == checkNear:
		if got > 0 && got < 1 && math.Abs(float64(got)-float64(in.ref[i])) <= driftTol { // false for NaN
			return nil
		}
		return fmt.Errorf("sample %d: CTR %v under updates, CPU reference %v", i, got, in.ref[i])
	case math.Abs(float64(got)-float64(in.ref[i])) > refTol:
		return fmt.Errorf("sample %d: CTR %v, CPU reference %v", i, got, in.ref[i])
	case m == checkExact && math.Float32bits(got) != math.Float32bits(in.engRef[i]):
		return fmt.Errorf("sample %d: CTR %v, engine reference %v (not bit-identical)", i, got, in.engRef[i])
	}
	return nil
}

// phase is one closed-loop run against a deployment.
type phase struct {
	w   *workload
	in  *inputs
	d   *deployment
	dur time.Duration
	// ops, when positive, ends the phase after that many operations per
	// caller (or at dur, whichever comes first): a phase of fixed work.
	ops     int
	check   checkMode
	updates bool
	// detail additionally keeps per-request queue waits, batch sizes and
	// per-class latencies (the traced run's counters).
	detail bool
	// spanEvery > 0 records spans for every spanEvery-th operation of
	// each client.
	spanEvery int
}

// phaseResult is what one phase measured, all from outside the program.
type phaseResult struct {
	attempted, failed int64
	firstErr          error
	// Per-window figures over Predict/RunBatch operations only; winTail
	// is the window's p95 over its p50.
	winRPS, winP50, winP95, winTail []float64
	minWindowSamples                int
	// minActiveClients is the fewest distinct clients that completed an
	// operation inside one window: below the in-flight target the
	// micro-batches were no longer full.
	minActiveClients int
	// gapShare is the share of the clients' time spent between a reply
	// and the next request (generator overhead: in-flight is lower than
	// nominal by this share).
	gapShare float64
	// schedWaitShare is the process-wide runnable-but-not-running time
	// per goroutine-second of the phase.
	schedWaitShare float64
	cpuSeconds     float64
	mallocs        uint64
	allocBytes     uint64
	gcPauseNs      uint64

	queueNs   []float64
	batchSum  int64
	batchN    int64
	classLat  [serve.NumClasses][]float64
	updateLat []float64
	spans     []span
}

type client struct {
	id      int
	class   serve.Class
	lat     [windows][]float64
	done    [windows]bool
	samples [windows]int64
	gapNs   int64
	busyNs  int64
	res     phaseResult // attempted/failed/detail, merged afterwards
}

func (p *phase) run() *phaseResult {
	var clients []*client
	for cl, n := range p.w.clients {
		for i := 0; i < n; i++ {
			clients = append(clients, &client{id: len(clients), class: serve.Class(cl)})
		}
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	sched0 := schedWaitSeconds()
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.loop(c, t0)
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds() // below dur when the phase ran out of operations first
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)

	r := &phaseResult{minWindowSamples: math.MaxInt, minActiveClients: math.MaxInt}
	r.cpuSeconds = tvSeconds(ru1.Utime) + tvSeconds(ru1.Stime) - tvSeconds(ru0.Utime) - tvSeconds(ru0.Stime)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	r.schedWaitShare = (schedWaitSeconds() - sched0) / (elapsed * float64(len(clients)))
	winSec := p.dur.Seconds() / windows
	var gap, busy int64
	for wi := 0; wi < windows; wi++ {
		var lat []float64
		var samples int64
		active := 0
		for _, c := range clients {
			lat = append(lat, c.lat[wi]...)
			samples += c.samples[wi]
			if c.done[wi] {
				active++
			}
		}
		sort.Float64s(lat)
		r.winRPS = append(r.winRPS, float64(samples)/winSec)
		r.winP50 = append(r.winP50, percentile(lat, 0.50)/1e6)
		r.winP95 = append(r.winP95, percentile(lat, 0.95)/1e6)
		r.winTail = append(r.winTail, ratio(percentile(lat, 0.95), percentile(lat, 0.50)))
		r.minWindowSamples = min(r.minWindowSamples, len(lat))
		r.minActiveClients = min(r.minActiveClients, active)
	}
	for _, c := range clients {
		r.attempted += c.res.attempted
		r.failed += c.res.failed
		if r.firstErr == nil {
			r.firstErr = c.res.firstErr
		}
		gap += c.gapNs
		busy += c.busyNs
		r.queueNs = append(r.queueNs, c.res.queueNs...)
		r.batchSum += c.res.batchSum
		r.batchN += c.res.batchN
		r.classLat[c.class] = append(r.classLat[c.class], c.res.classLat[c.class]...)
		r.updateLat = append(r.updateLat, c.res.updateLat...)
		r.spans = append(r.spans, c.res.spans...)
	}
	if gap+busy > 0 {
		r.gapShare = float64(gap) / float64(gap+busy)
	}
	return r
}

// loop is one closed-loop caller: it waits for each reply before it
// sends the next request, checks the reply against the reference, and
// files the latency under the window the reply arrived in.
func (p *phase) loop(c *client, t0 time.Time) {
	ctx := context.Background()
	in, d := p.in, p.d
	pos := in.offsets[c.id]
	updCalls := 0
	deltas := make([]serve.Delta, updateRows)
	winNs := p.dur.Nanoseconds() / windows
	end := t0.Add(p.dur)
	res := &c.res
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	prevEnd := time.Now()
	for n := 0; ; n++ {
		start := time.Now()
		if !start.Before(end) || (p.ops > 0 && n >= p.ops) {
			return
		}
		c.gapNs += start.Sub(prevEnd).Nanoseconds()
		if p.updates && n%(updateEvery+1) == updateEvery {
			in.fillDeltas(deltas, in.offsets[c.id], updCalls)
			updCalls++
			err := d.inf.ApplyDeltas(ctx, deltas)
			prevEnd = time.Now()
			c.busyNs += prevEnd.Sub(start).Nanoseconds()
			res.attempted++
			if err != nil {
				fail(fmt.Errorf("ApplyDeltas: %w", err))
			} else if p.detail {
				res.updateLat = append(res.updateLat, float64(prevEnd.Sub(start)))
			}
			continue
		}

		var err error
		var resp serve.Response
		var stop time.Time // taken before the reference check, which is generator work
		samples := 1
		if d.eng != nil {
			k := pos % len(in.batches)
			b := in.batches[k]
			samples = b.Size
			r, rerr := d.eng.RunBatch(b)
			stop = time.Now()
			for s := 0; rerr == nil && s < b.Size; s++ {
				rerr = in.check(p.check, k*p.w.batch+s, r.CTR[s])
			}
			err = rerr
		} else {
			i := pos % len(in.live.Samples)
			s := in.live.Samples[i]
			resp, err = d.inf.Predict(ctx, serve.Request{Dense: s.Dense, Sparse: s.Sparse, Class: c.class})
			stop = time.Now()
			if err == nil {
				err = in.check(p.check, i, resp.CTR)
			}
		}
		pos++
		prevEnd = stop
		lat := stop.Sub(start)
		c.busyNs += lat.Nanoseconds()
		res.attempted++
		if err != nil {
			fail(err)
			continue
		}
		if wi := int(stop.Sub(t0).Nanoseconds() / winNs); wi < windows {
			c.lat[wi] = append(c.lat[wi], float64(lat))
			c.samples[wi] += int64(samples)
			c.done[wi] = true
		}
		if p.detail {
			res.queueNs = append(res.queueNs, resp.QueueNs)
			res.batchSum += int64(resp.BatchSize)
			res.batchN++
			res.classLat[c.class] = append(res.classLat[c.class], float64(lat))
		}
		if p.spanEvery > 0 && n%p.spanEvery == 0 {
			req := int64(c.id)<<32 | int64(n)
			root := req<<2 | 1
			s0, s1 := start.Sub(t0).Nanoseconds(), stop.Sub(t0).Nanoseconds()
			q := min(int64(resp.QueueNs), s1-s0)
			res.spans = append(res.spans,
				span{ID: root, Req: req, Name: "request", Start: s0, End: s1},
				span{ID: root + 1, Parent: root, Req: req, Name: "serve.queue_wait", Start: s0, End: s0 + q},
				span{ID: root + 2, Parent: root, Req: req, Name: "service", Start: s0 + q, End: s1})
		}
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// schedWaitSeconds approximates the total time goroutines of this
// process have spent runnable but not running, from the runtime's
// scheduling-latency histogram (bucket midpoints).
func schedWaitSeconds() float64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	var total float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

// percentile reads quantile q from an ascending slice (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spreads
// printed here are the ones the acceptance protocol computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// relIQR is the distance between the first and third quartile as a
// share of the median.
func relIQR(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
