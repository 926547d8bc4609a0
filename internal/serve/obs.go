package serve

// Serving-stack event recording and observability wiring. serveObs
// resolves every instrument the scheduler, workers and update lane
// touch at server construction, so the hot path only performs atomic
// updates on stored pointers — the same zero-allocation discipline as
// the request path itself. Each serving event is recorded once, here;
// Stats() and the exported metric families are two views of it.

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/metrics"
	"updlrm/internal/obs"
)

// routerStages are the per-request EWMA profile terms the router
// exports per shard.
var routerStages = []string{
	"cpu_to_dpu", "dpu_lookup", "dpu_to_cpu", "host_agg", "host_cache", "mlp",
}

func routerStageValue(bd *metrics.Breakdown, stage string) float64 {
	switch stage {
	case "cpu_to_dpu":
		return bd.CPUToDPUNs
	case "dpu_lookup":
		return bd.DPULookupNs
	case "dpu_to_cpu":
		return bd.DPUToCPUNs
	case "host_agg":
		return bd.HostAggNs
	case "host_cache":
		return bd.HostCacheNs
	case "mlp":
		return bd.MLPNs
	}
	return 0
}

// serveObs is the server's one record of its serving events. Stats()
// is a view over it (see snapshot), and with Config.Metrics set the same
// instruments are the exported metric families, so the two can never
// disagree. The instruments Stats reads always exist — on a private,
// never-scraped registry when Config.Metrics is nil — while the
// scrape-only ones (admissions, spans, batch sizes, predicted waits,
// governor counters) stay nil and ignore writes unless exported.
type serveObs struct {
	shed    [NumClasses]*obs.Counter
	govShed [NumClasses]*obs.Counter
	sloShed [NumClasses]*obs.Counter
	served  [NumClasses]*obs.Counter
	errors  *obs.Counter

	modeledNs [NumClasses]*obs.Histogram
	queueNs   [NumClasses]*obs.Histogram

	// batches[class][shard] counts the scheduler's dispatch decisions.
	batches [NumClasses][]*obs.Counter

	updApplied *obs.Counter
	updShed    *obs.Counter
	updRows    *obs.Counter
	updInval   *obs.Counter
	updWallNs  *obs.Histogram
	updModelNs *obs.Histogram
	reprobes   *obs.Counter

	// Scrape-only instruments: nil unless exported.
	admitted       [NumClasses]*obs.Counter
	spanNs         [NumClasses]*obs.Histogram
	batchSize      *obs.Histogram
	predWait       [NumClasses]*obs.Histogram
	govTransitions *obs.Counter
	cacheResizes   *obs.Counter

	// Stats fields with no metric family: modeled MRAM traffic, each
	// shard's pipeline sums, and the unix times of the first and last
	// completed micro-batch.
	mramBytes atomic.Int64
	pipe      []pipeSums
	firstNs   atomic.Int64
	lastNs    atomic.Int64
}

// pipeSums accumulates one pipelined shard's modeled residencies under
// the serial rule and under the overlapped schedule. Only the shard's
// worker adds to them, in batch order, so pipelinedNs <= serialNs holds
// after every batch exactly as it holds for each batch (float rounding
// is monotone). The gauges are unregistered: lock-free float64 cells.
type pipeSums struct {
	serialNs    obs.Gauge
	pipelinedNs obs.Gauge
}

// LatencyBuckets are the serving tier's latency histogram bounds: 1 µs
// to ~1.05 s, a factor of 2^(1/4) apart, so a bucketed quantile is
// within 19% of the exact value it estimates.
func LatencyBuckets() []float64 { return obs.ExpBuckets(1e3, math.Pow(2, 0.25), 81) }

// newServeObs builds the server's instruments. With a nil export they
// live on a private registry that only Stats reads; otherwise they are
// registered on export together with the scrape-only families and
// gauge callbacks, the hot cache's per-table counters and the engines'
// stage histograms.
func newServeObs(export *obs.Registry, s *Server) *serveObs {
	reg := export
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &serveObs{pipe: make([]pipeSums, len(s.execs))}
	shed := reg.CounterVec("serve_shed_total",
		"Requests rejected with ErrOverloaded at the door (every shed cause), by QoS class.", "class")
	served := reg.CounterVec("serve_requests_total",
		"Requests served successfully, by QoS class.", "class")
	o.errors = reg.Counter("serve_errors_total",
		"Requests failed inside a shard engine.")
	modeled := reg.HistogramVec("serve_request_modeled_ns",
		"Per-request end-to-end modeled latency (measured queueing + batch breakdown), by QoS class.",
		LatencyBuckets(), "class")
	queueW := reg.HistogramVec("serve_queue_wait_ns",
		"Per-request measured wall-clock wait from enqueue to dispatch, by QoS class.",
		LatencyBuckets(), "class")
	batches := reg.CounterVec("serve_batches_total",
		"Micro-batches dispatched, by QoS class and routed shard.", "class", "shard")
	govShed := reg.CounterVec("governor_shed_total",
		"Requests shed at the door by the governor's pressure ladder, by QoS class.", "class")
	sloShed := reg.CounterVec("serve_slo_shed_total",
		"Requests shed at the door by SLO admission (a higher-priority class was predicted to miss its target), by QoS class.", "class")
	for c := Class(0); c < NumClasses; c++ {
		l := c.String()
		o.shed[c] = shed.With(l)
		o.served[c] = served.With(l)
		o.modeledNs[c] = modeled.With(l)
		o.queueNs[c] = queueW.With(l)
		o.govShed[c] = govShed.With(l)
		o.sloShed[c] = sloShed.With(l)
		o.batches[c] = make([]*obs.Counter, len(s.execs))
		for sh := range s.execs {
			o.batches[c][sh] = batches.With(l, strconv.Itoa(sh))
		}
	}
	o.updApplied = reg.Counter("serve_update_applied_total",
		"ApplyDeltas calls completed on every shard replica.")
	o.updShed = reg.Counter("serve_update_shed_total",
		"ApplyDeltas calls refused at a full update queue.")
	o.updRows = reg.Counter("serve_update_rows_total",
		"Row deltas carried by completed updates.")
	o.updInval = reg.Counter("serve_update_invalidations_total",
		"Hot-cache invalidations triggered by the update stream.")
	o.updWallNs = reg.Histogram("serve_update_wall_ns",
		"Measured wall time from update enqueue to the last replica finishing.",
		LatencyBuckets())
	o.updModelNs = reg.Histogram("serve_update_modeled_ns",
		"Per-update modeled DPU-side cost (slowest replica's delta push + RMW kernel).",
		LatencyBuckets())
	o.reprobes = reg.Counter("serve_reprobe_total",
		"Completed background cost re-probes (every shard folded fresh static probe points into the router).")
	if export != nil {
		o.export(export, s)
	}
	return o
}

// export registers the scrape-only instruments and the scrape-time
// state on a caller's registry. Queue depths, governor state and the
// router's backlog and profile terms are gauge callbacks reading what
// the subsystems already maintain, rather than duplicated counters.
func (o *serveObs) export(reg *obs.Registry, s *Server) {
	admitted := reg.CounterVec("serve_admitted_total",
		"Requests admitted to a class queue, by QoS class.", "class")
	span := reg.HistogramVec("serve_request_span_ns",
		"Per-request queue-entry-to-reply span: own measured wait plus the batch's shard residency, by QoS class.",
		LatencyBuckets(), "class")
	o.batchSize = reg.Histogram("serve_batch_size",
		"Coalesced micro-batch sizes at dispatch.",
		obs.ExpBuckets(1, 2, 9)) // 1..256
	predWait := reg.HistogramVec("serve_predicted_wait_ns",
		"Scheduler-published predicted admission wait per class — the estimate SLO admission compares against each class's target.",
		LatencyBuckets(), "class")
	depth := reg.GaugeVec("serve_queue_depth",
		"Requests currently waiting in a class's admission queue, by QoS class.", "class")
	for c := Class(0); c < NumClasses; c++ {
		l := c.String()
		o.admitted[c] = admitted.With(l)
		o.spanNs[c] = span.With(l)
		o.predWait[c] = predWait.With(l)
		ch := s.classCh[c]
		depth.WithFunc(func() float64 { return float64(len(ch)) }, l)
	}
	reg.GaugeFunc("serve_update_queue_depth",
		"Update jobs currently waiting in the update lane's admission queue.",
		func() float64 { return float64(len(s.updateCh)) })

	// Pressure governor. Registered whether or not a governor runs, so
	// the exported surface — and CI's promcheck required list — is
	// stable across configurations. The gauges read the governor
	// (nil-safe: zero without one) at scrape time; the monotonic
	// counters are fed their diffs by the governor's observation tick.
	reg.GaugeFunc("governor_band",
		"Pressure governor band: 0 normal, 1 high, 2 critical. Zero when no governor is deployed.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.Band())
		})
	reg.GaugeFunc("governor_pressure",
		"Tracked bytes over the governor's budget (TrackedBytes/BudgetBytes). Zero when no governor is deployed.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			if b := s.gov.BudgetBytes(); b > 0 {
				return float64(s.gov.TrackedBytes()) / float64(b)
			}
			return 0
		})
	reg.GaugeFunc("governor_budget_bytes",
		"The governor's byte budget. Zero when no governor is deployed.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.BudgetBytes())
		})
	reg.GaugeFunc("governor_tracked_bytes",
		"Bytes the governor's tracked consumers reported at the last observation.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.TrackedBytes())
		})
	o.govTransitions = reg.Counter("governor_band_transitions_total",
		"Upward pressure-band transitions (the monotonic signal that pressure occurred, even if the band has since recovered).")
	o.cacheResizes = reg.Counter("governor_cache_resizes_total",
		"Hot-cache capacity changes driven by the governor's shrink step (and its release).")

	// Router state: per-shard backlog, cost predictions and the
	// per-request EWMA profile stage terms, all read at scrape time
	// under each profile's own mutex.
	backlog := reg.GaugeVec("serve_router_backlog_ns",
		"Predicted work routed to the shard and not yet completed.", "shard")
	perReq := reg.GaugeVec("serve_router_predicted_per_request_ns",
		"Router's current per-request cost estimate for the shard (EWMA of observed breakdowns).", "shard")
	batchCost := reg.GaugeVec("serve_router_predicted_batch_ns",
		"Affine cost model's prediction for a single-request batch on the shard.", "shard")
	profile := reg.GaugeVec("serve_router_profile_ns",
		"Per-request EWMA of the shard's observed breakdown stage terms.", "shard", "stage")
	for i := range s.execs {
		p := &s.router.shards[i]
		l := strconv.Itoa(i)
		backlog.WithFunc(func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.backlogNs
		}, l)
		perReq.WithFunc(func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.perReq.TotalNs()
		}, l)
		batchCost.WithFunc(func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.predict(1)
		}, l)
		for _, st := range routerStages {
			stage := st
			profile.WithFunc(func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return routerStageValue(&p.perReq, stage)
			}, l, stage)
		}
	}

	// Cache and engine instrumentation ride the same registry.
	s.cache.Instrument(reg, s.numTables)
	core.InstrumentEngines(reg, s.engines)
}

// recordAdmit counts one successful class-queue admission.
func (o *serveObs) recordAdmit(c Class) { o.admitted[c].Inc() }

// recordShed counts one admission-control rejection, by cause.
func (o *serveObs) recordShed(c Class, reason shedReason) {
	o.shed[c].Inc()
	switch reason {
	case shedPressure:
		o.govShed[c].Inc()
	case shedSLO:
		o.sloShed[c].Inc()
	}
}

// observePredWait records one scheduler-published predicted wait.
func (o *serveObs) observePredWait(c Class, ns float64) { o.predWait[c].Observe(ns) }

// recordGovTransitions feeds the band-transition counter its diff.
func (o *serveObs) recordGovTransitions(d int64) { o.govTransitions.Add(d) }

// recordCacheResizes feeds the cache-resize counter its diff.
func (o *serveObs) recordCacheResizes(d int64) { o.cacheResizes.Add(d) }

// recordReprobe counts one completed background re-probe.
func (o *serveObs) recordReprobe() { o.reprobes.Inc() }

// recordDispatch counts one routed micro-batch.
func (o *serveObs) recordDispatch(c Class, shard, size int) {
	o.batches[c][shard].Inc()
	o.batchSize.Observe(float64(size))
}

// recordBatch records one micro-batch a shard served: its modeled MRAM
// traffic, its serial and pipelined shard residencies (both zero on a
// serial shard) and its completion time.
func (o *serveObs) recordBatch(shard int, mramBytes int64, serialNs, pipelinedNs float64) {
	o.mramBytes.Add(mramBytes)
	if serialNs > 0 {
		o.pipe[shard].serialNs.Add(serialNs)
		o.pipe[shard].pipelinedNs.Add(pipelinedNs)
	}
	now := time.Now().UnixNano()
	o.firstNs.CompareAndSwap(0, now)
	for {
		last := o.lastNs.Load()
		if now <= last || o.lastNs.CompareAndSwap(last, now) {
			return
		}
	}
}

// recordResponse records one served request's latency series.
func (o *serveObs) recordResponse(r *Response) {
	c := r.Class
	o.served[c].Inc()
	o.modeledNs[c].Observe(r.ModeledNs())
	o.queueNs[c].Observe(r.QueueNs)
	o.spanNs[c].Observe(r.SpanNs)
}

// recordErrors counts n failed requests.
func (o *serveObs) recordErrors(n int) { o.errors.Add(int64(n)) }

// recordUpdate records one completed update job.
func (o *serveObs) recordUpdate(rows, inval int64, wallNs, modeledNs float64) {
	o.updApplied.Inc()
	o.updRows.Add(rows)
	o.updInval.Add(inval)
	o.updWallNs.Observe(wallNs)
	o.updModelNs.Observe(modeledNs)
}

// recordUpdateShed counts one refused update.
func (o *serveObs) recordUpdateShed() { o.updShed.Inc() }
