package serve

import "updlrm/internal/obs"

// shedReason is why admission refused a request: a full class queue
// (the depth-only backstop), the governor's pressure ladder, or the SLO
// admission estimator.
type shedReason uint8

const (
	shedQueueFull shedReason = iota
	shedPressure
	shedSLO
)

// ClassStats summarizes one QoS class's served traffic.
type ClassStats struct {
	// Requests is the number of requests of this class served
	// successfully.
	Requests int64
	// Shed is the number of requests of this class rejected with
	// ErrOverloaded — the sum over every shed cause.
	Shed int64
	// ShedPressure and ShedSLO break Shed down by cause: requests the
	// governor's degradation ladder gated at the door, and requests the
	// SLO admission estimator refused because a higher-priority class
	// was predicted to miss its target. The remainder of Shed is the
	// depth-only full-queue backstop.
	ShedPressure int64
	ShedSLO      int64
	// MeanNs, P50Ns, P95Ns, P99Ns and MaxNs summarize the class's
	// per-request modeled latency (queueing + batch breakdown). MeanNs
	// and MaxNs are exact; the percentiles here and in QueueP*Ns are
	// read off LatencyBuckets histograms, see Stats.
	MeanNs float64
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
	MaxNs  float64
	// QueueP50Ns, QueueP95Ns and QueueP99Ns are the class's measured
	// queueing-delay percentiles — the quantity the scheduler's
	// priority weights exist to shape.
	QueueP50Ns float64
	QueueP95Ns float64
	QueueP99Ns float64
}

// ShedRate returns Shed/(Shed+Requests) for the class; 0 when the
// class saw no traffic.
func (c ClassStats) ShedRate() float64 {
	offered := c.Shed + c.Requests
	if offered == 0 {
		return 0
	}
	return float64(c.Shed) / float64(offered)
}

// ShardStats summarizes one shard's routed traffic and cost profile.
type ShardStats struct {
	// Batches and Requests count the shard's completed work.
	Batches  int64
	Requests int64
	// PredictedPerReqNs is the router's current per-request cost
	// estimate for the shard (the EWMA of its observed breakdowns,
	// seeded from the engine's static probes).
	PredictedPerReqNs float64
	// PredictedBatchNs is the affine cost model's prediction for a
	// single-request batch — fixed dispatch cost plus one request's
	// marginal cost — the number small Critical micro-batches route by.
	PredictedBatchNs float64
	// BacklogNs is predicted work routed to the shard and not yet
	// completed at snapshot time.
	BacklogNs float64
}

// Stats is a snapshot of a server's cumulative serving behaviour, read
// from the same instruments Config.Metrics exports.
//
// Counts, sums, means and MaxNs are exact. Every percentile (P*Ns,
// QueueP*Ns, UpdateP*Ns, and ClassStats') is interpolated inside the
// LatencyBuckets bucket that holds the exact nearest-rank percentile,
// and capped at the exact maximum, so it is off by less than that
// bucket's width: within 19% (2^(1/4)-1) of the exact value between
// 1 µs and ~1.05 s, within 1 µs below it, and reported as ~1.05 s
// above it.
type Stats struct {
	// Requests is the number of requests served successfully.
	Requests int64
	// Errors is the number of requests that failed in a shard.
	Errors int64
	// Batches is the number of micro-batches dispatched.
	Batches int64
	// AvgBatchSize is Requests/Batches — how well the window coalesces.
	AvgBatchSize float64
	// ThroughputRPS is served requests divided by the wall-clock span
	// from the first micro-batch completion to the last (0 before a
	// second, later completion).
	ThroughputRPS float64
	// Shed is the number of requests rejected with ErrOverloaded at the
	// door, over every shed cause; they appear in no other counter.
	// PerClass breaks it down by QoS class and cause.
	Shed int64
	// PerClass summarizes each QoS class's traffic separately: request
	// and shed counts, modeled-latency percentiles and queueing-delay
	// percentiles, indexed by Class.
	PerClass [NumClasses]ClassStats
	// Shards summarizes each shard's routed traffic and the router's
	// current cost profile for it, indexed by shard.
	Shards []ShardStats
	// MeanNs, P50Ns, P95Ns, P99Ns and MaxNs summarize the per-request
	// modeled latency (queueing + batch breakdown) across all classes.
	MeanNs float64
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
	MaxNs  float64
	// AvgQueueNs is the mean measured queueing delay; QueueP50Ns,
	// QueueP95Ns and QueueP99Ns are its percentiles, separating
	// queue-induced tail latency from the modeled batch execution.
	AvgQueueNs float64
	QueueP50Ns float64
	QueueP95Ns float64
	QueueP99Ns float64
	// MRAMBytesRead is the total modeled DPU memory traffic of every
	// dispatched micro-batch — the quantity the hot-row cache exists to
	// reduce.
	MRAMBytesRead int64
	// PipelineSerialNs and PipelinePipelinedNs sum every micro-batch's
	// modeled shard residency under the serial rule (wait for the
	// previous batch, then run stages back to back) and under the
	// overlapped LINK/DPUS/HOST schedule. Both are zero unless at least
	// one shard runs pipelined.
	PipelineSerialNs    float64
	PipelinePipelinedNs float64
	// PipelineSpeedup is PipelineSerialNs / PipelinePipelinedNs — the
	// modeled throughput gain from cross-batch overlap, >= 1 by
	// construction whenever pipelined batches ran, 0 otherwise.
	PipelineSpeedup float64
	// CacheHits through CacheBytesSaved mirror the shared hot-row
	// cache's counters (all zero when no cache is deployed): row lookups
	// served host-side vs sent to DPUs, the admission filter's decisions,
	// current occupancy, and the nominal MRAM payload hits avoided.
	CacheHits       int64
	CacheMisses     int64
	CacheHitRate    float64
	CacheAdmitted   int64
	CacheRejected   int64
	CacheEvicted    int64
	CacheEntries    int
	CacheBytesSaved int64
	// CacheInvalidations, CacheNegativeHits and CacheBadFills mirror
	// the cache's coherence counters: entries evicted as stale by the
	// update stream, lookups short-circuited by the negative cache, and
	// fills rejected for failing row validation.
	CacheInvalidations int64
	CacheNegativeHits  int64
	CacheBadFills      int64
	// UpdateBatches and UpdatedRows count completed ApplyDeltas calls
	// and the row deltas they carried; UpdateShed counts calls refused
	// at a full update queue.
	UpdateBatches int64
	UpdatedRows   int64
	UpdateShed    int64
	// UpdateInvalidations sums hot-cache evictions triggered by the
	// update stream (as reported per job; equals CacheInvalidations when
	// all invalidation traffic comes through ApplyDeltas).
	UpdateInvalidations int64
	// UpdateModeledNs sums each update's modeled DPU-side cost (the
	// slowest replica's delta push + RMW kernel). UpdateP50Ns/P99Ns are
	// percentiles of the measured wall time from enqueue to the last
	// replica finishing.
	UpdateModeledNs float64
	UpdateP50Ns     float64
	UpdateP99Ns     float64
	// GovernorBand through GovernorTransitions mirror the pressure
	// governor's state when one is deployed (Config.Governor): the
	// current and peak pressure bands ("normal"/"high"/"critical"),
	// tracked bytes against the budget, and the monotonic count of
	// upward band transitions. All zero ("" bands) without a governor.
	GovernorBand         string
	GovernorPeakBand     string
	GovernorPressure     float64
	GovernorBudgetBytes  int64
	GovernorTrackedBytes int64
	GovernorTransitions  int64
	// CacheCapacityBytes is the hot cache's current byte capacity — it
	// drops below the configured capacity while the governor's shrink
	// step is engaged — and CacheResizes counts capacity changes.
	CacheCapacityBytes int64
	CacheResizes       int64
	// PredictedWaitNs is the admission estimator's latest published
	// per-class predicted wait (the quantity SLO admission compares
	// against each class's target), indexed by Class. Zero until the
	// scheduler has published (SLO or metrics enabled).
	PredictedWaitNs [NumClasses]float64
	// Reprobes counts completed background cost re-probes (all shards
	// folded fresh static probe points into the router).
	Reprobes int64
}

// ShedRate returns Shed/(Shed+Requests+Errors) — the fraction of
// offered load the server refused at the door; 0 when nothing arrived.
func (s Stats) ShedRate() float64 {
	offered := s.Shed + s.Requests + s.Errors
	if offered == 0 {
		return 0
	}
	return float64(s.Shed) / float64(offered)
}

// snapshot builds the Stats view of the recorded events: counts are
// counter values, means are histogram Sum/Count, percentiles are
// bucketed quantiles (server-wide ones over the classes' merged
// histograms) and MaxNs is the histograms' exact maximum. Reads are
// lock-free; under concurrent traffic the fields may be a few events
// apart.
func (o *serveObs) snapshot() Stats {
	var st Stats
	var lat, queue obs.HistogramView
	for c := Class(0); c < NumClasses; c++ {
		cs := &st.PerClass[c]
		cs.Requests = int64(o.served[c].Value())
		cs.Shed = int64(o.shed[c].Value())
		cs.ShedPressure = int64(o.govShed[c].Value())
		cs.ShedSLO = int64(o.sloShed[c].Value())
		m, q := o.modeledNs[c].View(), o.queueNs[c].View()
		cs.MeanNs, cs.P50Ns, cs.P95Ns, cs.P99Ns, cs.MaxNs = summarize(m)
		_, cs.QueueP50Ns, cs.QueueP95Ns, cs.QueueP99Ns, _ = summarize(q)
		lat.Merge(m)
		queue.Merge(q)
		st.Requests += cs.Requests
		st.Shed += cs.Shed
		for _, b := range o.batches[c] {
			st.Batches += int64(b.Value())
		}
	}
	st.MeanNs, st.P50Ns, st.P95Ns, st.P99Ns, st.MaxNs = summarize(lat)
	st.AvgQueueNs, st.QueueP50Ns, st.QueueP95Ns, st.QueueP99Ns, _ = summarize(queue)
	st.Errors = int64(o.errors.Value())
	if st.Batches > 0 {
		st.AvgBatchSize = float64(st.Requests) / float64(st.Batches)
	}
	if first, last := o.firstNs.Load(), o.lastNs.Load(); last > first {
		st.ThroughputRPS = float64(st.Requests) / (float64(last-first) / 1e9)
	}
	st.MRAMBytesRead = o.mramBytes.Load()
	for i := range o.pipe {
		// Pipelined before serial: the worker adds serial first, so the
		// pair read never shows pipelined > serial.
		st.PipelinePipelinedNs += o.pipe[i].pipelinedNs.Value()
		st.PipelineSerialNs += o.pipe[i].serialNs.Value()
	}
	if st.PipelinePipelinedNs > 0 {
		st.PipelineSpeedup = st.PipelineSerialNs / st.PipelinePipelinedNs
	}
	st.UpdateBatches = int64(o.updApplied.Value())
	st.UpdatedRows = int64(o.updRows.Value())
	st.UpdateShed = int64(o.updShed.Value())
	st.UpdateInvalidations = int64(o.updInval.Value())
	st.UpdateModeledNs = o.updModelNs.Sum()
	upd := o.updWallNs.View()
	st.UpdateP50Ns, st.UpdateP99Ns = upd.Quantile(0.50), upd.Quantile(0.99)
	st.Reprobes = int64(o.reprobes.Value())
	return st
}

// summarize reads the mean, percentiles and maximum off a histogram
// view.
func summarize(v obs.HistogramView) (mean, p50, p95, p99, maxv float64) {
	return v.Mean(), v.Quantile(0.50), v.Quantile(0.95), v.Quantile(0.99), v.Max
}
