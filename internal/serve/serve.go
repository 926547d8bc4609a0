// Package serve is the concurrent serving runtime: N independent
// core.Engine replicas (each with its own partition plan and simulated
// DPU ranks) behind a QoS-aware request scheduler. Requests carry one
// of three priority classes (Critical/Normal/Batch); a weighted
// deficit-round-robin scheduler drains the per-class admission queues,
// coalesces same-class micro-batches within per-class windows, and a
// profile-driven router dispatches each batch to the shard predicted
// cheapest for it — which makes heterogeneous shard sets (replicas
// running different partition methods or tile shapes) first-class:
// traffic concentrates on whichever configuration serves the offered
// batches fastest. Results fan back out with per-request modeled
// latency (measured queueing plus the batch's modeled breakdown). This
// is the deployment shape the paper's §4 evaluation implies: the
// per-batch simulator turned into a system that can absorb an open,
// mixed-priority request stream.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/metrics"
	"updlrm/internal/obs"
	"updlrm/internal/trace"
)

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by Predict when the request's class queue
// is full: the server sheds the request immediately instead of blocking
// the caller behind an already-saturated pipeline. Transports should
// map it to a retryable status (HTTP 503); load generators should count
// it as shed traffic, not failure. Admission is per class, so Batch
// pressure fills (and sheds from) the Batch queue without consuming
// Critical's admission capacity.
var ErrOverloaded = errors.New("serve: overloaded: request queue full")

// ErrBadRequest wraps request-shape validation failures (wrong dense
// width, wrong table count, out-of-range index, unknown class), so
// transports can distinguish caller errors from server-side failures.
var ErrBadRequest = errors.New("serve: bad request")

// ClassConfig overrides one QoS class's scheduling parameters; zero
// fields inherit the server-wide defaults (see Config.Classes).
type ClassConfig struct {
	// Weight is the class's deficit-round-robin quantum: the number of
	// requests credited to the class per scheduler round. Zero means the
	// default (Critical 16, Normal 4, Batch 1).
	Weight int
	// MaxBatch caps the class's micro-batch size. Zero means
	// Config.MaxBatch.
	MaxBatch int
	// BatchWindow is how long the class's forming micro-batch waits for
	// followers. Zero means the default (opportunistic for Critical,
	// Config.BatchWindow otherwise); a negative value forces
	// opportunistic closing.
	BatchWindow time.Duration
	// QueueDepth is the class's admission queue capacity. Zero means
	// Config.QueueDepth.
	QueueDepth int
	// SLOTargetNs is the class's latency objective in nanoseconds (zero
	// = none). Setting a target on any class switches admission from
	// depth-only to SLO-driven: requests of the class carry a deadline
	// of enqueue + target (a caller context deadline takes precedence),
	// the scheduler orders each class's micro-batch window
	// earliest-deadline-first, and Predict sheds strictly lower-priority
	// classes early whenever this class's predicted admission wait
	// exceeds the target — so a Batch flood is refused at the door
	// before it can push Critical past its objective.
	SLOTargetNs int64
}

// Config tunes the serving runtime.
type Config struct {
	// Shards is the number of engine replicas serving in parallel.
	// Zero means DefaultShards (or len(ShardConfigs) when set).
	Shards int
	// MaxBatch caps how many requests one micro-batch coalesces.
	// Zero means DefaultMaxBatch; 1 disables batching.
	MaxBatch int
	// BatchWindow is how long the batcher waits for followers after the
	// first request of a micro-batch arrives (Normal and Batch classes;
	// Critical defaults to opportunistic). Zero keeps batching purely
	// opportunistic: whatever is already queued is coalesced, nothing is
	// waited for.
	BatchWindow time.Duration
	// QueueDepth is the per-class request queue capacity. A Predict
	// against the request's full class queue fails fast with
	// ErrOverloaded (admission control: shedding at the door keeps
	// queueing delay bounded under overload). Zero means
	// DefaultQueueDepth.
	QueueDepth int
	// Classes optionally overrides per-class scheduling (weight,
	// micro-batch cap, window, queue depth), indexed by Class.
	Classes [NumClasses]ClassConfig
	// ShardConfigs, when non-empty, makes the serving tier
	// heterogeneous: constructors that build their own replicas (the
	// facade's NewServer, through NewShards) build shard i from
	// ShardConfigs[i] — different partition methods, tile shapes, cache
	// or pipeline settings per replica — and Shards becomes
	// len(ShardConfigs). serve.New itself ignores it (its engines are
	// already built).
	ShardConfigs []core.Config
	// HotCache sizes the serving-tier hot-row embedding cache shared by
	// every shard (see package hotcache). The facade's NewServer builds
	// one cache from this and hands it to each engine replica; a zero
	// CapacityBytes leaves serving bit-identical to a cache-less
	// deployment. Ignored by New, which takes already-built engines.
	HotCache hotcache.Config
	// Pipeline lets each shard worker overlap consecutive queued
	// micro-batches using the greedy LINK/DPUS/HOST schedule of
	// internal/core's batch pipeliner: while one batch runs its lookup
	// kernels, the next batch's indices can already cross the host link.
	// Predictions and per-request ModeledNs are unchanged; the overlap
	// shows up as Response.PipelinedNs (the overlap-aware shard
	// residency) and Stats.PipelineSpeedup (the modeled throughput
	// gain, >= 1 by construction).
	Pipeline bool
	// ShardPipeline, when non-empty, overrides Pipeline per shard —
	// letting a heterogeneous deployment pipeline only the replicas
	// whose configuration benefits.
	ShardPipeline []bool
	// Metrics, when set, is the registry the serving stack exports its
	// metric families to: per-class admission/shed/latency series,
	// scheduler dispatch decisions, queue depths, router profiles,
	// update-lane counters, hot-cache per-table counters and engine
	// stage histograms. The instruments behind Stats exist either way
	// (on a private registry when this is nil); setting Metrics exports
	// them and adds the scrape-only families, whose hot-path cost is a
	// few pre-resolved atomic updates (zero added allocations). Each
	// Server needs its own registry — the families are registered at
	// construction and re-registration panics.
	Metrics *obs.Registry
	// Tracer, when set, samples per-request stage-span traces (queue
	// wait, breakdown stages, reply) into its ring buffer — exposed via
	// obs.Handler's /debug/traces.
	Tracer *obs.Tracer
	// Governor, when BudgetBytes is positive, deploys a pressure
	// governor over the server's tracked memory consumers (hot-cache
	// occupancy, per-shard scratch arenas, queued requests) with a
	// degradation ladder: at the High watermark the hot cache shrinks
	// and arena growth is capped; at the Critical watermark Batch-class
	// admission sheds; only past the full budget does Normal shed.
	// Critical is never governor-shed. A zero BudgetBytes deploys no
	// governor and serving is unchanged.
	Governor governor.Config
	// ReprobeInterval, when positive, re-runs each shard's static cost
	// probes (EstimateBreakdown at batch sizes 1 and MaxBatch) on that
	// cadence and folds the results into the router's live profile, so
	// a profile gone stale during a traffic lull — or drifted after
	// online updates reshaped the tables — re-anchors to current costs.
	// Probes broadcast through the update lane and run on each shard's
	// own worker, never concurrently with its batches.
	ReprobeInterval time.Duration
}

// Defaults for Config zero values.
const (
	DefaultShards     = 2
	DefaultMaxBatch   = 32
	DefaultQueueDepth = 1024
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// pipelineFor reports whether the given shard's worker overlaps
// batches.
func (c Config) pipelineFor(shard int) bool {
	if shard < len(c.ShardPipeline) {
		return c.ShardPipeline[shard]
	}
	return c.Pipeline
}

// Request is one inference request: dense features plus one multi-hot
// index set per embedding table, tagged with a QoS class (the zero
// value is Normal).
type Request struct {
	Dense  []float32
	Sparse [][]int32
	// Class is the request's QoS class; untagged requests are Normal.
	Class Class
}

// Response is the served outcome of one request.
type Response struct {
	// CTR is the prediction.
	CTR float32
	// Class is the request's QoS class.
	Class Class
	// Shard is the engine replica that ran the request's micro-batch.
	Shard int
	// BatchSize is how many requests the micro-batch coalesced.
	BatchSize int
	// QueueNs is the measured wall-clock time from enqueue to dispatch.
	QueueNs float64
	// Breakdown is the micro-batch's modeled latency (shared by every
	// request in the batch — they ran as one trace.Batch).
	Breakdown metrics.Breakdown
	// PipelinedNs is the micro-batch's modeled shard-residency latency
	// when the worker overlaps consecutive batches (Config.Pipeline):
	// completion minus dispatch on the worker's LINK/DPUS/HOST schedule,
	// including any modeled wait behind the previous batch's stages. It
	// is informational — not additive with QueueNs, which already
	// measures the real wait behind earlier batches — and zero when
	// pipelining is disabled. The overlap's throughput gain is reported
	// by Stats.PipelineSpeedup.
	PipelinedNs float64
	// SpanNs is this request's own queue-entry-to-reply span: its
	// measured QueueNs plus the batch's modeled shard residency (the
	// overlap-aware PipelinedNs when the shard pipelines, the serial
	// breakdown total otherwise). Unlike ModeledNs — which every request
	// of a coalesced micro-batch shares except for queueing — SpanNs
	// attributes the batch's pipelined residency to each request
	// individually, so two requests coalesced into one batch report
	// different spans when they entered the queue at different times.
	SpanNs float64
}

// ModeledNs is the request's end-to-end modeled latency: queueing plus
// the batch's modeled execution time. Pipelining does not change it —
// one batch's own stages run sequentially either way; overlap helps
// throughput (Stats.PipelineSpeedup), not a single batch's service
// time.
func (r Response) ModeledNs() float64 { return r.QueueNs + r.Breakdown.TotalNs() }

// pending is a queued request awaiting its micro-batch.
type pending struct {
	req  Request // private copy; the caller keeps its buffers
	ctx  context.Context
	enq  time.Time
	done chan outcome // buffered 1; never blocks the worker
	// deadline orders the request within its class's micro-batch window
	// (EDF) when SLO admission is on: the caller's context deadline when
	// set, else enqueue + the class's SLO target. Zero means no deadline
	// — the request sorts FIFO after every deadlined one.
	deadline time.Time
}

type outcome struct {
	resp Response
	err  error
}

// copyRequest deep-copies a request so the server never aliases
// caller-owned slices after Predict returns. All tables' indices share
// one backing array; each Sparse[t] is a view of it with its capacity
// clipped to its length, so appending to one cannot reach the next.
func copyRequest(req Request) Request {
	n := 0
	for _, idx := range req.Sparse {
		n += len(idx)
	}
	flat := make([]int32, 0, n)
	cp := Request{
		Dense:  append([]float32(nil), req.Dense...),
		Sparse: make([][]int32, len(req.Sparse)),
		Class:  req.Class,
	}
	for t, idx := range req.Sparse {
		lo := len(flat)
		flat = append(flat, idx...)
		cp.Sparse[t] = flat[lo:len(flat):len(flat)]
	}
	return cp
}

// Server shards engine replicas behind the QoS scheduler.
type Server struct {
	cfg   Config
	class [NumClasses]classParams

	// execs are the shard slots the scheduler dispatches to, one worker
	// goroutine each. engines lists the local replicas behind them, for
	// what only an engine offers (static cost probes, arena governance,
	// stage instruments); it is empty when the executors are not local
	// engines.
	execs   []Executor
	engines []*core.Engine

	numTables    int
	rowsPerTable []int
	denseDim     int
	embDim       int

	mu      sync.RWMutex // guards closed + the classCh/updateCh sends against Close
	closed  bool
	classCh [NumClasses]chan *pending
	// updateCh is the update lane's admission queue: ApplyDeltas jobs
	// the scheduler broadcasts to every shard ahead of further
	// micro-batches.
	updateCh chan *updateJob

	shardCh []chan *microBatch
	router  *router
	wg      sync.WaitGroup

	// obs is the one record of serving events, behind both Stats and
	// the exported metrics; tracer samples per-request stage traces (nil
	// disables).
	obs    *serveObs
	tracer *obs.Tracer
	// cache is the hot-row cache shared by all replicas (nil when
	// disabled); kept for stats reporting.
	cache *hotcache.Cache

	// gov is the pressure governor (nil when Config.Governor.BudgetBytes
	// is zero); govHighFrac and origCacheCap are the shrink step's
	// anchors (the watermark overage is shed from the cache, and release
	// restores the configured capacity).
	gov          *governor.Governor
	govHighFrac  float64
	origCacheCap int64
	// shedMask is the governor's admission gate: bit (1 << Class) set
	// means Predict sheds that class at the door. Critical's bit is
	// never set by the ladder.
	shedMask atomic.Uint32
	// hasSLO is set when any class configures SLOTargetNs: it gates the
	// deadline stamping, EDF ordering and SLO admission checks so a
	// depth-only server runs the exact pre-SLO path.
	hasSLO bool
	// predWait and predWaitStamp are the scheduler-published per-class
	// predicted admission waits (ns) and their freshness stamp (unix
	// ns); Predict's SLO check is one atomic load against them.
	predWait      [NumClasses]atomic.Int64
	predWaitStamp atomic.Int64
	// reprobeStop ends the background re-probe loop (nil when
	// ReprobeInterval is zero).
	reprobeStop chan struct{}
	// Governor-tick bookkeeping (touched only from the governor's
	// serialized observation callback): counter baselines for the
	// metrics diff and the per-table hit baseline of the adaptive
	// cache-budget rebalance.
	lastTransitions int64
	lastResizes     int64
	tickCount       int64
	lastTableHits   []int64

	// testHookBatch, when set, runs in each worker just before a
	// micro-batch executes — tests use it to hold workers and fill the
	// queues deterministically. testHookRoute runs in the scheduler as
	// each micro-batch is routed — tests use it to record the dispatch
	// order and shard choice.
	testHookBatch func(shard int, mb *microBatch)
	testHookRoute func(class Class, size int, shard int)
}

// New starts a server over the given engine replicas. All replicas must
// serve the same model shape (their partitioning may differ — that is
// the heterogeneous-shard case the router exists for). The server owns
// background goroutines until Close.
func New(engines []*core.Engine, cfg Config) (*Server, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("serve: no engines")
	}
	first := engines[0]
	for i, e := range engines[1:] {
		if e.NumTables() != first.NumTables() || e.DenseDim() != first.DenseDim() {
			return nil, fmt.Errorf("serve: replica %d shape differs from replica 0", i+1)
		}
		if e.HotCache() != first.HotCache() {
			return nil, fmt.Errorf("serve: replica %d does not share replica 0's hot cache", i+1)
		}
	}
	execs := make([]Executor, len(engines))
	for i, e := range engines {
		execs[i] = EngineExecutor(e)
	}
	shape := Shape{RowsPerTable: first.RowsPerTable(), DenseDim: first.DenseDim(), EmbDim: first.EmbDim()}
	return newServer(execs, engines, shape, cfg)
}

// NewWithExecutors starts a server whose shard slots are the given
// executors — the constructor deployments that do not run local engine
// replicas (the cluster frontend's gather executors) reach the
// scheduler through. Cfg.Shards becomes len(execs); the engine-only
// features (governor, re-probing, hot-cache stats) have nothing to act
// on and stay off.
func NewWithExecutors(execs []Executor, shape Shape, cfg Config) (*Server, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("serve: no executors")
	}
	return newServer(execs, nil, shape, cfg)
}

// newServer is the one constructor behind New and NewWithExecutors.
func newServer(execs []Executor, engines []*core.Engine, shape Shape, cfg Config) (*Server, error) {
	cfg.Shards = len(execs)
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		execs:        execs,
		engines:      engines,
		numTables:    len(shape.RowsPerTable),
		rowsPerTable: shape.RowsPerTable,
		denseDim:     shape.DenseDim,
		embDim:       shape.EmbDim,
		shardCh:      make([]chan *microBatch, len(execs)),
		updateCh:     make(chan *updateJob, updateQueueDepth),
		router:       newRouter(len(execs)),
		tracer:       cfg.Tracer,
	}
	if len(engines) > 0 {
		s.cache = engines[0].HotCache()
	}
	for c := Class(0); c < NumClasses; c++ {
		s.class[c] = cfg.classParams(c)
		s.classCh[c] = make(chan *pending, s.class[c].depth)
		if s.class[c].sloNs > 0 {
			s.hasSLO = true
		}
	}
	// Build the pressure governor (if budgeted) before the instrument
	// set, so the governor gauges' scrape callbacks read a live
	// governor; it is not started until the end of construction.
	if cfg.Governor.BudgetBytes > 0 {
		if err := s.initGovernor(cfg.Governor); err != nil {
			return nil, err
		}
	}
	// Register the metric families and scrape-time callbacks before any
	// goroutine starts: registration locks and allocates, the running
	// hot path must not.
	s.obs = newServeObs(cfg.Metrics, s)
	// Seed each engine shard's cost profile from its static probes, so
	// the very first batches already route toward the configuration
	// predicted cheapest for their size; live observations take over via
	// the EWMA. Engines are idle here, so the probes' use of the scratch
	// arena is safe. Executors without an engine start unprofiled and
	// route by backlog until their first batches report.
	for i := range engines {
		s.router.seed(i, s.probe(i))
	}
	for i := range execs {
		s.shardCh[i] = make(chan *microBatch, shardChanCap)
	}
	s.wg.Add(1)
	go s.scheduler()
	for i := range execs {
		s.wg.Add(1)
		go s.worker(i)
	}
	if cfg.ReprobeInterval > 0 && len(engines) > 0 {
		s.reprobeStop = make(chan struct{})
		s.wg.Add(1)
		go s.prober()
	}
	if s.gov != nil {
		s.gov.Start()
	}
	return s, nil
}

// probe runs an engine shard's static cost probes — one single-request
// batch and one MaxBatch-sized batch, pinning the affine
// fixed-plus-marginal cost fit. Only the shard's own worker (or the
// constructor, before workers start) may call it: the probes use the
// engine's scratch arena.
func (s *Server) probe(shard int) []profilePoint {
	eng := s.engines[shard]
	var points []profilePoint
	if bd, n, err := eng.EstimateBreakdown(1); err == nil {
		points = append(points, profilePoint{n: n, cost: bd.TotalNs(), bd: bd})
	}
	if s.cfg.MaxBatch > 1 {
		if bd, n, err := eng.EstimateBreakdown(s.cfg.MaxBatch); err == nil &&
			(len(points) == 0 || n != points[0].n) {
			points = append(points, profilePoint{n: n, cost: bd.TotalNs(), bd: bd})
		}
	}
	return points
}

// Config returns the normalized runtime configuration.
func (s *Server) Config() Config { return s.cfg }

// NumTables returns the number of embedding tables requests must carry.
func (s *Server) NumTables() int { return s.numTables }

// RowsPerTable returns a copy of the served table sizes.
func (s *Server) RowsPerTable() []int {
	return append([]int(nil), s.rowsPerTable...)
}

// DenseDim returns the dense feature width requests must carry.
func (s *Server) DenseDim() int { return s.denseDim }

// validate checks a request against the served model shape.
func (s *Server) validate(req Request) error {
	if req.Class >= NumClasses {
		return fmt.Errorf("%w: unknown class %d", ErrBadRequest, req.Class)
	}
	if len(req.Dense) != s.denseDim {
		return fmt.Errorf("%w: %d dense features, want %d", ErrBadRequest, len(req.Dense), s.denseDim)
	}
	if len(req.Sparse) != s.numTables {
		return fmt.Errorf("%w: %d sparse sets, want %d", ErrBadRequest, len(req.Sparse), s.numTables)
	}
	for t, idx := range req.Sparse {
		rows := s.rowsPerTable[t]
		for _, v := range idx {
			if v < 0 || int(v) >= rows {
				return fmt.Errorf("%w: table %d index %d out of [0,%d)", ErrBadRequest, t, v, rows)
			}
		}
	}
	return nil
}

// Predict enqueues one request on its class's queue and blocks until
// its micro-batch has been served (or ctx is done). A full class queue
// fails fast with ErrOverloaded rather than blocking: under sustained
// overload the queueing delay of an unbounded wait would dominate every
// latency percentile, so the server sheds at the door and lets the
// caller retry or back off — and because admission is per class, a
// Batch flood sheds Batch traffic without consuming Critical's
// capacity. It is safe for concurrent use. The request's buffers are
// copied at enqueue, so the caller may reuse them as soon as Predict
// returns — even on cancellation, when the queued copy may still be
// dispatched (and dropped) later.
func (s *Server) Predict(ctx context.Context, req Request) (Response, error) {
	if err := s.validate(req); err != nil {
		return Response{}, err
	}
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	// Governor pressure shed: the degradation ladder gates whole classes
	// at the door (Batch at the Critical watermark, Normal past the full
	// budget, Critical never) so pressure is relieved before it reaches
	// the classes that must keep serving. One atomic load when no
	// governor runs.
	if mask := s.shedMask.Load(); mask&(1<<req.Class) != 0 {
		s.obs.recordShed(req.Class, shedPressure)
		return Response{}, Overload(LanePredict)
	}
	p := &pending{req: copyRequest(req), ctx: ctx, enq: time.Now(), done: make(chan outcome, 1)}
	if s.hasSLO {
		if d, ok := ctx.Deadline(); ok {
			p.deadline = d
		} else if slo := s.class[req.Class].sloNs; slo > 0 {
			p.deadline = p.enq.Add(time.Duration(slo))
		}
		// SLO admission: when a strictly higher-priority class with a
		// target is predicted to miss it, shed this lower class early —
		// refusing deferrable work at the door instead of letting it
		// queue ahead of the latency objective. Estimates older than the
		// freshness window (an idle or draining scheduler) never shed.
		for _, h := range classOrder {
			if h.rank() >= req.Class.rank() {
				break
			}
			slo := s.class[h].sloNs
			if slo <= 0 || s.predWait[h].Load() <= slo {
				continue
			}
			if p.enq.UnixNano()-s.predWaitStamp.Load() < predWaitFreshnessNs {
				s.obs.recordShed(req.Class, shedSLO)
				return Response{}, Overload(LanePredict)
			}
		}
	}

	// Hold the read lock across the send so Close cannot close the
	// class queue under a sender; the send itself never blocks (a full
	// queue sheds).
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Response{}, ErrClosed
	}
	select {
	case s.classCh[req.Class] <- p:
		s.mu.RUnlock()
		s.obs.recordAdmit(req.Class)
	default:
		s.mu.RUnlock()
		s.obs.recordShed(req.Class, shedQueueFull)
		return Response{}, Overload(LanePredict)
	}

	select {
	case out := <-p.done:
		return out.resp, out.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// worker owns one executor: it turns each routed micro-batch into a
// trace.Batch, runs it, reports the observed breakdown back to the
// shard's cost profile, and fans results back out per request. With
// pipelining enabled for the shard it overlaps consecutive
// micro-batches on the greedy LINK/DPUS/HOST schedule of internal/core's
// batch pipeliner: each batch's modeled arrival is its dispatch wall
// time on the worker's timeline, so an idle shard behaves exactly like
// the serial worker while a backlogged one pushes batch i+1's indices
// during batch i's lookup kernels.
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	exec := s.execs[shard]
	pipelined := s.cfg.pipelineFor(shard)
	// Pipelined-mode state: the resource schedule, the serial-rule
	// completion clock it is compared against, and the wall-clock anchor
	// (first dispatch) both timelines are measured from.
	var sched core.PipeSched
	var serialFree float64
	var anchor time.Time
	// The worker's recycled batch arena: one trace and one flattened
	// batch, refilled per micro-batch (sample rows alias the requests'
	// private copies), so dispatch allocates nothing at steady state.
	tr := trace.Trace{
		NumTables:    s.numTables,
		RowsPerTable: s.rowsPerTable,
		DenseDim:     s.denseDim,
	}
	var batch trace.Batch
	// trec is the worker's recycled trace record: sampled requests fill
	// it and the tracer copies it into its ring, so tracing allocates
	// nothing on the serving path.
	var trec obs.TraceRecord
	for mb := range s.shardCh[shard] {
		// Update-lane broadcasts apply on the worker goroutine, so a
		// shard's deltas never race its batches; FIFO channel order
		// keeps every replica's row-version sequence identical.
		if mb.update != nil {
			job := mb.update
			putMicroBatch(mb)
			if job.probe {
				s.applyProbe(shard, job)
			} else {
				s.applyUpdate(shard, job)
			}
			continue
		}
		// Drop requests whose caller already gave up: their Predict has
		// returned, nobody reads the outcome, and they should not skew
		// the batch or the stats.
		pend := mb.pend
		live := pend[:0]
		for _, p := range pend {
			if err := p.ctx.Err(); err != nil {
				p.done <- outcome{err: err}
				continue
			}
			live = append(live, p)
		}
		pend = live
		if len(pend) == 0 {
			s.router.complete(shard, mb.predNs, metrics.Breakdown{}, 0)
			putMicroBatch(mb)
			continue
		}
		if s.testHookBatch != nil {
			s.testHookBatch(shard, mb)
		}
		dispatch := time.Now()
		tr.Samples = tr.Samples[:0]
		for _, p := range pend {
			tr.Samples = append(tr.Samples, trace.Sample{Dense: p.req.Dense, Sparse: p.req.Sparse})
		}
		batch.Reset(&tr, 0, len(pend))
		ctr, bd, mram, err := runBatch(exec, &batch)
		if err != nil {
			s.obs.recordErrors(len(pend))
			s.router.complete(shard, mb.predNs, metrics.Breakdown{}, 0)
			for _, p := range pend {
				p.done <- outcome{err: fmt.Errorf("serve: shard %d: %w", shard, err)}
			}
			putMicroBatch(mb)
			continue
		}
		// Pipelined schedule: place this batch at its dispatch time on
		// the worker timeline and compare against the serial rule
		// (wait for the previous batch, then run every stage back to
		// back). Schedule never exceeds the serial completion, so
		// pipeLat <= serialLat batch by batch and the reported speedup
		// is >= 1 by construction.
		var pipeLat, serialLat float64
		if pipelined {
			if anchor.IsZero() {
				anchor = dispatch
			}
			arrival := float64(dispatch.Sub(anchor).Nanoseconds())
			serialEnd := max(arrival, serialFree) + bd.TotalNs()
			serialFree = serialEnd
			serialLat = serialEnd - arrival
			pipeLat = sched.Schedule(arrival, bd) - arrival
			// The schedule adds stages incrementally while TotalNs sums
			// them in one pass; fp associativity can leave pipeLat a few
			// ulps above serialLat on an idle shard. Overlap never
			// models slower than serial, so clamp.
			if pipeLat > serialLat {
				pipeLat = serialLat
			}
		}
		// residency is the batch's modeled time on the shard from this
		// dispatch: overlap-aware when pipelined, the serial breakdown
		// total otherwise. Each request's SpanNs adds its own measured
		// queue wait — per-request attribution inside the coalesced
		// batch, not the batch's shared number.
		residency := bd.TotalNs()
		if pipelined {
			residency = pipeLat
		}
		// Record and release the router charge before replying, so a
		// caller's Stats() after its Predict returns already counts the
		// request.
		s.obs.recordBatch(shard, mram, serialLat, pipeLat)
		s.router.complete(shard, mb.predNs, bd, len(pend))
		for i, p := range pend {
			queueNs := float64(dispatch.Sub(p.enq).Nanoseconds())
			resp := Response{
				CTR:         ctr[i],
				Class:       mb.class,
				Shard:       shard,
				BatchSize:   len(pend),
				QueueNs:     queueNs,
				Breakdown:   bd,
				PipelinedNs: pipeLat,
				SpanNs:      queueNs + residency,
			}
			s.obs.recordResponse(&resp)
			p.done <- outcome{resp: resp}
			if seq, ok := s.tracer.Sample(); ok {
				s.traceRequest(&trec, seq, &resp, dispatch)
			}
		}
		putMicroBatch(mb)
	}
}

// traceRequest fills the worker's recycled record with one sampled
// request's stage spans — measured queue wait, the batch's modeled
// breakdown stages, and the measured reply fan-out — and hands it to
// the tracer (which copies it into its ring).
func (s *Server) traceRequest(rec *obs.TraceRecord, seq uint64, resp *Response, dispatch time.Time) {
	*rec = obs.TraceRecord{
		Seq:       seq,
		Time:      dispatch,
		Class:     resp.Class.String(),
		Shard:     resp.Shard,
		BatchSize: resp.BatchSize,
		QueueNs:   resp.QueueNs,
		TotalNs:   resp.SpanNs,
	}
	rec.AddSpan("queue_wait", resp.QueueNs, "measured")
	bd := &resp.Breakdown
	rec.AddSpan("cpu_to_dpu", bd.CPUToDPUNs, "modeled")
	rec.AddSpan("dpu_lookup", bd.DPULookupNs, "modeled")
	rec.AddSpan("dpu_to_cpu", bd.DPUToCPUNs, "modeled")
	rec.AddSpan("host_agg", bd.HostAggNs, "modeled")
	if bd.HostCacheNs > 0 {
		rec.AddSpan("host_cache", bd.HostCacheNs, "modeled")
	}
	if bd.UpdateNs > 0 {
		rec.AddSpan("update", bd.UpdateNs, "modeled")
	}
	rec.AddSpan("mlp", bd.MLPNs, "modeled")
	rec.AddSpan("reply", float64(time.Since(dispatch).Nanoseconds()), "measured")
	s.tracer.Record(rec)
}

// Close stops accepting requests, drains the queues (every already
// enqueued request is still served), and waits for all shards to
// finish. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for c := range s.classCh {
			close(s.classCh[c])
		}
		close(s.updateCh)
		if s.reprobeStop != nil {
			close(s.reprobeStop)
		}
	}
	s.mu.Unlock()
	// Stopping the governor releases any still-engaged ladder steps
	// (restoring cache capacity and arena caps); idempotent, like the
	// rest of Close.
	if s.gov != nil {
		s.gov.Close()
	}
	s.wg.Wait()
}

// Stats snapshots the server's cumulative serving statistics, folding
// in the shared hot-row cache's counters when one is deployed and the
// router's per-shard profiles.
func (s *Server) Stats() Stats {
	st := s.obs.snapshot()
	st.Shards = s.router.snapshot()
	for c := Class(0); c < NumClasses; c++ {
		st.PredictedWaitNs[c] = float64(s.predWait[c].Load())
	}
	if s.gov != nil {
		snap := s.gov.Snapshot()
		st.GovernorBand = snap.Band.String()
		st.GovernorPeakBand = snap.PeakBand.String()
		st.GovernorPressure = snap.Pressure
		st.GovernorBudgetBytes = snap.BudgetBytes
		st.GovernorTrackedBytes = snap.TrackedBytes
		st.GovernorTransitions = snap.Transitions
	}
	if s.cache != nil {
		st.CacheCapacityBytes = s.cache.CapacityBytes()
		st.CacheResizes = s.cache.Resizes()
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheHitRate = cs.HitRate()
		st.CacheAdmitted = cs.Admitted
		st.CacheRejected = cs.Rejected
		st.CacheEvicted = cs.Evicted
		st.CacheEntries = cs.Entries
		st.CacheBytesSaved = cs.BytesSaved
		st.CacheInvalidations = cs.Invalidations
		st.CacheNegativeHits = cs.NegativeHits
		st.CacheBadFills = cs.BadFills
	}
	return st
}

// HotCache returns the shared hot-row cache (nil when disabled).
func (s *Server) HotCache() *hotcache.Cache { return s.cache }
