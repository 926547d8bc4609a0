// Package core is UpDLRM itself: the DPU-offloaded DLRM inference engine
// of Figure 4. At construction it partitions every embedding table across
// the DPU set with one of the three §3 strategies (mining GRACE cache
// lists first when cache-aware) and loads the tile map. Each batch then
// runs the three-stage embedding pipeline — push indices (stage 1), run
// the multi-hot lookup/aggregate kernels on all DPUs (stage 2), pull
// per-DPU partial sums (stage 3) — followed by host-side aggregation and
// the dense MLPs on the CPU.
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"updlrm/internal/dlrm"
	"updlrm/internal/emt"
	"updlrm/internal/grace"
	"updlrm/internal/hosthw"
	"updlrm/internal/hotcache"
	"updlrm/internal/metrics"
	"updlrm/internal/partition"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
	"updlrm/internal/upmem"
)

// Config assembles an UpDLRM engine.
type Config struct {
	// HW is the DPU hardware model.
	HW upmem.HWConfig
	// Host is the CPU model used for final aggregation and the MLPs.
	Host hosthw.CPUModel
	// TotalDPUs is the DPU count shared by all tables (256 in §4.1: two
	// UPMEM modules). Must be divisible by the table count.
	TotalDPUs int
	// Engine selects the kernel timing engine.
	Engine upmem.TimingEngine
	// Method selects the §3 partitioning strategy.
	Method partition.Method
	// ForcedNc pins N_c (Figures 9/10 fix it to 2, 4, 8); 0 lets the
	// §3.1 optimizer choose.
	ForcedNc int
	// Grace configures the cache-list miner (cache-aware method only).
	Grace grace.Config
	// CacheCapacityFrac is Algorithm 1's cache budget as a fraction of
	// the mined lists' storage requirement (§3.3: 0.4/0.7/1.0).
	CacheCapacityFrac float64
	// BatchSize is used by the shape optimizer's workload estimate.
	BatchSize int
	// QuantizeEMT stores embeddings as int8 in MRAM (EVStore-style mixed
	// precision, §5 related work): reads shrink 4x at a small accuracy
	// cost. Quantization materializes the tables, so use it with scaled
	// workloads.
	QuantizeEMT bool
	// HostWorkers bounds the dense-compute worker pool (per-worker GEMM
	// workspaces the host pool shards row-blocks over). Zero means one
	// worker per host core (capped at maxHostWorkers); multi-engine deployments
	// (serving shards) should divide the cores among replicas so the
	// pools do not oversubscribe the machine — serve.NewShards does.
	HostWorkers int
	// WriteRatio is the expected embedding-update traffic (row deltas
	// per lookup) the deployment will sustain. It flows into the shape
	// optimizer's workload and the cache-aware planner, so write-heavy
	// presets partition differently from read-only ones; zero (the
	// default) reproduces read-only planning exactly.
	WriteRatio float64
	// Kernel selects the host GEMM tier the dense model runs on.
	// tensor.KernelExact (the zero value) is bit-identical to the
	// per-sample reference path; tensor.KernelFast runs the AVX2/FMA
	// 8-lane kernels, identical up to float32 summation order (bound the
	// CTR divergence with a tolerance, e.g. updlrm-verify -tol).
	Kernel tensor.Kernel
	// PlanTables, when positive, overrides the table count the shape
	// optimizer's workload estimate sees. A cluster backend serving a
	// slice of a larger deployment pins this to the global table count so
	// its per-table partition plans come out identical to a single-node
	// engine over the full model (the plans' other inputs — rows, dim,
	// DPUs per table, per-table frequencies and grace lists — are already
	// slice-invariant). Zero derives the count from the model as before.
	PlanTables int
	// PlanAvgReduction, when positive, overrides the profile-derived
	// average reduction (pooling factor) the workload estimate uses —
	// the cluster analogue of PlanTables: a backend's sliced profile
	// yields the slice's average, not the deployment's. Zero derives it
	// from the profile as before.
	PlanAvgReduction float64
	// HotCache is the serving-tier hot-row cache the engine probes
	// before dispatching lookups to the DPUs. Rows it serves are
	// aggregated on the host (Breakdown.HostCacheNs) and never enter the
	// three-stage DPU pipeline; misses proceed exactly as without a
	// cache and are offered back for admission. Nil disables the path
	// bit-for-bit. Several replicas may share one instance (the serving
	// runtime does).
	HotCache *hotcache.Cache
}

// Clone returns a copy of the config for per-shard overrides: value
// fields (partitioning method, tile shape, quantization, worker-pool
// width) may be changed freely on the copy, while reference fields —
// HotCache in particular — stay shared, which is exactly what a
// heterogeneous serving tier wants (one admission filter and hit-rate
// accounting across all replicas). Serving constructors clone a base
// config per shard before applying that shard's overrides.
func (c Config) Clone() Config { return c }

// DefaultConfig returns the paper's evaluation configuration: 256 DPUs,
// cache-aware partitioning with a full cache budget, batch 64.
func DefaultConfig() Config {
	return Config{
		HW:                upmem.DefaultConfig(),
		Host:              hosthw.DefaultCPU(),
		TotalDPUs:         256,
		Engine:            upmem.ClosedForm,
		Method:            partition.MethodCacheAware,
		Grace:             grace.DefaultConfig(),
		CacheCapacityFrac: 1.0,
		BatchSize:         64,
	}
}

// maxHostWorkers bounds the dense-compute worker pool (and its per-
// worker activation workspaces) on very wide hosts.
const maxHostWorkers = 16

// Engine is a ready-to-serve UpDLRM instance. It is not safe for
// concurrent use: every batch runs through an engine-owned scratch
// arena (flat embedding buffer, kernel jobs, transfer-size and
// partial-sum storage) that is recycled from one RunBatch to the next —
// the allocation-free hot path. Run replicas (see internal/serve) for
// parallel serving.
type Engine struct {
	cfg    Config
	model  *dlrm.Model
	sys    *upmem.System
	plans  []*partition.Plan
	assign []*grace.Assignment // nil entries for non-CA plans
	// baseDPU[t] is the first global DPU index of table t's group.
	baseDPU []int
	// fetchers[t][part] materializes MRAM content for table t's row
	// partition part, all column slices at once. One closure per
	// partition: each owns a private staging buffer (a kernel's reads run
	// serially, and no two kernels share a closure), so fetching never
	// allocates.
	fetchers [][]func(rows []int32, dst []float32)
	// tables are the MRAM-resident views (quantized when configured).
	tables []emt.Table
	// mutables[t] is the copy-on-write overlay absorbing row deltas for
	// table t — nil until the first ApplyDeltas touches the table, at
	// which point tables[t] is swapped to the overlay. Model tables are
	// shared across replicas (dlrm.Model.Clone), so writes always go
	// through a per-engine overlay, never the base storage.
	mutables []emt.MutableTable
	// bytesPerElem is the MRAM element width (4 fp32, 1 int8).
	bytesPerElem int
	// avgRed is the profile's average reduction, kept for worst-case
	// buffer sizing.
	avgRed float64
	// hostPool is the dense-compute worker pool: per-worker batch-major
	// GEMM activation workspaces (part of the engine's recycled scratch
	// arena — sized on first batch, reused thereafter) over the shared
	// read-only model weights, so HostPool.Forward can shard GEMM
	// row-blocks across the host bit-identically to the serial path.
	hostPool *dlrm.HostPool
	// offerFills[t] materializes a row of table t that the hot-row cache
	// admits (returning the row's version for the entry stamp) — prebuilt
	// so the cache split in runWave does not allocate closures.
	offerFills []func(row int32, dst []float32) uint64
	// profile is the construction profile trace, retained so
	// EstimateBreakdown can assemble representative probe batches after
	// construction (serving routers seed per-shard cost priors from it).
	profile *trace.Trace
	// sc is the per-engine scratch arena RunBatch recycles; up is
	// ApplyDeltas' counterpart.
	sc scratch
	up updateScratch
	// arenaBytes is the scratch arena's recycled footprint as of the
	// last completed batch; arenaCap, when positive, bounds it — the
	// memory governor's lever on engine growth. Both are atomics so the
	// governor can read/set them from its own goroutine while the
	// engine's worker runs batches.
	arenaBytes atomic.Int64
	arenaCap   atomic.Int64
	// obs is the optional instrument set (see InstrumentEngines); nil
	// when the engine is uninstrumented.
	obs *EngineObs
}

// scratch is the engine's reusable batch arena. Everything here is
// sized on first use and recycled: a steady-state RunBatch performs no
// heap allocation.
type scratch struct {
	// res is the Result every batch hands out.
	res Result
	// embs is the flat (batch x tables x dim) embedding buffer Results
	// expose.
	embs tensor.EmbBuf
	// ctr is the CTR output buffer.
	ctr []float32
	// jobs[d] points into jobStore when d is the first slice DPU of a row
	// partition with reads this wave, nil otherwise: a partition's slice
	// DPUs all receive the same reads, so the partition has one job
	// (upmem.KernelJob.Slices). jobStore keeps each job's Reads/Rows
	// capacity across batches.
	jobs     []*upmem.KernelJob
	jobStore []upmem.KernelJob
	// pushSizes and pullSizes are the per-DPU stage-1/stage-3 payloads.
	pushSizes, pullSizes []int64
	// step holds kernel outputs; its partial-sum storage is recycled by
	// upmem.RunStepInto.
	step upmem.StepResult
	// cover plans cache-aware group reads without per-sample maps.
	cover grace.CoverPlanner
	// coldScratch collects a sample's cache-missing rows.
	coldScratch []int32
}

// Result is one batch's outcome.
//
// A Result lives in the engine's scratch arena, and so do the buffers
// its CTR and Embeddings point at: all of it is valid until the next
// RunBatch, RunEmbeddings or EstimateBreakdown on the same engine, which
// overwrites the struct and recycles the buffers in place. Copy what
// must outlive that (the struct by value, CTR with append, Embeddings
// with Clone) — RunTrace and the serving runtime already do.
type Result struct {
	// CTR holds per-sample predictions.
	CTR []float32
	// Embeddings are the aggregated per-sample, per-table reduced
	// embeddings in the flat batch x tables x dim layout (exposed for
	// equivalence testing; index with At).
	Embeddings *tensor.EmbBuf
	// Breakdown attributes the batch's modeled latency; the three DPU
	// stages of Figure 4 fill CPUToDPUNs, DPULookupNs and DPUToCPUNs.
	Breakdown metrics.Breakdown
	// CacheHitReads counts MRAM reads served from cached partial sums.
	CacheHitReads int64
	// EMTReads counts MRAM reads served from EMT storage.
	EMTReads int64
	// MRAMBytesRead is the total MRAM traffic the batch's kernels moved.
	MRAMBytesRead int64
	// HostCacheHits counts row lookups the serving-tier hot-row cache
	// served host-side, bypassing the DPUs entirely.
	HostCacheHits int64
	// HostCacheMisses counts row lookups that probed the hot-row cache
	// and fell through to the DPU path (zero when no cache is set).
	HostCacheMisses int64
}

// Name returns the implementation label used in reports.
func (e *Engine) Name() string { return "UpDLRM" }

// NumTables returns the number of embedding tables the engine serves.
func (e *Engine) NumTables() int { return len(e.plans) }

// RowsPerTable returns a copy of the served model's table sizes.
func (e *Engine) RowsPerTable() []int {
	return append([]int(nil), e.model.Cfg.RowsPerTable...)
}

// DenseDim returns the width of the dense feature vector the model
// expects.
func (e *Engine) DenseDim() int { return e.model.Cfg.DenseDim }

// Plans exposes the per-table partitioning decisions.
func (e *Engine) Plans() []*partition.Plan { return e.plans }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// HotCache returns the serving-tier hot-row cache the engine probes;
// nil when the path is disabled.
func (e *Engine) HotCache() *hotcache.Cache { return e.cfg.HotCache }

// New builds an engine: it chooses tile shapes, mines cache lists (for
// cache-aware plans), partitions every table, and prepares the DPU
// system. The profile trace supplies the access frequencies and
// co-occurrence statistics §3.2/§3.3 require.
func New(model *dlrm.Model, profile *trace.Trace, cfg Config) (*Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := cfg.HW.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	numTables := model.Cfg.NumTables()
	if profile == nil || profile.NumTables != numTables {
		return nil, fmt.Errorf("core: profile tables mismatch")
	}
	if cfg.TotalDPUs <= 0 || cfg.TotalDPUs%numTables != 0 {
		return nil, fmt.Errorf("core: %d DPUs not divisible across %d tables", cfg.TotalDPUs, numTables)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: BatchSize = %d", cfg.BatchSize)
	}
	if !cfg.Kernel.Valid() {
		return nil, fmt.Errorf("core: invalid kernel tier %d", cfg.Kernel)
	}
	if cfg.Method == partition.MethodCacheAware {
		if err := cfg.Grace.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.HotCache != nil && cfg.HotCache.Dim() != model.Cfg.EmbDim {
		return nil, fmt.Errorf("core: hot cache dim %d != model EmbDim %d",
			cfg.HotCache.Dim(), model.Cfg.EmbDim)
	}
	dpusPerTable := cfg.TotalDPUs / numTables
	sys, err := upmem.NewSystem(cfg.HW, cfg.TotalDPUs, cfg.Engine)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, model: model, sys: sys, bytesPerElem: 4, profile: profile}
	for _, tb := range model.Tables {
		if cfg.QuantizeEMT {
			e.tables = append(e.tables, emt.Quantize(tb))
		} else {
			e.tables = append(e.tables, tb)
		}
	}
	if cfg.QuantizeEMT {
		e.bytesPerElem = emt.QuantizedBytesPerElem
	}

	avgRed := profile.AvgReduction()
	if cfg.PlanAvgReduction > 0 {
		avgRed = cfg.PlanAvgReduction
	}
	if avgRed < 1 {
		avgRed = 1
	}
	e.avgRed = avgRed
	planTables := numTables
	if cfg.PlanTables > 0 {
		planTables = cfg.PlanTables
	}
	w := partition.Workload{BatchSize: cfg.BatchSize, AvgReduction: avgRed, Tables: planTables,
		WriteRatio: cfg.WriteRatio}

	for t := 0; t < numTables; t++ {
		rows := model.Cfg.RowsPerTable[t]
		cols := model.Cfg.EmbDim
		if profile.RowsPerTable[t] != rows {
			return nil, fmt.Errorf("core: profile table %d rows %d != model %d",
				t, profile.RowsPerTable[t], rows)
		}
		var shape partition.Shape
		if cfg.ForcedNc > 0 {
			shape, err = partition.ShapeWithNc(rows, cols, dpusPerTable, cfg.ForcedNc, cfg.HW)
		} else {
			shape, _, err = partition.OptimalShape(rows, cols, dpusPerTable, w, cfg.HW)
		}
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", t, err)
		}
		freq := profile.Frequency(t)
		var lists []grace.List
		if cfg.Method == partition.MethodCacheAware {
			lists, err = grace.Mine(profile, t, cfg.Grace)
			if err != nil {
				return nil, fmt.Errorf("core: table %d: %w", t, err)
			}
		}
		plan, err := partition.Build(cfg.Method, rows, cols, shape, freq, lists, cfg.HW,
			partition.CacheAwareConfig{CapacityFrac: cfg.CacheCapacityFrac, WriteRatio: cfg.WriteRatio})
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", t, err)
		}
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("core: table %d plan: %w", t, err)
		}
		e.plans = append(e.plans, plan)
		if cfg.Method == partition.MethodCacheAware {
			e.assign = append(e.assign, plan.Assignment())
		} else {
			e.assign = append(e.assign, nil)
		}
		e.baseDPU = append(e.baseDPU, t*dpusPerTable)

		// One fetcher per (table, partition): sums the requested rows at
		// full width — a single row for EMT reads, several rows for a
		// cached partial-sum read — which is every slice DPU's columns in
		// slice order. emt.Table backends must be safe for concurrent
		// reads (all provided ones are); the staging buffer is private to
		// the partition, whose kernel issues reads serially, so concurrent
		// kernels never share it. The table is re-read from e.tables per
		// call (not captured) so the copy-on-write overlay ApplyDeltas
		// swaps in becomes visible to subsequent batches.
		partFetchers := make([]func(rows []int32, dst []float32), shape.Parts)
		for part := range partFetchers {
			tmp := make([]float32, cols)
			partFetchers[part] = func(rows []int32, dst []float32) {
				table := e.tables[t]
				table.ReadCols(int(rows[0]), 0, cols, dst)
				for _, r := range rows[1:] {
					table.ReadCols(int(r), 0, cols, tmp)
					tensor.Add(tmp, dst)
				}
			}
		}
		e.fetchers = append(e.fetchers, partFetchers)
	}

	// Per-table admission fills for the hot-row cache. The table is
	// re-read per call, as the fetchers do, so a fill sees the overlay.
	dim := model.Cfg.EmbDim
	e.mutables = make([]emt.MutableTable, numTables)
	for t := range e.tables {
		e.offerFills = append(e.offerFills, func(row int32, dst []float32) uint64 {
			e.tables[t].ReadCols(int(row), 0, dim, dst)
			if mt := e.mutables[t]; mt != nil {
				return mt.Version(int(row))
			}
			return 0
		})
	}

	// Dense-compute worker pool: per-worker GEMM workspaces over the
	// shared model weights, running the configured kernel tier.
	// HostPool.Forward shards the batch's GEMM row-blocks across them
	// bit-identically to the serial path on the same tier.
	workers := cfg.HostWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxHostWorkers {
		workers = maxHostWorkers
	}
	e.hostPool = dlrm.NewHostPool(model, workers, cfg.Kernel)

	// Size the per-batch scratch arena once.
	e.sc.jobs = make([]*upmem.KernelJob, cfg.TotalDPUs)
	e.sc.jobStore = make([]upmem.KernelJob, cfg.TotalDPUs)
	e.sc.pushSizes = make([]int64, cfg.TotalDPUs)
	e.sc.pullSizes = make([]int64, cfg.TotalDPUs)
	return e, nil
}

// maxKernelSamples returns the largest sample count one kernel wave can
// carry: every table's per-sample WRAM accumulators plus the tasklet
// staging buffers must fit the scratchpad. Larger batches split into
// multiple waves, each paying its own launch (what real DPU code does).
func (e *Engine) maxKernelSamples() int {
	limit := int(^uint(0) >> 1)
	for _, plan := range e.plans {
		nc := plan.Shape.Nc
		staging := int64(e.cfg.HW.Tasklets) * int64(upmem.AlignMRAM(nc*4))
		fit := int((e.cfg.HW.WRAMBytes - staging) / (int64(nc) * 4))
		if fit < limit {
			limit = fit
		}
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// RunBatch executes one batch end to end. Batches whose accumulators
// exceed WRAM run as several kernel waves. The returned Result and its
// CTR and Embeddings live in the engine's recycled scratch arena (see
// Result); the steady-state hot path allocates nothing.
func (e *Engine) RunBatch(b *trace.Batch) (*Result, error) {
	res, err := e.runEmbStages(b)
	if err != nil {
		return nil, err
	}
	sc := &e.sc
	if cap(sc.ctr) < b.Size {
		sc.ctr = make([]float32, b.Size)
	}
	sc.ctr = sc.ctr[:b.Size]

	// Dense model on the host CPU: the batch-major GEMM path, sharded
	// across the worker pool's row-blocks (bit-identical to the serial
	// per-sample path; samples are independent rows).
	e.hostPool.Forward(b, &sc.embs, sc.ctr)
	res.CTR = sc.ctr
	res.Breakdown.MLPNs = e.cfg.Host.ComputeNs(e.model.FLOPsPerSample() * int64(b.Size))
	e.obs.observeBatch(res)
	e.arenaBytes.Store(e.arenaFootprint())
	return res, nil
}

// ArenaBytes returns the scratch arena's recycled footprint as of the
// last completed batch: the flat embedding buffer, CTR output, per-DPU
// kernel job storage, step accumulators and the cold-row scratch. This
// is what a memory governor tracks per engine. (The HostPool's
// per-worker GEMM workspaces are sized by model shape, not batch
// history, and are not counted.)
func (e *Engine) ArenaBytes() int64 { return e.arenaBytes.Load() }

// SetArenaCap bounds the recycled arena footprint: after a batch whose
// footprint exceeds the cap, the next batch releases the recycled
// buffers and reallocates at its own (current) size instead of keeping
// the high-water mark forever. Zero removes the cap. A capped engine
// under oversized batches trades steady-state zero-allocation for a
// bounded footprint — graceful degradation, not a hard limit on a
// single batch's working set.
func (e *Engine) SetArenaCap(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	e.arenaCap.Store(bytes)
}

// ArenaCap returns the current cap (0 = uncapped).
func (e *Engine) ArenaCap() int64 { return e.arenaCap.Load() }

// arenaFootprint sums the recycled scratch capacities. Called on the
// engine's worker goroutine at batch end; a few dozen cap() reads, no
// allocation.
func (e *Engine) arenaFootprint() int64 {
	sc := &e.sc
	n := sc.embs.CapBytes()
	n += int64(cap(sc.ctr)) * 4
	n += int64(cap(sc.coldScratch)) * 4
	n += int64(cap(sc.pushSizes))*8 + int64(cap(sc.pullSizes))*8
	n += int64(cap(sc.jobs)) * 8
	for i := range sc.jobStore {
		n += sc.jobStore[i].FootprintBytes()
	}
	n += sc.step.FootprintBytes()
	return n
}

// trimArena releases the batch-shaped recycled buffers. Runs at the
// start of a batch (never the end), so the previous batch's Result —
// which aliases the old backing arrays — stays valid through the
// documented "until the next RunBatch" window while the arena's own
// references drop.
func (e *Engine) trimArena() {
	sc := &e.sc
	sc.embs.Release()
	sc.ctr = nil
	sc.coldScratch = nil
	for i := range sc.jobStore {
		sc.jobStore[i].ReleaseStorage()
	}
	sc.step.ReleaseStorage()
}

// RunEmbeddings runs only the embedding pipeline — the three DPU stages
// plus host aggregation — and skips the dense model entirely. The
// batch's Dense features may be nil: they are never read. This is the
// cluster-backend entry point: a node that owns a slice of the tables
// computes its partial reductions here and ships them to the frontend,
// which runs the dense path where the gather lands. The returned
// Result's CTR is nil and its Embeddings alias the scratch arena
// exactly as RunBatch's do.
func (e *Engine) RunEmbeddings(b *trace.Batch) (*Result, error) {
	res, err := e.runEmbStages(b)
	if err != nil {
		return nil, err
	}
	e.obs.observeBatch(res)
	e.arenaBytes.Store(e.arenaFootprint())
	return res, nil
}

// runEmbStages validates the batch and runs the wave loop (stages 1-3 +
// host aggregation) into the recycled scratch arena, leaving the dense
// path to the caller.
func (e *Engine) runEmbStages(b *trace.Batch) (*Result, error) {
	if b == nil || b.Size == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if len(b.Idx) != len(e.plans) {
		return nil, fmt.Errorf("core: batch has %d tables, engine %d", len(b.Idx), len(e.plans))
	}
	// Arena cap: release the previous high-water-mark buffers before
	// this batch shapes them, so the footprint re-grows to what this
	// batch actually needs. One atomic load when uncapped.
	if capBytes := e.arenaCap.Load(); capBytes > 0 && e.arenaBytes.Load() > capBytes {
		e.trimArena()
	}
	sc := &e.sc
	sc.embs.Reset(b.Size, len(e.plans), e.model.Cfg.EmbDim)
	res := &sc.res
	*res = Result{}
	wave := e.maxKernelSamples()
	for lo := 0; lo < b.Size; lo += wave {
		hi := lo + wave
		if hi > b.Size {
			hi = b.Size
		}
		if err := e.runWave(b, lo, hi, res); err != nil {
			return nil, err
		}
	}
	res.Embeddings = &sc.embs
	return res, nil
}

// addRead appends one MRAM read of rows for wave-local sample ws to the
// kernel job of table t's partition part (created on first touch,
// recycling its Reads and Rows storage from previous batches). Every
// column slice of the partition executes it.
func (e *Engine) addRead(t, ws, part, waveSize int, rows ...int32) {
	shape := e.plans[t].Shape
	d := e.baseDPU[t] + shape.DPUAt(part, 0)
	j := e.sc.jobs[d]
	if j == nil {
		j = &e.sc.jobStore[d]
		j.Reset()
		j.NumSamples = waveSize
		j.Width = shape.Nc
		j.Slices = shape.Slices
		j.BytesPerElem = e.bytesPerElem
		j.Fetch = e.fetchers[t][part]
		e.sc.jobs[d] = j
	}
	j.AddRead(ws, shape.Nc, rows...)
}

// runWave executes the three DPU stages of Figure 4 for samples
// [lo, hi) of the batch, accumulating timing into res and aggregated
// embeddings into the engine's flat embedding arena. All per-wave state
// lives in the scratch arena.
func (e *Engine) runWave(b *trace.Batch, lo, hi int, res *Result) error {
	sc := &e.sc
	waveSize := hi - lo
	clear(sc.jobs)
	clear(sc.pushSizes)
	clear(sc.pullSizes)

	// Per-wave hot-row cache hit/miss totals for the host-side timing
	// charge.
	dim := e.model.Cfg.EmbDim
	var waveHits, waveMisses, waveAdmits int64
	cache := e.cfg.HotCache

	// Build per-DPU kernel jobs (the pre-process stage of Figure 4).
	for t := range e.plans {
		plan := e.plans[t]
		shape := plan.Shape
		base := e.baseDPU[t]

		// activeSamples counts wave samples with at least one row left
		// for the DPUs after cache hits; with no cache every sample is
		// active and the stage-1/3 payloads are sized exactly as before.
		activeSamples := 0
		for s := lo; s < hi; s++ {
			indices := b.SampleIndices(t, s)
			if cache != nil {
				// Split the sample's rows: hits aggregate host-side into
				// the final embedding, misses continue to the DPU path.
				var n hotcache.BagCounts
				sc.coldScratch, n = cache.ProbeBag(t, indices, sc.embs.At(s, t), sc.coldScratch[:0], e.offerFills[t])
				waveHits += n.Hits
				waveMisses += n.Misses
				waveAdmits += n.Admitted
				indices = sc.coldScratch
				if len(indices) > 0 {
					activeSamples++
				}
			}
			if e.assign[t] != nil {
				cover := sc.cover.Plan(e.assign[t], indices)
				for _, members := range cover.GroupReads {
					part := int(plan.RowPart[members[0]])
					e.addRead(t, s-lo, part, waveSize, members...)
					res.CacheHitReads++
				}
				for _, row := range cover.Misses {
					e.addRead(t, s-lo, int(plan.RowPart[row]), waveSize, row)
					res.EMTReads++
				}
			} else {
				for _, row := range indices {
					e.addRead(t, s-lo, int(plan.RowPart[row]), waveSize, row)
					res.EMTReads++
				}
			}
		}
		// Stage-1 payload: each slice DPU receives its partition's read
		// descriptors (4 B each) plus per-sample offsets; stage-3 payload:
		// one N_c-wide partial sum per sample per DPU. With a hot-row
		// cache, fully cache-served samples drop out of both payloads —
		// the host only pushes offsets for, and pulls partials of, the
		// samples that still reach the DPUs.
		sizeSamples := waveSize
		if cache != nil {
			sizeSamples = activeSamples
		}
		for part := 0; part < shape.Parts; part++ {
			var reads int
			if j := sc.jobs[base+shape.DPUAt(part, 0)]; j != nil {
				reads = len(j.Reads)
			}
			for sl := 0; sl < shape.Slices; sl++ {
				d := base + shape.DPUAt(part, sl)
				sc.pushSizes[d] = int64(reads)*4 + int64(sizeSamples+1)*4
				sc.pullSizes[d] = int64(sizeSamples) * int64(shape.Nc) * 4
			}
		}
	}

	// Host cache service time: one hashed probe per checked row, plus
	// each hit row's fp32 payload, plus one cold-table random gather per
	// admitted row (the fill that materializes it). The hot set is a few
	// percent of embedding storage and re-touched constantly, so by
	// construction it is LLC/hot-DRAM resident — hit payloads move at
	// streaming bandwidth, not the cold-table random-gather rate the
	// baselines (and admission fills) pay.
	if checked := waveHits + waveMisses; checked > 0 {
		res.HostCacheHits += waveHits
		res.HostCacheMisses += waveMisses
		res.Breakdown.HostCacheNs += e.cfg.Host.GatherNs(checked, 8) +
			e.cfg.Host.StreamNs(waveHits*int64(dim)*4) +
			e.cfg.Host.GatherNs(waveAdmits, int64(dim)*4)
	}

	// Stage 1: CPU -> DPU index push (padded to the parallel fast path).
	push := e.cfg.HW.TransferTime(sc.pushSizes, true, upmem.Push)
	res.Breakdown.CPUToDPUNs += push.Ns

	// Stage 2: lookup kernels on all DPUs (partial-sum storage recycled
	// across waves).
	if err := e.sys.RunStepInto(sc.jobs, &sc.step); err != nil {
		return err
	}
	res.Breakdown.DPULookupNs += sc.step.StageNs
	res.MRAMBytesRead += sc.step.TotalBytes

	// Stage 3: DPU -> CPU partial-sum pull (padded; N_c can differ across
	// tables, making natural sizes ragged).
	pull := e.cfg.HW.TransferTime(sc.pullSizes, true, upmem.Pull)
	res.Breakdown.DPUToCPUNs += pull.Ns

	// Host aggregation: place each DPU's slice into the final embedding
	// and sum across partitions.
	for t := range e.plans {
		shape := e.plans[t].Shape
		base := e.baseDPU[t]
		for part := 0; part < shape.Parts; part++ {
			for sl := 0; sl < shape.Slices; sl++ {
				r := sc.step.Results[base+shape.DPUAt(part, sl)]
				if r == nil {
					continue
				}
				col0 := sl * shape.Nc
				for s := lo; s < hi; s++ {
					dst := sc.embs.At(s, t)[col0 : col0+shape.Nc]
					tensor.Add(r.Partial[s-lo], dst)
				}
			}
		}
	}
	res.Breakdown.HostAggNs += e.cfg.Host.StreamNs(pull.Bytes)
	return nil
}

// RunTrace runs every batch of the trace, returning all CTRs and the
// summed breakdown.
func (e *Engine) RunTrace(tr *trace.Trace, batchSize int) ([]float32, metrics.Breakdown, error) {
	all := make([]float32, 0, len(tr.Samples))
	var total metrics.Breakdown
	for _, b := range trace.Batches(tr, batchSize) {
		res, err := e.RunBatch(b)
		if err != nil {
			return nil, metrics.Breakdown{}, err
		}
		all = append(all, res.CTR...)
		total.Add(res.Breakdown)
	}
	return all, total, nil
}

// EstimateBreakdown is the engine's serving-profile hook: it assembles
// one probe batch from the head of the construction profile, runs it
// with the hot-row cache disabled (a probe must not perturb shared
// admission state or hit counters), and returns the modeled breakdown
// plus the probe's sample count. Because the probe exercises the
// engine's real partition plans and timing model, different shard
// configurations (partition method, tile shape, quantization) yield
// genuinely different estimates — the static prior a heterogeneous
// serving router needs before it has observed live traffic. Like
// RunBatch it recycles the scratch arena and is not safe for concurrent
// use; call it before the engine starts serving.
func (e *Engine) EstimateBreakdown(batchSize int) (metrics.Breakdown, int, error) {
	if batchSize <= 0 {
		batchSize = e.cfg.BatchSize
	}
	n := len(e.profile.Samples)
	if n == 0 {
		return metrics.Breakdown{}, 0, fmt.Errorf("core: profile has no samples to probe with")
	}
	if n > batchSize {
		n = batchSize
	}
	saved := e.cfg.HotCache
	e.cfg.HotCache = nil
	res, err := e.RunBatch(trace.MakeBatch(e.profile, 0, n))
	e.cfg.HotCache = saved
	if err != nil {
		return metrics.Breakdown{}, 0, err
	}
	return res.Breakdown, n, nil
}

// TableBytes reports the EMT storage the engine distributed across DPUs.
func (e *Engine) TableBytes() int64 {
	var total int64
	for _, tb := range e.model.Tables {
		total += emt.SizeBytes(tb)
	}
	return total
}

// LoadStats describes the one-time pre-processing cost of distributing
// the partitioned EMTs (and cached partial sums) into MRAM — the "EMT 0,
// EMT 1, ... tile" arrows of Figure 4's pre-process stage. It is paid
// once per deployment, not per batch, which is why the per-batch
// breakdowns exclude it.
type LoadStats struct {
	// TotalBytes is the total data pushed into MRAM across all DPUs.
	TotalBytes int64
	// MaxDPUBytes is the most loaded DPU's resident bytes (EMT tile +
	// cache region); it must fit MRAMBytes.
	MaxDPUBytes int64
	// LoadNs is the modeled one-time transfer time (ragged per-DPU tile
	// sizes, so the serialized path applies).
	LoadNs float64
}

// MemoryMap lays out one DPU's MRAM bank as the deployed system would:
// the EMT tile, the cache region (cache-aware plans), the per-batch
// index buffer (sized for twice the profile's average load as headroom),
// and the result buffer. It errors if the plan cannot physically fit.
func (e *Engine) MemoryMap(dpu int) (*upmem.MRAMLayout, error) {
	if dpu < 0 || dpu >= e.sys.NumDPUs() {
		return nil, fmt.Errorf("core: DPU %d out of [0,%d)", dpu, e.sys.NumDPUs())
	}
	dpusPerTable := e.sys.NumDPUs() / len(e.plans)
	t := dpu / dpusPerTable
	local := dpu % dpusPerTable
	plan := e.plans[t]
	part := local / plan.Shape.Slices
	layout, err := upmem.NewMRAMLayout(e.cfg.HW.MRAMBytes)
	if err != nil {
		return nil, err
	}
	rowsHere := int64(plan.RowsPerPart()[part])
	if _, err := layout.Alloc("emt", rowsHere*int64(plan.Shape.Nc)*int64(e.bytesPerElem)); err != nil {
		return nil, err
	}
	var cacheBytes int64
	if len(plan.CacheUsedPerPart) > 0 {
		cacheBytes = plan.CacheUsedPerPart[part]
	}
	if _, err := layout.Alloc("cache", cacheBytes); err != nil {
		return nil, err
	}
	// Index buffer: twice the expected per-partition share of a batch's
	// lookups, plus per-sample offsets.
	expected := float64(e.cfg.BatchSize) * e.avgRed / float64(plan.Shape.Parts)
	idxBytes := int64(2*expected)*4 + int64(e.cfg.BatchSize+1)*4
	if _, err := layout.Alloc("indices", idxBytes); err != nil {
		return nil, err
	}
	if _, err := layout.Alloc("results", int64(e.cfg.BatchSize)*int64(plan.Shape.Nc)*4); err != nil {
		return nil, err
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return layout, nil
}

// PreprocessStats computes the one-time load cost for the engine's
// current plans.
func (e *Engine) PreprocessStats() LoadStats {
	sizes := make([]int64, e.sys.NumDPUs())
	for t, plan := range e.plans {
		shape := plan.Shape
		base := e.baseDPU[t]
		rowsPerPart := plan.RowsPerPart()
		for part := 0; part < shape.Parts; part++ {
			tile := int64(rowsPerPart[part]) * int64(shape.Nc) * 4
			var cache int64
			if len(plan.CacheUsedPerPart) > 0 {
				cache = plan.CacheUsedPerPart[part]
			}
			for sl := 0; sl < shape.Slices; sl++ {
				sizes[base+shape.DPUAt(part, sl)] = tile + cache
			}
		}
	}
	var stats LoadStats
	for _, s := range sizes {
		stats.TotalBytes += s
		if s > stats.MaxDPUBytes {
			stats.MaxDPUBytes = s
		}
	}
	stats.LoadNs = e.cfg.HW.TransferTime(sizes, false, upmem.Push).Ns
	return stats
}
