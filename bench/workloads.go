package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"updlrm/internal/cluster"
	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/hotcache"
	"updlrm/internal/obs"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
)

// Sizes shared by every workload. They are constants, not flags: a
// number that differs between two runs is not comparable.
const (
	totalDPUs      = 64
	profileSamples = 512  // partitioner input, disjoint from the live pool
	replaySamples  = 4096 // deterministic modeled replay length
	maxBatch       = 16   // serving micro-batch cap
	updateRows     = 8    // rows per ApplyDeltas call
	updateEvery    = 16   // predicts between two ApplyDeltas calls of one client
	refTol         = 1e-4 // the repo's own engine-vs-CPU-reference tolerance
	driftTol       = 0.05 // CTR slack while +/- delta pairs are half applied
)

// kind is the deployment shape a workload drives.
type kind int

const (
	kindOffline kind = iota // direct core.Engine.RunBatch, no serving tier
	kindServer              // serve.Server
	kindCluster             // cluster.Frontend over loopback TCP backends
)

// workload is one named traffic mix and the deployment it runs on.
type workload struct {
	name   string
	kind   kind
	preset string
	// itemFrac and redFrac scale the preset's table size and pooling
	// factor to the sandbox; tables overrides the preset's table count
	// when non-zero.
	itemFrac, redFrac float64
	tables            int
	// batch is the samples per engine batch: the whole operation on
	// kindOffline, the micro-batch cap on the served kinds.
	batch  int
	shards int
	// clients is the closed-loop in-flight count per QoS class.
	clients [serve.NumClasses]int
	// cacheFrac sizes the hot-row cache as a share of table bytes.
	cacheFrac float64
	// updates makes every client call ApplyDeltas (updateRows rows) once
	// per updateEvery predicts.
	updates bool
	// warmOps is the warm-up's operations per caller: about 3 s of work.
	warmOps int
}

// replayBatches is how many engine batches the modeled replay runs.
func (w *workload) replayBatches() int { return replaySamples / w.batch }

func (w *workload) inflight() int {
	n := 0
	for _, c := range w.clients {
		n += c
	}
	return n
}

// workers is the number of engine batches the deployment can run at
// once: the term per-request service intervals are scaled by.
func (w *workload) workers() int {
	if w.kind == kindCluster {
		return cluster.DefaultGatherWorkers
	}
	return w.shards
}

// The four workloads. Why each exists, and which layers it bypasses, is
// in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		name: "offline_embed",
		kind: kindOffline, preset: synth.PresetRead, itemFrac: 0.005, redFrac: 0.5, tables: 2,
		batch: 64, shards: 1, clients: [serve.NumClasses]int{serve.Normal: 1}, warmOps: 500,
	},
	{
		name: "serve_dense",
		kind: kindServer, preset: synth.PresetClo, itemFrac: 0.005, redFrac: 2.0 / 52.91,
		batch: maxBatch, shards: 1, clients: [serve.NumClasses]int{serve.Normal: 64}, warmOps: 1200,
	},
	{
		name: "serve_mixed",
		kind: kindServer, preset: synth.PresetRead, itemFrac: 0.005, redFrac: 0.1,
		batch: maxBatch, shards: 2,
		clients:   [serve.NumClasses]int{serve.Critical: 8, serve.Normal: 48, serve.Batch: 8},
		cacheFrac: 0.05, updates: true, warmOps: 600,
	},
	{
		name: "cluster_tcp",
		kind: kindCluster, preset: synth.PresetHome, itemFrac: 0.005, redFrac: 0.25,
		batch: maxBatch, shards: 2, clients: [serve.NumClasses]int{serve.Normal: 32}, warmOps: 1000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything generated from the seed: the program under test
// receives these and nothing else.
type inputs struct {
	profile *trace.Trace
	// live is the request pool the clients cycle through; batches are
	// its consecutive engine batches of workload.batch samples.
	live    *trace.Trace
	batches []*trace.Batch
	model   *dlrm.Model
	// ref[i] is live sample i's CTR from the CPU reference
	// (dlrm.EmbedCPU + ForwardBatch, exact tier, no cache, no writes).
	// The DPU path sums a bag's rows partition by partition, so an
	// engine's CTR equals it only up to float32 summation order.
	ref []float32
	// engRef[i] is the same sample through a fresh single-node engine of
	// the workload's configuration, one pass, no cache, no writes: what
	// every cache-less deployment must reproduce bit for bit.
	engRef []float32
	// updates is the Zipf-drawn row stream ApplyDeltas calls consume;
	// delta is the vector an update adds, negDelta its negation.
	updates         []synth.RowUpdate
	delta, negDelta []float32
	// offsets are the clients' start positions in the pool.
	offsets []int
	// cacheBytes is the hot-row cache capacity (0 = no cache).
	cacheBytes int64
}

// mixSeed decorrelates the workloads' streams under one -seed.
func mixSeed(seed uint64, salt uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ salt
	x ^= x >> 31
	return x*0xbf58476d1ce4e5b9 | 1
}

func (w *workload) generate(seed uint64) (*inputs, error) {
	spec, err := synth.Preset(w.preset)
	if err != nil {
		return nil, err
	}
	spec = synth.Scaled(spec, w.itemFrac, w.redFrac)
	if w.tables > 0 {
		spec.Tables = w.tables
	}
	spec.Seed = mixSeed(seed, spec.Seed)
	// The replay's samples, and as many again to warm a cache with.
	liveN := 2 * replaySamples
	stream, err := spec.Generate(profileSamples + liveN)
	if err != nil {
		return nil, err
	}
	sub := func(lo, hi int) *trace.Trace {
		return &trace.Trace{NumTables: stream.NumTables, RowsPerTable: stream.RowsPerTable,
			DenseDim: stream.DenseDim, Samples: stream.Samples[lo:hi]}
	}
	in := &inputs{profile: sub(0, profileSamples), live: sub(profileSamples, profileSamples+liveN)}
	in.batches = trace.Batches(in.live, w.batch)
	in.model, err = dlrm.New(dlrm.DefaultConfig(stream.RowsPerTable))
	if err != nil {
		return nil, err
	}
	refEng, err := core.New(in.model.Clone(), in.profile, w.engineConfig())
	if err != nil {
		return nil, err
	}
	for _, b := range trace.Batches(in.live, 64) {
		in.ref = append(in.ref, in.model.ForwardBatch(b, dlrm.EmbedCPU(in.model, b))...)
		res, err := refEng.RunBatch(b)
		if err != nil {
			return nil, err
		}
		in.engRef = append(in.engRef, res.CTR...)
	}
	if in.updates, err = spec.Updates(8192); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(mixSeed(seed, 0xde17a))
	in.delta = make([]float32, in.model.Cfg.EmbDim)
	in.negDelta = make([]float32, in.model.Cfg.EmbDim)
	for i := range in.delta {
		in.delta[i] = (rng.Float32() - 0.5) * 1e-4
		in.negDelta[i] = -in.delta[i]
	}
	for i := 0; i < w.inflight(); i++ {
		in.offsets = append(in.offsets, rng.Intn(liveN))
	}
	if w.cacheFrac > 0 {
		var tableBytes int64
		for _, rows := range stream.RowsPerTable {
			tableBytes += int64(rows) * int64(in.model.Cfg.EmbDim) * 4
		}
		in.cacheBytes = int64(w.cacheFrac * float64(tableBytes))
	}
	return in, nil
}

// fillDeltas writes one ApplyDeltas call's rows. A stream's calls come
// in pairs on the same rows — +delta, then -delta — so however long the
// run, rows stay at their reference values and the work per call does
// not drift.
func (in *inputs) fillDeltas(dst []serve.Delta, stream, call int) {
	vec := in.delta
	if call%2 == 1 {
		vec = in.negDelta
	}
	base := stream + call/2*len(dst)
	for i := range dst {
		u := in.updates[(base+i)%len(in.updates)]
		dst[i] = serve.Delta{Table: u.Table, Row: u.Row, Vec: vec}
	}
}

// engineConfig is the workload's engine: 64 DPUs, cache-aware
// partitioning, exact kernel tier, one dense worker per engine.
func (w *workload) engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDPUs = totalDPUs
	cfg.BatchSize = w.batch
	cfg.HostWorkers = 1
	cfg.Kernel = tensor.KernelExact
	return cfg
}

// deployOpts are the per-instance variations the benchmark needs: the
// traced run attaches the program's own telemetry, the cluster replay
// holds micro-batches open until they are full.
type deployOpts struct {
	reg         *obs.Registry
	tracer      *obs.Tracer
	batchWindow time.Duration
}

// deployment is one built instance of the workload's system.
type deployment struct {
	eng   *core.Engine     // kindOffline
	inf   serve.Inferencer // served kinds
	front *cluster.Frontend
	// backends are the cluster's nodes in config order, transport the
	// frontend's way to them, ccfg the cluster configuration all parties
	// were built from.
	backends  []*cluster.Backend
	transport cluster.Transport
	ccfg      cluster.Config
	cache     *hotcache.Cache
	closers   []func()
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// namedTCP reaches stable node names at the loopback addresses this
// deployment was handed. Placement hashes node names: naming the nodes by
// address, as DialCluster does, would make table ownership — and with it
// every modeled and measured number — depend on the ports the kernel
// happened to pick.
type namedTCP struct {
	*cluster.TCPTransport
	addr map[string]string
}

func (t namedTCP) Lookup(ctx context.Context, node string, req *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	return t.TCPTransport.Lookup(ctx, t.addr[node], req)
}

func (t namedTCP) Update(ctx context.Context, node string, req *cluster.UpdateRequest) (*cluster.UpdateResponse, error) {
	return t.TCPTransport.Update(ctx, t.addr[node], req)
}

func (t namedTCP) Ping(ctx context.Context, node string) error {
	return t.TCPTransport.Ping(ctx, t.addr[node])
}

func (w *workload) deploy(in *inputs, o deployOpts) (*deployment, error) {
	d := &deployment{}
	ecfg := w.engineConfig()
	switch w.kind {
	case kindOffline:
		eng, err := core.New(in.model.Clone(), in.profile, ecfg)
		if err != nil {
			return nil, err
		}
		if o.reg != nil {
			core.InstrumentEngines(o.reg, []*core.Engine{eng})
		}
		d.eng = eng
	case kindServer:
		cache, err := serve.NewHotCacheFor(hotcache.Config{CapacityBytes: in.cacheBytes},
			in.model.Cfg.NumTables(), in.model.Cfg.EmbDim)
		if err != nil {
			return nil, err
		}
		ecfg.HotCache = cache
		cfgs := make([]core.Config, w.shards)
		for i := range cfgs {
			cfgs[i] = ecfg.Clone()
		}
		engines, err := serve.NewShards(in.model, in.profile, cfgs)
		if err != nil {
			return nil, err
		}
		srv, err := serve.New(engines, serve.Config{Shards: w.shards, MaxBatch: maxBatch,
			BatchWindow: o.batchWindow, Metrics: o.reg, Tracer: o.tracer})
		if err != nil {
			return nil, err
		}
		d.inf, d.cache = srv, cache
		d.closers = append(d.closers, srv.Close)
	case kindCluster:
		ccfg := cluster.Config{RangesPerTable: 1, MaxBatch: maxBatch, BatchWindow: o.batchWindow, Metrics: o.reg}
		tr := namedTCP{TCPTransport: cluster.NewTCPTransport(ccfg.CallTimeout), addr: map[string]string{}}
		lns := make([]net.Listener, w.shards)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				d.close()
				return nil, err
			}
			lns[i] = ln
			d.closers = append(d.closers, func() { ln.Close() })
			node := fmt.Sprintf("node-%d", i)
			ccfg.Nodes = append(ccfg.Nodes, node)
			tr.addr[node] = ln.Addr().String()
		}
		for i, ln := range lns {
			b, err := cluster.NewBackend(in.model, in.profile, ecfg, ccfg, ccfg.Nodes[i])
			if err != nil {
				d.close()
				return nil, err
			}
			srv := cluster.ServeBackend(ln, b)
			d.backends = append(d.backends, b)
			d.closers = append(d.closers, func() { srv.Close(); b.Close() })
		}
		front, err := cluster.NewFrontend(in.model, in.profile, ecfg, ccfg, tr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.front, d.inf, d.transport, d.ccfg = front, front, tr, ccfg
		d.closers = append(d.closers, front.Close)
	}
	return d, nil
}
