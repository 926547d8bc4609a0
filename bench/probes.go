package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"updlrm/internal/cluster"
	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/emt"
	"updlrm/internal/governor"
	"updlrm/internal/grace"
	"updlrm/internal/hotcache"
	"updlrm/internal/mlp"
	"updlrm/internal/partition"
	"updlrm/internal/serve"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
	"updlrm/internal/upmem"
)

// probeRounds is how many timed rounds a micro-probe makes; it reports
// the median round.
const probeRounds = 7

// timeIt times fn from outside: it sizes a round to budget/probeRounds
// and returns the median round's nanoseconds per call.
func timeIt(budget time.Duration, fn func()) float64 {
	fn() // first call grows scratch buffers
	n := 1
	round := budget / probeRounds
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(t0); el >= round/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(round)/float64(max(el, 1))))
			break
		}
		n *= 4
	}
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// timeOnce is timeIt for calls too long to repeat many times (mining,
// partitioning): the median of three.
func timeOnce(fn func() error) (float64, error) {
	per := make([]float64, 3)
	for r := range per {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per[r] = time.Since(t0).Seconds()
	}
	return median(per), nil
}

// prober runs the layer probes of one traced run. Every probe works on
// the workload's own model, profile and batches, whether or not the
// workload's deployment uses the layer: a layer's cost on this traffic
// is a property of the traffic.
type prober struct {
	r      *run
	budget time.Duration
	m      map[string]metric
	eng    *core.Engine
	spans  []span
	nextID int64
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

func (p *prober) span(parent, req int64, name string, start, dur int64) int64 {
	p.nextID++
	p.spans = append(p.spans, span{ID: p.nextID, Parent: parent, Req: req, Name: name, Start: start, End: start + dur})
	return p.nextID
}

func (r *run) probeLayers(m map[string]metric, budget time.Duration) ([]span, error) {
	eng, err := core.New(r.in.model.Clone(), r.in.profile, r.w.engineConfig())
	if err != nil {
		return nil, err
	}
	p := &prober{r: r, budget: budget, m: m, eng: eng, nextID: 1 << 60}
	for _, step := range []func() error{p.dense, p.kernelSim, p.planning, p.engine, p.hotCache, p.cluster, p.governor} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.spans, nil
}

// dense probes tensor, mlp and dlrm at the workload's batch size.
func (p *prober) dense() error {
	in, n := p.r.in, p.r.w.batch
	model := in.model
	rng := tensor.NewRNG(7)
	random := func(rows, cols int) *tensor.Matrix {
		mt := tensor.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			row := mt.Row(i)
			for j := range row {
				row[j] = rng.Float32() - 0.5
			}
		}
		return mt
	}

	top0 := model.Top.Layers[0]
	a, w, dst := random(n, top0.In()), tensor.PackB(top0.W), tensor.NewMatrix(n, top0.Out())
	exact := timeIt(p.budget, func() { tensor.GemmKernel(a, w, dst, tensor.KernelExact) })
	fast := timeIt(p.budget, func() { tensor.GemmKernel(a, w, dst, tensor.KernelFast) })
	p.set("tensor.gemm_exact_us", exact/1e3, "us")
	p.set("tensor.gemm_fast_us", fast/1e3, "us")
	p.set("tensor.gemm_exact_gflops", 2*float64(n*top0.In()*top0.Out())/exact, "GFLOP/s")

	ws := &mlp.Workspace{}
	bx, bdst := random(n, model.Bottom.InDim()), tensor.NewMatrix(n, model.Bottom.OutDim())
	p.set("mlp.bottom_forward_us", timeIt(p.budget, func() { model.Bottom.ForwardBatch(bx, bdst, ws) })/1e3, "us")
	tx, tdst := random(n, model.Top.InDim()), tensor.NewMatrix(n, model.Top.OutDim())
	p.set("mlp.top_forward_us", timeIt(p.budget, func() { model.Top.ForwardBatch(tx, tdst, ws) })/1e3, "us")

	b := in.batches[0]
	res, err := p.eng.RunEmbeddings(b)
	if err != nil {
		return err
	}
	embs, ctr := res.Embeddings.Clone(), make([]float32, b.Size)
	p.set("dlrm.forward_batch_us", timeIt(p.budget, func() { model.ForwardBatchFlat(b, embs, ctr) })/1e3, "us")
	pool := dlrm.NewHostPool(model, min(runtime.NumCPU(), 2), tensor.KernelExact)
	p.set("dlrm.hostpool_forward_us", timeIt(p.budget, func() { pool.Forward(b, embs, ctr) })/1e3, "us")
	p.set("dlrm.flops_per_sample", float64(model.FLOPsPerSample()), "count")
	return nil
}

// kernelSim probes the upmem kernel simulator on a job shaped like the
// workload's mean per-DPU job: batch 0's reads spread evenly over the
// DPUs that serve them.
func (p *prober) kernelSim() error {
	in, cfg := p.r.in, p.r.w.engineConfig()
	b := in.batches[0]
	res, err := p.eng.RunBatch(b)
	if err != nil {
		return err
	}
	parts := 0
	for _, plan := range p.eng.Plans() {
		parts += plan.Shape.Parts
	}
	// A read goes to every slice DPU of one row partition.
	reads := max(1, int(res.EMTReads+res.CacheHitReads)/parts)
	nc := p.eng.Plans()[0].Shape.Nc
	table, tmp := in.model.Tables[0], make([]float32, nc)
	job := &upmem.KernelJob{NumSamples: b.Size, Width: nc, BytesPerElem: 4,
		Fetch: func(rows []int32, dst []float32) {
			clear(dst)
			for _, row := range rows {
				table.ReadCols(int(row), 0, nc, tmp)
				tensor.Add(tmp, dst)
			}
		}}
	for i := 0; i < reads; i++ {
		job.AddRead(i%b.Size, nc, b.Idx[0][i%len(b.Idx[0])])
	}
	if err := job.Validate(cfg.HW); err != nil {
		return err
	}
	var out upmem.KernelResult
	var timing upmem.KernelTiming
	ns := timeIt(p.budget, func() { timing, err = upmem.RunKernelInto(cfg.HW, job, cfg.Engine, &out) })
	if err != nil {
		return err
	}
	p.set("upmem.kernel_sim_us", ns/1e3, "us")
	p.set("upmem.sim_reads_per_host_s", float64(reads)/(ns/1e9), "1/s")
	p.set("upmem.modeled_kernel_us", cfg.HW.CyclesToNs(timing.Cycles)/1e3, "us")
	return nil
}

// planning probes the set-up layers — grace mining and partition
// planning, with the inputs core.New gives them — and the per-bag cover
// planner the cache-aware engine runs on every sample.
func (p *prober) planning() error {
	in, cfg := p.r.in, p.r.w.engineConfig()
	tables := in.model.Cfg.NumTables()
	lists := make([][]grace.List, tables)
	mine, err := timeOnce(func() error {
		for t := range lists {
			var err error
			if lists[t], err = grace.Mine(in.profile, t, cfg.Grace); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("grace.mine_s", mine, "s")

	wl := partition.Workload{BatchSize: cfg.BatchSize, AvgReduction: max(in.profile.AvgReduction(), 1), Tables: tables}
	build, err := timeOnce(func() error {
		for t := 0; t < tables; t++ {
			rows, cols := in.model.Cfg.RowsPerTable[t], in.model.Cfg.EmbDim
			shape, _, err := partition.OptimalShape(rows, cols, cfg.TotalDPUs/tables, wl, cfg.HW)
			if err != nil {
				return err
			}
			if _, err := partition.Build(cfg.Method, rows, cols, shape, in.profile.Frequency(t), lists[t], cfg.HW,
				partition.CacheAwareConfig{CapacityFrac: cfg.CacheCapacityFrac}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("partition.build_s", build, "s")

	var imbalance float64
	assign := make([]*grace.Assignment, tables)
	for t, plan := range p.eng.Plans() {
		imbalance += plan.LoadImbalance() / float64(tables)
		assign[t] = plan.Assignment()
	}
	p.set("partition.load_imbalance", imbalance, "ratio")

	var planner grace.CoverPlanner
	var lookups, covered, bags int
	for _, b := range in.batches[:p.r.w.replayBatches()] {
		for t := 0; t < tables; t++ {
			for s := 0; s < b.Size; s++ {
				idx := b.SampleIndices(t, s)
				cover := planner.Plan(assign[t], idx)
				lookups += len(idx)
				covered += cover.CoveredLookups() - len(cover.Misses)
				bags++
			}
		}
	}
	p.set("grace.covered_lookup_share", float64(covered)/float64(max(lookups, 1)), "ratio")
	b := in.batches[0]
	ns := timeIt(p.budget, func() {
		for t := 0; t < tables; t++ {
			for s := 0; s < b.Size; s++ {
				planner.Plan(assign[t], b.SampleIndices(t, s))
			}
		}
	})
	p.set("grace.cover_plan_ns_per_bag", ns/float64(tables*b.Size), "ns")
	return nil
}

// engine is the layer replay: core.RunBatch as a whole, then its two
// halves (RunEmbeddings, the dense forward) in separate calls on the
// same batch. The part of run_batch its children do not cover is
// reported, not hidden.
func (p *prober) engine() error {
	in := p.r.in
	model := in.model
	n := 32
	var rb, re, fb []float64
	ctr := make([]float32, p.r.w.batch)
	var clock int64
	for pass := 0; pass < 3; pass++ {
		for k, b := range in.batches[:n] {
			t0 := time.Now()
			if _, err := p.eng.RunBatch(b); err != nil {
				return err
			}
			t1 := time.Now()
			res, err := p.eng.RunEmbeddings(b)
			if err != nil {
				return err
			}
			t2 := time.Now()
			model.ForwardBatchFlat(b, res.Embeddings, ctr)
			t3 := time.Now()
			if pass == 0 {
				continue // arenas grow on the first pass
			}
			dRB, dRE, dFB := t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t3.Sub(t2).Nanoseconds()
			rb, re, fb = append(rb, float64(dRB)), append(re, float64(dRE)), append(fb, float64(dFB))
			root := p.span(0, int64(k), "core.run_batch", clock, dRB)
			p.span(root, int64(k), "core.run_embeddings", clock, dRE)
			p.span(root, int64(k), "dlrm.forward_batch", clock+dRE, dFB)
			clock += dRB
		}
	}
	p.set("core.run_batch_us", median(rb)/1e3, "us")
	p.set("core.run_embeddings_us", median(re)/1e3, "us")
	p.set("core.run_batch_residual_us", (median(rb)-median(re)-median(fb))/1e3, "us")
	p.set("core.arena_mb", float64(p.eng.ArenaBytes())/(1<<20), "MB")

	// ApplyDeltas mutates its engine, so it gets a throwaway one.
	weng, err := core.New(model.Clone(), in.profile, p.r.w.engineConfig())
	if err != nil {
		return err
	}
	rows := make([]int32, updateRows)
	deltas := make([]float32, 0, updateRows*len(in.delta))
	for range rows {
		deltas = append(deltas, in.delta...)
	}
	next := 0
	ns := timeIt(p.budget, func() {
		for i := range rows {
			rows[i] = in.updates[next%len(in.updates)].Row
			next++
		}
		_, err = weng.ApplyDeltas(0, rows, deltas)
	})
	if err != nil {
		return err
	}
	p.set("core.apply_deltas_us", ns/1e3, "us")
	return nil
}

// hotCache probes a stand-alone cache of the serving default shape (5%
// of table bytes, per-table segments) with the profile's hottest rows
// resident, and the copy-on-write overlay updates land in.
func (p *prober) hotCache() error {
	in := p.r.in
	dim, tables := in.model.Cfg.EmbDim, in.model.Cfg.NumTables()
	capBytes := int64(0.05 * float64(tables*in.model.Cfg.RowsPerTable[0]*dim*4))
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: capBytes, Tables: tables}, dim)
	if err != nil {
		return err
	}
	table := in.model.Tables[0]
	perTable := int(capBytes) / tables / (dim*4 + hotcache.EntryOverheadBytes)
	order := trace.HotSet(in.profile.Frequency(0), in.model.Cfg.RowsPerTable[0])
	hot, cold := order[:max(1, perTable/2)], order[len(order)/2:]
	var row int32
	fill := func(dst []float32) uint64 { table.ReadCols(int(row), 0, dim, dst); return 0 }
	refill := func() {
		for _, r := range hot {
			row = int32(r)
			cache.Offer(0, row, fill)
		}
	}
	refill()
	vec := make([]float32, dim)
	i := 0
	hit := true
	ns := timeIt(p.budget, func() { hit = cache.Lookup(0, int32(hot[i%len(hot)]), vec) && hit; i++ })
	if !hit {
		return fmt.Errorf("hotcache probe: a resident row missed")
	}
	p.set("hotcache.lookup_hit_ns", ns, "ns")
	// Offers of rows from the cold half of the popularity order: the
	// admission duel a miss pays.
	ns = timeIt(p.budget, func() { row = int32(cold[i%len(cold)]); cache.Offer(0, row, fill); i++ })
	p.set("hotcache.offer_ns", ns, "ns")
	// Invalidation evicts, so each timed round is one pass over the
	// resident hot rows, refilled untimed in between.
	per := make([]float64, probeRounds)
	for r := range per {
		refill()
		t0 := time.Now()
		for _, hr := range hot {
			cache.Invalidate(0, int32(hr), 1)
		}
		per[r] = float64(time.Since(t0)) / float64(len(hot))
	}
	p.set("hotcache.invalidate_ns", median(per), "ns")

	ov := emt.NewOverlay(table)
	ns = timeIt(p.budget, func() { ov.ApplyDelta(int(in.updates[i%len(in.updates)].Row), in.delta); i++ })
	p.set("emt.overlay_apply_ns", ns, "ns")
	return nil
}

// spyTransport records the lookups a frontend sends, so the probes can
// replay real requests against each transport.
type spyTransport struct {
	cluster.Transport
	mu    sync.Mutex
	nodes []string
	reqs  []*cluster.LookupRequest
	// wire sums the logical bytes of every lookup and its reply.
	wire int64
}

func (s *spyTransport) Lookup(ctx context.Context, node string, req *cluster.LookupRequest) (*cluster.LookupResponse, error) {
	resp, err := s.Transport.Lookup(ctx, node, req)
	s.mu.Lock()
	s.nodes, s.reqs = append(s.nodes, node), append(s.reqs, req)
	s.wire += req.WireBytes()
	if err == nil {
		s.wire += resp.WireBytes()
	}
	s.mu.Unlock()
	return resp, err
}

// cluster probes one fan-out leg three ways on the same request — the
// backend call itself, through the in-process transport, through the
// TCP transport — on a two-backend loopback cluster of the workload's
// model. The request is the heaviest one a real frontend sent for the
// workload's first micro-batch: the slowest backend sets a batch's time.
func (p *prober) cluster() error {
	w := *p.r.w
	w.kind, w.shards = kindCluster, 2
	d, err := w.deploy(p.r.in, deployOpts{})
	if err != nil {
		return err
	}
	defer d.close()
	// A second frontend over the same backends, its lookups recorded. It
	// is held open until the probes are done: closing it closes the
	// transport both frontends share.
	spy := &spyTransport{Transport: d.transport}
	ccfg := d.ccfg
	ccfg.BatchWindow = 5 * time.Second
	front, err := cluster.NewFrontend(p.r.in.model, p.r.in.profile, w.engineConfig(), ccfg, spy)
	if err != nil {
		return err
	}
	defer front.Close()
	var wg sync.WaitGroup
	errs := make([]error, maxBatch)
	for i := 0; i < maxBatch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.r.in.live.Samples[i]
			_, errs[i] = front.Predict(context.Background(), serve.Request{Dense: s.Dense, Sparse: s.Sparse})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster probe: %w", err)
		}
	}
	if len(spy.reqs) == 0 {
		return fmt.Errorf("cluster probe: the frontend sent no lookup")
	}
	heaviest := 0
	for i, req := range spy.reqs {
		if req.WireBytes() > spy.reqs[heaviest].WireBytes() {
			heaviest = i
		}
	}
	req, node := spy.reqs[heaviest], spy.nodes[heaviest]
	var backend *cluster.Backend
	for _, b := range d.backends {
		if b.Node() == node {
			backend = b
		}
	}
	local := cluster.NewLocalTransport(d.backends...)
	ctx := context.Background()

	direct := timeIt(p.budget, func() { _, err = backend.Lookup(req) })
	if err != nil {
		return err
	}
	viaLocal := timeIt(p.budget, func() { _, err = local.Lookup(ctx, node, req) })
	if err != nil {
		return err
	}
	viaTCP := timeIt(p.budget, func() { _, err = d.transport.Lookup(ctx, node, req) })
	if err != nil {
		return err
	}
	p.set("cluster.backend_lookup_us", direct/1e3, "us")
	p.set("cluster.local_lookup_us", viaLocal/1e3, "us")
	p.set("cluster.tcp_lookup_us", viaTCP/1e3, "us")
	p.set("cluster.wire_overhead_us", (viaTCP-viaLocal)/1e3, "us")
	p.set("cluster.wire_bytes_per_req", float64(spy.wire)/maxBatch, "B")

	root := p.span(0, 0, "cluster.tcp_lookup", 0, int64(viaTCP))
	p.span(root, 0, "cluster.backend_lookup", 0, int64(direct))
	return nil
}

// governor probes one pressure observation over three trackers, the
// shape serve.Server registers (cache, arenas, queued requests).
func (p *prober) governor() error {
	g, err := governor.New(governor.Config{BudgetBytes: 1 << 30})
	if err != nil {
		return err
	}
	defer g.Close()
	g.Track("hotcache", func() int64 { return 1 << 20 })
	g.Track("arena", p.eng.ArenaBytes)
	g.Track("queued", func() int64 { return 1 << 10 })
	p.set("governor.observe_ns", timeIt(p.budget, func() { g.Observe() }), "ns")
	return nil
}
