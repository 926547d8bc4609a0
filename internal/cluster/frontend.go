package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/hosthw"
	"updlrm/internal/metrics"
	"updlrm/internal/serve"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
)

// Frontend is the cluster's serving face: a serve.Server whose shard
// slots are gather executors. The embedded server owns admission, class
// queues, DRR scheduling, micro-batch windows, the update lane,
// statistics and tracing — Predict, ApplyDeltas and Stats are its
// methods, exactly as over local engine replicas — and each executor
// scatters its micro-batch's sparse lookups to the backends owning the
// touched ranges, gathers their partial embedding reductions over the
// transport, and runs the dense head locally. What stays here is the
// fabric: placement, transport, health, failover (retry-once), hedging,
// per-node counters, and the link model charged into
// Breakdown.NetworkNs.
type Frontend struct {
	*serve.Server

	cfg    Config
	place  *placement
	tr     Transport
	health *health
	obs    *clusterObs

	shape serve.Shape
	flops int64
	host  hosthw.CPUModel

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	shutdown  sync.Once
}

// gatherExec is one gather worker's serve.Executor: a dense-path pool
// over its own model clone plus recycled gather scratch.
type gatherExec struct {
	f       *Frontend
	id      int
	pool    *dlrm.HostPool
	embs    tensor.EmbBuf
	ctr     []float32
	written []bool
}

// nodeCall is one lookup RPC to one node: the request (covering all the
// node's local tables), the global tables it serves rows for, and the
// targeted range ids (the unit failover re-routes).
type nodeCall struct {
	node   int
	req    *LookupRequest
	tables []int
	ranges []int
}

// callResult is one successful lookup: which node answered, which
// global tables its payload contributes to, and the modeled round trip.
type callResult struct {
	node   int
	tables []int
	resp   *LookupResponse
	rtNs   float64
}

// NewFrontend builds the cluster frontend over an existing transport.
// model, profile, ecfg and cfg must be the same values every backend
// was built from — placement is computed, not negotiated.
func NewFrontend(model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config, tr Transport) (*Frontend, error) {
	f, execs, err := newFabric(model, profile, ecfg, cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := f.start(execs); err != nil {
		return nil, err
	}
	return f, nil
}

// newFabric builds the frontend's fabric state and its GatherWorkers
// executors; start puts the scheduler on top.
func newFabric(model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config, tr Transport) (*Frontend, []serve.Executor, error) {
	if model == nil || profile == nil {
		return nil, nil, fmt.Errorf("cluster: nil model or profile")
	}
	if tr == nil {
		return nil, nil, fmt.Errorf("cluster: nil transport")
	}
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if profile.NumTables != model.Cfg.NumTables() {
		return nil, nil, fmt.Errorf("cluster: profile tables %d != model %d", profile.NumTables, model.Cfg.NumTables())
	}
	place, err := newPlacement(model.Cfg.RowsPerTable, norm)
	if err != nil {
		return nil, nil, err
	}
	h := newHealth(len(norm.Nodes), norm.FailureThreshold)
	f := &Frontend{
		cfg:    norm,
		place:  place,
		tr:     tr,
		health: h,
		obs:    newClusterObs(norm.Metrics, norm.Nodes, h),
		shape: serve.Shape{
			RowsPerTable: append([]int(nil), model.Cfg.RowsPerTable...),
			DenseDim:     model.Cfg.DenseDim,
			EmbDim:       model.Cfg.EmbDim,
		},
		flops: model.FLOPsPerSample(),
		host:  ecfg.Host,
	}
	// Each gather worker owns a model clone and an even share of the
	// host cores for the dense head — the same kernel tier the backends'
	// single-node equivalent would run, so CTRs stay bit-identical.
	share := runtime.GOMAXPROCS(0) / norm.GatherWorkers
	if share < 1 {
		share = 1
	}
	execs := make([]serve.Executor, norm.GatherWorkers)
	for i := range execs {
		execs[i] = &gatherExec{
			f:       f,
			id:      i,
			pool:    dlrm.NewHostPool(model.Clone(), share, ecfg.Kernel),
			written: make([]bool, len(f.shape.RowsPerTable)),
		}
	}
	return f, execs, nil
}

// start runs the serving scheduler over the executors — the cluster
// Config's batching fields are serve.Config's — and the health prober.
func (f *Frontend) start(execs []serve.Executor) error {
	srv, err := serve.NewWithExecutors(execs, f.shape, serve.Config{
		MaxBatch:    f.cfg.MaxBatch,
		BatchWindow: f.cfg.BatchWindow,
		QueueDepth:  f.cfg.QueueDepth,
		Metrics:     f.cfg.Metrics,
	})
	if err != nil {
		return err
	}
	f.Server = srv
	if f.cfg.PingInterval > 0 {
		f.stopProbe = make(chan struct{})
		f.probeWG.Add(1)
		go f.prober()
	}
	return nil
}

var _ serve.Inferencer = (*Frontend)(nil)

// EmbDim returns the embedding dimension (the width delta vectors must
// carry).
func (f *Frontend) EmbDim() int { return f.shape.EmbDim }

// DescribePlacement renders the range→node assignment, one line per
// range.
func (f *Frontend) DescribePlacement() string { return f.place.describe() }

// pickTarget returns the range's routing target: the first healthy host
// (owner preferred), excluding `exclude` (pass -1 for none). Returns -1
// when no such host exists.
func (f *Frontend) pickTarget(rid, exclude int) int {
	for _, h := range f.place.hosts[rid] {
		if h != exclude && !f.health.isDown(h) {
			return h
		}
	}
	return -1
}

// buildCall assembles the lookup RPC for one node serving the given
// ranges: all the node's local tables appear (empty CSR where the call
// routes no rows), and rows are translated to the node's local
// coordinates.
func (f *Frontend) buildCall(node int, ranges []int, b *trace.Batch, owns func(rid int) bool) nodeCall {
	nv := f.place.views[node]
	size := b.Size
	req := &LookupRequest{Samples: size, Tables: make([]LookupTable, len(nv.tables))}
	serves := make(map[int]bool, len(ranges))
	var tables []int
	for _, rid := range ranges {
		gt := f.place.ranges[rid].Table
		if !serves[gt] {
			serves[gt] = true
			tables = append(tables, gt)
		}
	}
	sort.Ints(tables)
	for lt, gt := range nv.tables {
		t := &req.Tables[lt]
		t.Table = int32(lt)
		t.Off = make([]int32, size+1)
		if !serves[gt] {
			continue
		}
		off, idx := b.Off[gt], b.Idx[gt]
		t.Idx = make([]int32, 0, len(idx)) // the batch is flattened: size once, not by append growth
		for s := 0; s < size; s++ {
			for _, row := range idx[off[s]:off[s+1]] {
				rid, i := f.place.rangeOf(gt, row)
				if owns(rid) {
					t.Idx = append(t.Idx, nv.rangeOff[rid]+(row-f.place.bounds[gt][i]))
				}
			}
			t.Off[s+1] = int32(len(t.Idx))
		}
	}
	return nodeCall{node: node, req: req, tables: tables, ranges: ranges}
}

type callOut struct {
	resp *LookupResponse
	err  error
}

type lookupOutcome struct {
	results []callResult
	err     error
}

// callLookup executes one node call with hedging and retry-once
// failover. b is the micro-batch the call was cut from, read to rebuild
// the call against replicas; fallback legs pass nil and neither hedge
// nor fail over again. The batch is the worker's recycled scratch, so
// nothing that can outlive this call may read it: fallback calls are
// built here, synchronously, and only their RPCs run in the background.
func (f *Frontend) callLookup(ctx context.Context, c nodeCall, b *trace.Batch) ([]callResult, error) {
	reqBytes := c.req.WireBytes()
	prim := make(chan callOut, 1)
	go func() {
		cctx, cancel := context.WithTimeout(ctx, f.cfg.CallTimeout)
		defer cancel()
		resp, err := f.tr.Lookup(cctx, f.place.nodes[c.node], c.req)
		prim <- callOut{resp: resp, err: err}
	}()
	var timerC <-chan time.Time
	if b != nil && f.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(f.cfg.HedgeAfter)
		defer timer.Stop()
		timerC = timer.C
	}
	var hedgeC chan lookupOutcome
	for {
		select {
		case out := <-prim:
			if out.err == nil {
				f.health.success(c.node)
				respBytes := out.resp.WireBytes()
				f.obs.recordLookup(c.node, reqBytes, respBytes, out.resp.GovernorBand, out.resp.Pressure)
				return []callResult{{
					node:   c.node,
					tables: c.tables,
					resp:   out.resp,
					rtNs:   f.cfg.Link.RoundTripNs(reqBytes, respBytes),
				}}, nil
			}
			f.obs.recordRPCError(c.node)
			f.health.failure(c.node)
			if hedgeC != nil {
				// A hedge is already in flight for these ranges; its
				// outcome decides the call.
				ho := <-hedgeC
				return ho.results, ho.err
			}
			if b == nil {
				return nil, fmt.Errorf("cluster: node %s: %w", f.place.nodes[c.node], out.err)
			}
			f.obs.recordFailover(c.node)
			calls, err := f.reroute(c, b)
			if err != nil {
				return nil, err
			}
			return f.runFallback(ctx, calls)
		case <-timerC:
			timerC = nil
			f.obs.recordHedge(c.node)
			hedgeC = make(chan lookupOutcome, 1)
			calls, err := f.reroute(c, b)
			if err != nil {
				hedgeC <- lookupOutcome{err: err}
				continue
			}
			go func() {
				rs, err := f.runFallback(ctx, calls)
				hedgeC <- lookupOutcome{results: rs, err: err}
			}()
		case ho := <-hedgeC:
			if ho.err == nil {
				return ho.results, nil
			}
			// Hedge lost; keep waiting for the primary.
			hedgeC = nil
		}
	}
}

// reroute re-targets a failed (or hedged) call's ranges at their
// replicas — excluding the original node — and builds the fallback
// calls.
func (f *Frontend) reroute(c nodeCall, b *trace.Batch) ([]nodeCall, error) {
	perNode := make(map[int][]int)
	for _, rid := range c.ranges {
		n := f.pickTarget(rid, c.node)
		if n < 0 {
			r := f.place.ranges[rid]
			return nil, fmt.Errorf("cluster: no live replica for table %d rows [%d,%d) (node %s unavailable)",
				r.Table, r.Lo, r.Hi, f.place.nodes[c.node])
		}
		perNode[n] = append(perNode[n], rid)
	}
	nodes := make([]int, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	calls := make([]nodeCall, 0, len(nodes))
	for _, n := range nodes {
		ranges := perNode[n]
		owned := make(map[int]bool, len(ranges))
		for _, rid := range ranges {
			owned[rid] = true
		}
		calls = append(calls, f.buildCall(n, ranges, b, func(rid int) bool { return owned[rid] }))
	}
	return calls, nil
}

// runFallback executes rerouted calls in parallel as fallback legs.
func (f *Frontend) runFallback(ctx context.Context, calls []nodeCall) ([]callResult, error) {
	var (
		mu       sync.Mutex
		results  []callResult
		firstErr error
		wg       sync.WaitGroup
	)
	for _, fc := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := f.callLookup(ctx, fc, nil)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			results = append(results, rs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// RunBatch routes, scatters, gathers and finishes one micro-batch.
func (g *gatherExec) RunBatch(b *trace.Batch) ([]float32, metrics.Breakdown, int64, error) {
	f := g.f
	size := b.Size
	start := time.Now()

	// Route: target node per touched range (owner unless degraded, else
	// the first healthy replica; a fully degraded range still tries the
	// owner — success is what restores health).
	tgt := make(map[int]int)
	perNode := make(map[int][]int)
	for gt, rows := range b.Idx {
		for _, row := range rows {
			rid, _ := f.place.rangeOf(gt, row)
			if _, ok := tgt[rid]; ok {
				continue
			}
			n := f.pickTarget(rid, -1)
			if n < 0 {
				n = f.place.hosts[rid][0]
			}
			tgt[rid] = n
			perNode[n] = append(perNode[n], rid)
		}
	}

	nodes := make([]int, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	var results []callResult
	if len(nodes) > 0 {
		var (
			mu       sync.Mutex
			firstErr error
			wg       sync.WaitGroup
		)
		for _, n := range nodes {
			c := f.buildCall(n, perNode[n], b, func(rid int) bool { return tgt[rid] == n })
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := f.callLookup(context.Background(), c, b)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results = append(results, rs...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, metrics.Breakdown{}, 0, fmt.Errorf("cluster: gather: %w", firstErr)
		}
	}

	// Deterministic assembly: results in (node, first table) order; the
	// first contributor to a global table copies, later ones (row-range
	// splits, R > 1 only) accumulate.
	sort.Slice(results, func(i, j int) bool {
		if results[i].node != results[j].node {
			return results[i].node < results[j].node
		}
		ti, tj := -1, -1
		if len(results[i].tables) > 0 {
			ti = results[i].tables[0]
		}
		if len(results[j].tables) > 0 {
			tj = results[j].tables[0]
		}
		return ti < tj
	})

	dim := f.shape.EmbDim
	g.embs.Reset(size, len(f.shape.RowsPerTable), dim)
	for i := range g.written {
		g.written[i] = false
	}
	var bd metrics.Breakdown
	var netNs float64
	var mram int64
	var gatherBytes int64
	for _, r := range results {
		nv := f.place.views[r.node]
		for _, gt := range r.tables {
			lt := nv.tableIdx[gt]
			for s := 0; s < size; s++ {
				src := r.resp.Embs[(lt*size+s)*dim : (lt*size+s+1)*dim]
				dst := g.embs.At(s, gt)
				if !g.written[gt] {
					copy(dst, src)
				} else {
					tensor.Add(src, dst)
				}
			}
			g.written[gt] = true
			gatherBytes += int64(size*dim) * 4
		}
		maxBreakdown(&bd, &r.resp.Breakdown)
		if r.rtNs > netNs {
			netNs = r.rtNs
		}
		mram += r.resp.MRAMBytesRead
	}
	// The fabric batch's modeled time: the nodes' embedding stages run
	// in parallel (elementwise max), the slowest round trip is the
	// network term, assembling the gathered bytes streams through the
	// host, and the dense head runs here.
	bd.NetworkNs = netNs
	bd.HostAggNs += f.host.StreamNs(gatherBytes)
	bd.MLPNs = f.host.ComputeNs(f.flops * int64(size))

	// Dense head on the gathered embeddings.
	if cap(g.ctr) < size {
		g.ctr = make([]float32, size)
	}
	g.ctr = g.ctr[:size]
	g.pool.Forward(b, &g.embs, g.ctr)

	f.obs.recordBatch(float64(time.Since(start).Nanoseconds()), netNs)
	return g.ctr, bd, mram, nil
}

// maxBreakdown folds src into dst elementwise-max: the backends run
// their stages in parallel, so the batch is as slow as its slowest
// node.
func maxBreakdown(dst, src *metrics.Breakdown) {
	maxf := func(d *float64, s float64) {
		if s > *d {
			*d = s
		}
	}
	maxf(&dst.CPUToDPUNs, src.CPUToDPUNs)
	maxf(&dst.DPULookupNs, src.DPULookupNs)
	maxf(&dst.DPUToCPUNs, src.DPUToCPUNs)
	maxf(&dst.HostAggNs, src.HostAggNs)
	maxf(&dst.HostCacheNs, src.HostCacheNs)
	maxf(&dst.EmbedCPUNs, src.EmbedCPUNs)
	maxf(&dst.EmbedGPUNs, src.EmbedGPUNs)
	maxf(&dst.PCIeNs, src.PCIeNs)
	maxf(&dst.OverheadNs, src.OverheadNs)
	maxf(&dst.UpdateNs, src.UpdateNs)
}

// ApplyDeltas fans the deltas out to every copy of each touched range —
// owner and replicas — and returns once all involved nodes have
// absorbed them. The update lane broadcasts a job to every executor so
// each drains its earlier micro-batches first; the fabric must absorb
// the job once, so only the first executor fans it out.
func (g *gatherExec) ApplyDeltas(deltas []serve.Delta) (float64, int64, error) {
	if g.id != 0 {
		return 0, 0, nil
	}
	f := g.f

	// Group per node, per local table, across ALL hosts of each delta's
	// range.
	perNode := make(map[int]map[int]*UpdateTable)
	for _, d := range deltas {
		rid, idx := f.place.rangeOf(d.Table, d.Row)
		for _, h := range f.place.hosts[rid] {
			nv := f.place.views[h]
			lt := nv.tableIdx[d.Table]
			lrow := nv.rangeOff[rid] + (d.Row - f.place.bounds[d.Table][idx])
			tabs := perNode[h]
			if tabs == nil {
				tabs = make(map[int]*UpdateTable)
				perNode[h] = tabs
			}
			ut := tabs[lt]
			if ut == nil {
				ut = &UpdateTable{Table: int32(lt)}
				tabs[lt] = ut
			}
			ut.Rows = append(ut.Rows, lrow)
			ut.Deltas = append(ut.Deltas, d.Vec...)
		}
	}

	nodes := make([]int, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var (
		mu        sync.Mutex
		firstErr  error
		modeledNs float64
		inval     int64
		wg        sync.WaitGroup
	)
	for _, n := range nodes {
		tabs := perNode[n]
		lts := make([]int, 0, len(tabs))
		for lt := range tabs {
			lts = append(lts, lt)
		}
		sort.Ints(lts)
		req := &UpdateRequest{Tables: make([]UpdateTable, 0, len(lts))}
		for _, lt := range lts {
			req.Tables = append(req.Tables, *tabs[lt])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(context.Background(), f.cfg.CallTimeout)
			defer cancel()
			reqBytes := req.WireBytes()
			resp, err := f.tr.Update(cctx, f.place.nodes[n], req)
			if err != nil {
				f.obs.recordRPCError(n)
				f.health.failure(n)
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: update node %s: %w", f.place.nodes[n], err)
				}
				mu.Unlock()
				return
			}
			f.health.success(n)
			f.obs.recordUpdate(n, reqBytes, resp.WireBytes())
			mu.Lock()
			if resp.ModeledNs > modeledNs {
				modeledNs = resp.ModeledNs // nodes apply in parallel
			}
			inval += resp.Invalidations
			mu.Unlock()
		}()
	}
	wg.Wait()
	return modeledNs, inval, firstErr
}

// SetNodeDown marks the named node degraded, routing its ranges to
// replicas — the manual leave.
func (f *Frontend) SetNodeDown(node string) error { return f.setNode(node, true) }

// SetNodeUp restores the named node — the manual rejoin.
func (f *Frontend) SetNodeUp(node string) error { return f.setNode(node, false) }

func (f *Frontend) setNode(node string, down bool) error {
	for i, n := range f.place.nodes {
		if n == node {
			f.health.set(i, down)
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown node %q", node)
}

// prober pings degraded nodes every PingInterval and restores them on
// success — the automatic rejoin path.
func (f *Frontend) prober() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stopProbe:
			return
		case <-t.C:
			for n := range f.place.nodes {
				if !f.health.isDown(n) {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), f.cfg.CallTimeout)
				err := f.tr.Ping(ctx, f.place.nodes[n])
				cancel()
				if err == nil {
					f.health.success(n)
				}
			}
		}
	}
}

// ClusterStats snapshots the fabric-level supplement: per-node RPC
// traffic, health, and the modeled interconnect total.
func (f *Frontend) ClusterStats() ClusterStats {
	return f.obs.snapshot(f.place.nodes, f.health)
}

// Close stops accepting requests, drains the scheduler (every already
// admitted request is still served), and closes the transport. It is
// idempotent.
func (f *Frontend) Close() {
	f.Server.Close()
	f.shutdown.Do(func() {
		if f.stopProbe != nil {
			close(f.stopProbe)
			f.probeWG.Wait()
		}
		f.tr.Close()
	})
}
