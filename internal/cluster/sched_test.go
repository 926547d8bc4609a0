package cluster

// The scheduler's guarantees — DRR fairness, typed shedding per lane,
// cancellation while queued, request validation — are properties of
// serve.Server, and serve.Server runs over either executor. These tests
// run one body against both: a local engine replica and a 2-node
// in-process cluster's gather executor. They live here because this
// package can see both (serve cannot import cluster).

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/metrics"
	"updlrm/internal/obs"
	"updlrm/internal/serve"
	"updlrm/internal/trace"
)

// gate wraps an executor for deterministic scheduling tests: every
// micro-batch parks at the executor until release, and the order in
// which batches reach it is recorded. With one executor and MaxBatch 1
// that order is the scheduler's dispatch order. Tests tag each
// request's first dense feature with the request's index.
type gate struct {
	serve.Executor
	entered chan struct{} // one token per batch that reached the executor
	hold    chan struct{}
	once    sync.Once

	mu    sync.Mutex
	order []int
}

func newGate(ex serve.Executor) *gate {
	return &gate{Executor: ex, entered: make(chan struct{}, 1024), hold: make(chan struct{})}
}

func (g *gate) RunBatch(b *trace.Batch) ([]float32, metrics.Breakdown, int64, error) {
	g.mu.Lock()
	g.order = append(g.order, int(b.Dense[0][0]))
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.hold
	return g.Executor.RunBatch(b)
}

func (g *gate) release() { g.once.Do(func() { close(g.hold) }) }

func (g *gate) dispatched() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.order...)
}

// schedRig is one deployment under test: a single gated executor behind
// the shared scheduler, observed through the public Inferencer surface
// and the scheduler's own metric families.
type schedRig struct {
	inf     serve.Inferencer
	gate    *gate
	reg     *obs.Registry
	profile *trace.Trace
	embDim  int
}

// admitted is how many class-c requests have entered the class queue;
// queued is how many of them are still in it.
func (r *schedRig) admitted(c serve.Class) float64 {
	return r.reg.Snapshot().Get(`serve_admitted_total{class="` + c.String() + `"}`)
}

func (r *schedRig) queued(c serve.Class) float64 {
	return r.reg.Snapshot().Get(`serve_queue_depth{class="` + c.String() + `"}`)
}

// request builds request i, tagged for the gate's dispatch record.
func (r *schedRig) request(i int, c serve.Class) serve.Request {
	s := r.profile.Samples[i%len(r.profile.Samples)]
	dense := append([]float32(nil), s.Dense...)
	dense[0] = float32(i)
	return serve.Request{Dense: dense, Sparse: s.Sparse, Class: c}
}

var schedDeployments = []struct {
	name  string
	build func(t *testing.T, maxBatch, queueDepth int) *schedRig
}{
	{"local-engine", func(t *testing.T, maxBatch, queueDepth int) *schedRig {
		model, profile, ecfg := testFixture(t)
		engines, err := serve.NewShards(model, profile, []core.Config{ecfg})
		if err != nil {
			t.Fatal(err)
		}
		g := newGate(serve.EngineExecutor(engines[0]))
		reg := obs.NewRegistry()
		shape := serve.Shape{RowsPerTable: model.Cfg.RowsPerTable, DenseDim: model.Cfg.DenseDim, EmbDim: model.Cfg.EmbDim}
		srv, err := serve.NewWithExecutors([]serve.Executor{g}, shape,
			serve.Config{MaxBatch: maxBatch, QueueDepth: queueDepth, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		t.Cleanup(g.release)
		return &schedRig{inf: srv, gate: g, reg: reg, profile: profile, embDim: model.Cfg.EmbDim}
	}},
	{"cluster-2node", func(t *testing.T, maxBatch, queueDepth int) *schedRig {
		model, profile, ecfg := testFixture(t)
		reg := obs.NewRegistry()
		cfg := Config{Nodes: []string{"node-a", "node-b"}, MaxBatch: maxBatch, QueueDepth: queueDepth,
			GatherWorkers: 1, Metrics: reg}
		var backends []*Backend
		for _, node := range cfg.Nodes {
			b, err := NewBackend(model, profile, ecfg, cfg, node)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, b)
		}
		front, execs, err := newFabric(model, profile, ecfg, cfg, NewLocalTransport(backends...))
		if err != nil {
			t.Fatal(err)
		}
		g := newGate(execs[0])
		if err := front.start([]serve.Executor{g}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(front.Close)
		t.Cleanup(g.release)
		return &schedRig{inf: front, gate: g, reg: reg, profile: profile, embDim: model.Cfg.EmbDim}
	}},
}

// forEachDeployment runs body once per executor kind.
func forEachDeployment(t *testing.T, maxBatch, queueDepth int, body func(t *testing.T, r *schedRig)) {
	for _, d := range schedDeployments {
		t.Run(d.name, func(t *testing.T) { body(t, d.build(t, maxBatch, queueDepth)) })
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// saturate parks the executor on request 0, then feeds requests 1 and 2
// so one sits in the shard's depth-1 dispatch queue and one is held by
// the scheduler, blocked mid-route: nothing more leaves the class
// queues until release. The returned WaitGroup covers the three
// callers.
func saturate(t *testing.T, r *schedRig) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.inf.Predict(context.Background(), r.request(i, serve.Normal)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
		if i == 0 {
			<-r.gate.entered
		} else {
			waitFor(t, "scheduler to take the request", func() bool {
				return r.admitted(serve.Normal) == float64(i+1) && r.queued(serve.Normal) == 0
			})
		}
	}
	return &wg
}

// TestSchedulerDRRFairnessUnderBatchFlood preloads the scheduler with a
// sustained Batch-class backlog, then injects Critical traffic, with
// the single executor parked so the whole contention is resolved by the
// deficit scheduler alone. The recorded dispatch order is deterministic
// (parked executor, windows disabled) and must show both QoS guarantees
// in scheduling-slot units:
//
//   - bounded Critical delay: every Critical dispatches within a couple
//     of DRR rounds of the release point, far earlier than its FIFO
//     position behind the Batch flood;
//   - no Batch starvation: while Critical backlog drains, Batch still
//     receives at least its weight's share of every round.
func TestSchedulerDRRFairnessUnderBatchFlood(t *testing.T) {
	const (
		nBatch = 120
		nCrit  = 30
	)
	forEachDeployment(t, 1, 1024, func(t *testing.T, r *schedRig) {
		ctx := context.Background()
		var wg sync.WaitGroup
		classOf := func(i int) serve.Class {
			if i < nBatch {
				return serve.Batch
			}
			return serve.Critical
		}
		predict := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := r.inf.Predict(ctx, r.request(i, classOf(i)))
				if err != nil {
					t.Errorf("request %d (%v): %v", i, classOf(i), err)
				} else if resp.Class != classOf(i) {
					t.Errorf("request %d: Response.Class = %v, want %v", i, resp.Class, classOf(i))
				}
			}()
		}

		// Sustained Batch pressure: the scheduler consumes exactly three
		// (executor, shard queue, blocked route) and stalls.
		for i := 0; i < nBatch; i++ {
			predict(i)
		}
		waitFor(t, "scheduler to stall on batch flood", func() bool {
			return r.admitted(serve.Batch) == nBatch && r.queued(serve.Batch) == nBatch-3
		})
		// Critical traffic arrives behind the flood.
		for i := 0; i < nCrit; i++ {
			predict(nBatch + i)
		}
		waitFor(t, "critical queue to fill", func() bool { return r.queued(serve.Critical) == nCrit })

		r.gate.release()
		wg.Wait()
		r.inf.Close() // drain everything before reading stats

		seq := r.gate.dispatched()
		if len(seq) != nBatch+nCrit {
			t.Fatalf("dispatched %d batches, want %d", len(seq), nBatch+nCrit)
		}
		// The pre-release dispatches are the three Batch requests the
		// stalled pipeline already held; the contest starts after them.
		post := seq[3:]
		lastCrit := -1
		for i, id := range post {
			if classOf(id) == serve.Critical {
				lastCrit = i
			}
		}
		if lastCrit < 0 {
			t.Fatal("no critical dispatch recorded")
		}
		// Bounded delay: with weights 16:1 the 30 Criticals fit in two DRR
		// rounds (16+1, 14+1 dispatches); allow slack for round-boundary
		// effects. Under FIFO they would sit behind the ~117 queued Batch
		// requests.
		if lastCrit >= 40 {
			t.Fatalf("last critical dispatched at slot %d; DRR should finish them within ~32 slots", lastCrit)
		}
		// Anti-starvation: while Critical backlog drained (the first
		// lastCrit+1 slots), Batch still got dispatches. Its fair share of
		// those slots is weight/(weight sum) = 1/17; require at least half
		// of that (the acceptance bound: within 2x of fair share).
		contested := post[:lastCrit+1]
		batchServed := 0
		for _, id := range contested {
			if classOf(id) == serve.Batch {
				batchServed++
			}
		}
		fair := float64(len(contested)) / 17.0
		if float64(batchServed) < fair/2 {
			t.Fatalf("batch got %d of %d contested slots; fair share %.1f, want >= %.1f",
				batchServed, len(contested), fair, fair/2)
		}

		st := r.inf.Stats()
		crit, batch := st.PerClass[serve.Critical], st.PerClass[serve.Batch]
		if crit.Requests != nCrit || batch.Requests != nBatch || st.PerClass[serve.Normal].Requests != 0 {
			t.Fatalf("per-class requests = %d critical / %d batch / %d normal, want %d/%d/0",
				crit.Requests, batch.Requests, st.PerClass[serve.Normal].Requests, nCrit, nBatch)
		}
		if crit.P99Ns <= 0 || batch.P99Ns <= 0 {
			t.Fatalf("per-class percentiles missing: %+v", st.PerClass)
		}
		// The parked-executor backlog made every Batch request wait out
		// the Critical drain: its queueing tail must dominate Critical's.
		if crit.QueueP99Ns >= batch.QueueP99Ns {
			t.Fatalf("critical queue p99 %.0f >= batch queue p99 %.0f", crit.QueueP99Ns, batch.QueueP99Ns)
		}
	})
}

// TestSchedulerShedsPerLane fills the pipeline — executor parked, shard
// queue full, scheduler blocked mid-route, class queue full — and
// checks both admission lanes fail fast with their own typed overload
// error instead of blocking, each shed recorded against its lane.
func TestSchedulerShedsPerLane(t *testing.T) {
	forEachDeployment(t, 1, 1, func(t *testing.T, r *schedRig) {
		ctx := context.Background()
		wg := saturate(t, r)
		wg.Add(1)
		go func() { // sits in the depth-1 Normal class queue
			defer wg.Done()
			if _, err := r.inf.Predict(ctx, r.request(3, serve.Normal)); err != nil {
				t.Errorf("request 3: %v", err)
			}
		}()
		waitFor(t, "class queue to fill", func() bool { return r.queued(serve.Normal) == 1 })

		start := time.Now()
		_, err := r.inf.Predict(ctx, r.request(4, serve.Normal))
		var oe *serve.OverloadError
		if !errors.Is(err, serve.ErrOverloaded) || !errors.As(err, &oe) || oe.Lane != serve.LanePredict {
			t.Fatalf("full-queue Predict error = %#v, want a predict-lane OverloadError", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shed took %v; fail-fast means immediate", d)
		}

		// The blocked scheduler drains no updates either: offer more
		// than the update lane holds, and the excess must shed typed.
		const offered = 96
		delta := []serve.Delta{{Table: 0, Row: 0, Vec: make([]float32, r.embDim)}}
		updErrs := make(chan error, offered)
		for i := 0; i < offered; i++ {
			go func() { updErrs <- r.inf.ApplyDeltas(ctx, delta) }()
		}
		waitFor(t, "every update to queue or shed", func() bool {
			snap := r.reg.Snapshot()
			return snap.Get("serve_update_queue_depth")+snap.Get("serve_update_shed_total") == offered
		})

		r.gate.release()
		wg.Wait()
		r.inf.Close() // drain everything before reading stats
		var updShed, updApplied int64
		for i := 0; i < offered; i++ {
			switch err := <-updErrs; {
			case err == nil:
				updApplied++
			case errors.Is(err, serve.ErrUpdateOverloaded) && errors.As(err, &oe) && oe.Lane == serve.LaneUpdate:
				updShed++
			default:
				t.Fatalf("update error = %#v, want nil or an update-lane OverloadError", err)
			}
		}
		if updShed == 0 || updApplied == 0 {
			t.Fatalf("updates applied/shed = %d/%d, want both non-zero", updApplied, updShed)
		}

		st := r.inf.Stats()
		if st.Shed != 1 || st.Requests != 4 {
			t.Fatalf("Shed/Requests = %d/%d, want 1/4", st.Shed, st.Requests)
		}
		if got, want := st.ShedRate(), 0.2; got != want {
			t.Fatalf("ShedRate = %v, want %v", got, want)
		}
		if cs := st.PerClass[serve.Normal]; cs.Shed != 1 || cs.Requests != 4 || cs.ShedRate() != 0.2 {
			t.Fatalf("Normal class stats = %d shed / %d served, want 1/4", cs.Shed, cs.Requests)
		}
		if st.UpdateShed != updShed || st.UpdateBatches != updApplied {
			t.Fatalf("update stats shed/applied = %d/%d, want %d/%d", st.UpdateShed, st.UpdateBatches, updShed, updApplied)
		}
		if st.QueueP50Ns < 0 || st.QueueP95Ns < st.QueueP50Ns || st.QueueP99Ns < st.QueueP95Ns {
			t.Fatalf("queue percentiles not monotone: %v/%v/%v", st.QueueP50Ns, st.QueueP95Ns, st.QueueP99Ns)
		}
		if st.MRAMBytesRead <= 0 {
			t.Fatalf("MRAMBytesRead = %d after %d served requests", st.MRAMBytesRead, st.Requests)
		}
	})
}

// TestSchedulerCancelWhileQueued enqueues a request behind a parked
// executor, cancels it while queued, and checks it surfaces ctx.Err()
// and pollutes no counters once the pipeline drains.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	forEachDeployment(t, 1, 4, func(t *testing.T, r *schedRig) {
		wg := saturate(t, r)

		cctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, err := r.inf.Predict(cctx, r.request(3, serve.Normal))
			errCh <- err
		}()
		waitFor(t, "request 3 to queue", func() bool { return r.queued(serve.Normal) == 1 })
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Predict error = %v, want context.Canceled", err)
		}

		r.gate.release()
		wg.Wait()
		r.inf.Close() // drain everything before reading stats
		st := r.inf.Stats()
		if st.Requests != 3 {
			t.Fatalf("Requests = %d, want 3 (cancelled request polluted stats)", st.Requests)
		}
		if st.Errors != 0 || st.Shed != 0 {
			t.Fatalf("Errors/Shed = %d/%d, want 0/0", st.Errors, st.Shed)
		}
	})
}

// TestSchedulerValidation covers the ErrBadRequest / context / ErrClosed
// taxonomy of both lanes: one validator serves every deployment.
func TestSchedulerValidation(t *testing.T) {
	forEachDeployment(t, 1, 4, func(t *testing.T, r *schedRig) {
		r.gate.release()
		ctx := context.Background()
		good := r.request(0, serve.Normal)
		rows := r.profile.RowsPerTable
		vec := make([]float32, r.embDim)

		pastEnd := make([][]int32, len(rows))
		for i := range pastEnd {
			pastEnd[i] = []int32{int32(rows[i])}
		}
		badReqs := map[string]serve.Request{
			"short dense":   {Dense: good.Dense[:1], Sparse: good.Sparse},
			"short sparse":  {Dense: good.Dense, Sparse: good.Sparse[:1]},
			"row past end":  {Dense: good.Dense, Sparse: pastEnd},
			"unknown class": {Dense: good.Dense, Sparse: good.Sparse, Class: serve.Class(9)},
		}
		for name, req := range badReqs {
			if _, err := r.inf.Predict(ctx, req); !errors.Is(err, serve.ErrBadRequest) {
				t.Errorf("predict %s: err = %v, want ErrBadRequest", name, err)
			}
		}
		badDeltas := map[string][]serve.Delta{
			"empty":        nil,
			"bad table":    {{Table: len(rows), Row: 0, Vec: vec}},
			"negative row": {{Table: 0, Row: -1, Vec: vec}},
			"row past end": {{Table: 0, Row: int32(rows[0]), Vec: vec}},
			"short vec":    {{Table: 0, Row: 0, Vec: vec[:r.embDim-1]}},
		}
		for name, deltas := range badDeltas {
			if err := r.inf.ApplyDeltas(ctx, deltas); !errors.Is(err, serve.ErrBadRequest) {
				t.Errorf("update %s: err = %v, want ErrBadRequest", name, err)
			}
		}

		okDelta := []serve.Delta{{Table: 0, Row: 0, Vec: vec}}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := r.inf.Predict(cancelled, good); !errors.Is(err, context.Canceled) {
			t.Fatalf("predict on cancelled ctx: %v", err)
		}
		if err := r.inf.ApplyDeltas(cancelled, okDelta); !errors.Is(err, context.Canceled) {
			t.Fatalf("update on cancelled ctx: %v", err)
		}
		if st := r.inf.Stats(); st.Shed != 0 || st.Requests != 0 || st.UpdateBatches != 0 {
			t.Fatalf("rejected calls left traces: %+v", st)
		}

		r.inf.Close()
		if _, err := r.inf.Predict(ctx, good); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("predict after close: %v", err)
		}
		if err := r.inf.ApplyDeltas(ctx, okDelta); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("update after close: %v", err)
		}
	})
}

// TestClusterClassScheduling: under -cluster the serving tier's class
// machinery applies. Three classes arrive together inside one long
// batching window; the scheduler forms class-pure micro-batches (a
// class-blind FIFO batcher would have coalesced all eight requests into
// one), echoes each request's class, and reports per-class statistics
// and one shard profile per gather worker.
func TestClusterClassScheduling(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	front, _, err := New(model, profile, ecfg, Config{
		Nodes:       []string{"node-a", "node-b"},
		MaxBatch:    8,
		BatchWindow: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	mix := map[serve.Class]int{serve.Critical: 2, serve.Normal: 3, serve.Batch: 3}
	var wg sync.WaitGroup
	i := 0
	for class, n := range mix {
		for k := 0; k < n; k++ {
			s := profile.Samples[i]
			i++
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := front.Predict(context.Background(), serve.Request{Dense: s.Dense, Sparse: s.Sparse, Class: class})
				if err != nil {
					t.Errorf("%v request: %v", class, err)
					return
				}
				if resp.Class != class {
					t.Errorf("Response.Class = %v, want %v", resp.Class, class)
				}
				if resp.BatchSize > mix[class] {
					t.Errorf("%v request rode a micro-batch of %d, more than its class sent (%d): batches are not class-pure",
						class, resp.BatchSize, mix[class])
				}
			}()
		}
	}
	wg.Wait()
	front.Close() // a reply precedes its stats record; drain before reading

	st := front.Stats()
	for class, n := range mix {
		cs := st.PerClass[class]
		if cs.Requests != int64(n) || cs.P99Ns <= 0 {
			t.Errorf("PerClass[%v] = %d requests, p99 %v; want %d requests and a latency summary", class, cs.Requests, cs.P99Ns, n)
		}
	}
	if len(st.Shards) != DefaultGatherWorkers {
		t.Fatalf("Stats.Shards has %d entries, want one per gather worker (%d)", len(st.Shards), DefaultGatherWorkers)
	}
}
