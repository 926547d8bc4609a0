package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"updlrm/internal/baseline"
	"updlrm/internal/core"
	"updlrm/internal/hotcache"
	"updlrm/internal/metrics"
	"updlrm/internal/serve"
)

// modeled is the outcome of the deterministic replay: modeled-clock
// totals over the workload's first replaySamples samples. Nothing here
// depends on host timing, so it repeats exactly for a given seed.
type modeled struct {
	batches int
	// stages sums every replayed batch's breakdown, the ApplyDeltas
	// share of a read/write workload included (UpdateNs).
	stages metrics.Breakdown
	// cpuNs is the DLRM-CPU baseline's modeled total on the same
	// batches.
	cpuNs float64
	// cacheHits and cacheMisses are the replay's hot-cache row counts.
	cacheHits, cacheMisses int64
}

func (m *modeled) batchUs() float64    { return m.stages.TotalNs() / float64(m.batches) / 1e3 }
func (m *modeled) cpuBatchUs() float64 { return m.cpuNs / float64(m.batches) / 1e3 }
func (m *modeled) speedup() float64    { return m.cpuNs / m.stages.TotalNs() }

// replay runs the workload's first replaySamples samples at the
// workload's batch size through a fresh deployment with no timing
// dependence: direct Engine.RunBatch, or — for the cluster, which has
// no synchronous batch entry point — waves of exactly maxBatch
// concurrent Predicts held open until the micro-batch is full.
func (w *workload) replay(in *inputs) (*modeled, error) {
	n := w.replayBatches()
	m := &modeled{batches: n}
	cpu, err := baseline.NewCPU(in.model, w.engineConfig().Host)
	if err != nil {
		return nil, err
	}
	for _, b := range in.batches[:n] {
		res, err := cpu.RunBatch(b)
		if err != nil {
			return nil, err
		}
		m.cpuNs += res.Breakdown.TotalNs()
	}
	if w.kind == kindCluster {
		return m, w.replayCluster(in, m)
	}

	ecfg := w.engineConfig()
	if ecfg.HotCache, err = serve.NewHotCacheFor(hotcache.Config{CapacityBytes: in.cacheBytes},
		in.model.Cfg.NumTables(), in.model.Cfg.EmbDim); err != nil {
		return nil, err
	}
	eng, err := core.New(in.model.Clone(), in.profile, ecfg)
	if err != nil {
		return nil, err
	}
	if ecfg.HotCache != nil {
		// Statistics start after the modeled cache has filled: the pool's
		// other half warms it.
		for _, b := range in.batches[n:] {
			if _, err := eng.RunBatch(b); err != nil {
				return nil, err
			}
		}
	}
	deltas := make([]serve.Delta, updateRows)
	var rows []int32
	var vecs []float32
	for k, b := range in.batches[:n] {
		res, err := eng.RunBatch(b)
		if err != nil {
			return nil, err
		}
		m.stages.Add(res.Breakdown)
		m.cacheHits += res.HostCacheHits
		m.cacheMisses += res.HostCacheMisses
		if !w.updates {
			for s, got := range res.CTR {
				if err := in.check(w.steadyCheck(), k*w.batch+s, got); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
			}
			continue
		}
		// One ApplyDeltas call of updateRows rows per maxBatch predicts,
		// the served mix's ratio.
		in.fillDeltas(deltas, 0, k)
		for t := 0; t < in.model.Cfg.NumTables(); t++ {
			rows, vecs = rows[:0], vecs[:0]
			for _, d := range deltas {
				if d.Table == t {
					rows, vecs = append(rows, d.Row), append(vecs, d.Vec...)
				}
			}
			if len(rows) == 0 {
				continue
			}
			ur, err := eng.ApplyDeltas(t, rows, vecs)
			if err != nil {
				return nil, err
			}
			m.stages.Add(ur.Breakdown)
		}
	}
	return m, nil
}

// replayCluster replays through the frontend in waves of exactly
// maxBatch requests. The modeled kernel time depends on the order of a
// micro-batch's samples (reads are dealt to tasklets in issue order), so
// a wave's requests are enqueued one after another and the order is
// verified afterwards from Response.QueueNs — all requests of a batch
// are dispatched at one instant, so an earlier arrival waited longer. A
// wave that arrived out of order is sent again.
func (w *workload) replayCluster(in *inputs, m *modeled) error {
	d, err := w.deploy(in, deployOpts{batchWindow: 5 * time.Second})
	if err != nil {
		return err
	}
	defer d.close()
	ctx := context.Background()
	resps := make([]serve.Response, maxBatch)
	errs := make([]error, maxBatch)
	for k := 0; k < m.batches; k++ {
		for attempt := 1; ; attempt++ {
			var wg sync.WaitGroup
			for i := 0; i < maxBatch; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := in.live.Samples[k*maxBatch+i]
					resps[i], errs[i] = d.inf.Predict(ctx, serve.Request{Dense: s.Dense, Sparse: s.Sparse})
				}()
				// Let request i reach the queue before i+1 is sent.
				for gap := time.Now(); time.Since(gap) < 30*time.Microsecond; {
					runtime.Gosched()
				}
			}
			wg.Wait()
			ordered := true
			for i, r := range resps {
				if errs[i] != nil {
					return fmt.Errorf("replay wave %d: %w", k, errs[i])
				}
				if r.BatchSize != maxBatch {
					return fmt.Errorf("replay wave %d: micro-batch of %d, want %d", k, r.BatchSize, maxBatch)
				}
				if err := in.check(checkExact, k*maxBatch+i, r.CTR); err != nil {
					return fmt.Errorf("replay wave %d: %w", k, err)
				}
				ordered = ordered && (i == 0 || r.QueueNs < resps[i-1].QueueNs)
			}
			if ordered {
				break
			}
			if attempt == 8 {
				return fmt.Errorf("replay wave %d: requests arrived out of order %d times", k, attempt)
			}
		}
		m.stages.Add(resps[0].Breakdown)
	}
	return nil
}

// steadyCheck is the reference check that holds while no delta has been
// applied: bit-for-bit, or within summation-order tolerance behind a hot
// cache.
func (w *workload) steadyCheck() checkMode {
	if w.cacheFrac > 0 {
		return checkTol
	}
	return checkExact
}
