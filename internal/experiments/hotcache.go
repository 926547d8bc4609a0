package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/hotcache"
	"updlrm/internal/partition"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/trace"
)

// HotCacheRow is one point of the serving-tier cache study: one
// (workload skew, partitioning method, cache size) cell.
type HotCacheRow struct {
	// Preset is the workload (its Zipf exponent sets the skew).
	Preset string
	// Method is the partitioning strategy label (U / NU / CA).
	Method string
	// CachePct is the cache budget as a percentage of the model's total
	// embedding storage; 0 is today's cache-less behavior.
	CachePct float64
	// HitRate is the shared cache's row hit rate over the live stream.
	HitRate float64
	// MRAMBytes is the total modeled DPU memory traffic.
	MRAMBytes int64
	// P50Ns and P95Ns are the served end-to-end modeled percentiles.
	P50Ns, P95Ns float64
	// ShedRate is the fraction of requests rejected by admission
	// control (non-zero only when the driver outruns the queue).
	ShedRate float64
}

// HotCacheStudy sweeps the serving-tier hot-row cache across workload
// skews, partitioning methods and cache sizes: each cell builds a
// 2-shard serving runtime over the preset's profile trace, replays the
// disjoint live stream through it closed-loop, and reports hit rate,
// DPU memory traffic and latency percentiles. The 0% column is the
// cache-less baseline every other column is judged against — under
// skewed presets a cache worth a few percent of embedding storage
// should cut MRAM traffic and the latency percentiles; under the
// near-uniform "clo" skew it should barely matter (the RecNMP
// observation that hot-entry caching tracks access skew).
func HotCacheStudy(scale Scale, presets []string, methods []partition.Method,
	cachePcts []float64) (*Report, []HotCacheRow, error) {
	if err := scale.Validate(); err != nil {
		return nil, nil, err
	}
	if len(presets) == 0 {
		presets = []string{synth.PresetHome, synth.PresetRead}
	}
	if len(methods) == 0 {
		methods = []partition.Method{partition.MethodUniform, partition.MethodCacheAware}
	}
	if len(cachePcts) == 0 {
		cachePcts = []float64{0, 1, 5}
	}
	rep := &Report{
		ID:    "S7",
		Title: "Serving-tier hot-row cache: hit rate and DPU traffic vs cache size (extension)",
		Headers: []string{"Workload", "Method", "Cache %", "Hit rate",
			"MRAM (KB)", "p50 (us)", "p95 (us)", "vs 0%"},
	}
	var rows []HotCacheRow
	for _, preset := range presets {
		model, profile, live, err := servingWorkload(preset, scale)
		if err != nil {
			return nil, nil, err
		}
		var totalBytes int64
		for _, r := range model.Cfg.RowsPerTable {
			totalBytes += int64(r) * int64(model.Cfg.EmbDim) * 4
		}
		for _, method := range methods {
			var baseMRAM int64
			for _, pct := range cachePcts {
				row, err := runHotCacheCell(model, profile, live, scale, method, pct, totalBytes)
				if err != nil {
					return nil, nil, fmt.Errorf("experiments: %s/%v/%.1f%%: %w", preset, method, pct, err)
				}
				row.Preset = preset
				if pct == 0 {
					baseMRAM = row.MRAMBytes
				}
				vsBase := "-"
				if pct > 0 && baseMRAM > 0 {
					vsBase = fmt.Sprintf("%.1f%%", 100*(1-float64(row.MRAMBytes)/float64(baseMRAM)))
				}
				rows = append(rows, row)
				rep.Rows = append(rep.Rows, []string{
					preset, row.Method, fmt.Sprintf("%.1f", pct),
					fmt.Sprintf("%.3f", row.HitRate),
					fmt.Sprintf("%d", row.MRAMBytes/1024),
					us(row.P50Ns), us(row.P95Ns), vsBase,
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"hit rate tracks the workload's Zipf skew: the TinyLFU filter converges on the hot set from the live stream alone",
		"the 'vs 0%' column is MRAM traffic saved relative to the cache-less run of the same method")
	return rep, rows, nil
}

// servingWorkload generates a preset at scale and splits it into a
// profiling trace (partitioner input) and a disjoint live stream.
func servingWorkload(preset string, scale Scale) (*dlrm.Model, *trace.Trace, []trace.Sample, error) {
	spec, err := synth.Preset(preset)
	if err != nil {
		return nil, nil, nil, err
	}
	scaled := synth.Scaled(spec, scale.ItemFrac, scale.RedFrac)
	stream, err := scaled.Generate(scale.Inferences)
	if err != nil {
		return nil, nil, nil, err
	}
	profileN := len(stream.Samples) / 4
	if profileN < 1 {
		return nil, nil, nil, fmt.Errorf("experiments: %d samples cannot split into profile+live", len(stream.Samples))
	}
	profile := &trace.Trace{
		NumTables:    stream.NumTables,
		RowsPerTable: stream.RowsPerTable,
		DenseDim:     stream.DenseDim,
		Samples:      stream.Samples[:profileN],
	}
	model, err := dlrm.New(dlrm.DefaultConfig(stream.RowsPerTable))
	if err != nil {
		return nil, nil, nil, err
	}
	return model, profile, stream.Samples[profileN:], nil
}

// runHotCacheCell serves one live stream through a freshly built
// 2-shard runtime with the given cache size and returns its stats.
func runHotCacheCell(model *dlrm.Model, profile *trace.Trace, live []trace.Sample,
	scale Scale, method partition.Method, cachePct float64, totalBytes int64) (HotCacheRow, error) {
	ecfg := core.DefaultConfig()
	ecfg.TotalDPUs = scale.TotalDPUs
	ecfg.BatchSize = scale.BatchSize
	ecfg.Method = method
	cache, err := hotcache.New(hotcache.Config{
		CapacityBytes: int64(cachePct / 100 * float64(totalBytes)),
		Seed:          0x5eed,
	}, model.Cfg.EmbDim)
	if err != nil {
		return HotCacheRow{}, err
	}
	ecfg.HotCache = cache
	engines, err := serve.NewShards(model, profile, []core.Config{ecfg, ecfg})
	if err != nil {
		return HotCacheRow{}, err
	}
	srv, err := serve.New(engines, serve.Config{
		MaxBatch:    16,
		BatchWindow: 100 * time.Microsecond,
	})
	if err != nil {
		return HotCacheRow{}, err
	}
	if err := driveClosed(srv, live, 8); err != nil {
		srv.Close()
		return HotCacheRow{}, err
	}
	st := srv.Stats()
	srv.Close()
	return HotCacheRow{
		Method:    method.String(),
		CachePct:  cachePct,
		HitRate:   st.CacheHitRate,
		MRAMBytes: st.MRAMBytesRead,
		P50Ns:     st.P50Ns,
		P95Ns:     st.P95Ns,
		ShedRate:  st.ShedRate(),
	}, nil
}

// driveClosed replays samples through the server from a fixed worker
// pool. Sheds (queue full) are retried — a sweep wants every sample's
// lookups counted; a failed worker drains its feed without predicting
// so the generator never deadlocks.
func driveClosed(srv *serve.Server, samples []trace.Sample, workers int) error {
	ctx := context.Background()
	next := make(chan trace.Sample)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for s := range next {
				if failed {
					continue
				}
				for {
					_, err := srv.Predict(ctx, serve.Request{Dense: s.Dense, Sparse: s.Sparse})
					if errors.Is(err, serve.ErrOverloaded) {
						time.Sleep(50 * time.Microsecond)
						continue
					}
					if err != nil {
						errCh <- err
						failed = true
					}
					break
				}
			}
		}()
	}
	for _, s := range samples {
		next <- s
	}
	close(next)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}
