package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/hotcache"
	"updlrm/internal/obs"
	"updlrm/internal/partition"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
	"updlrm/internal/trace"
)

// WriteAwareRow is one workload of the write-aware partitioning study.
type WriteAwareRow struct {
	// Workload is the preset name; WriteRatio its deltas-per-lookup.
	Workload   string
	WriteRatio float64
	// CachedLists is how many GRACE subset-sum groups the planner chose
	// to keep resident once refresh traffic discounts their benefit.
	CachedLists int
	// EmbedNs is the modeled read-path embedding time of the serving
	// window; UpdateNs the modeled cost of the matching update stream.
	EmbedNs  float64
	UpdateNs float64
	// MRAMWriteBytes is the modeled MRAM write traffic (delta RMWs plus
	// cached-group refreshes); UpdateSharePct is UpdateNs's share of
	// the combined modeled time.
	MRAMWriteBytes int64
	UpdateSharePct float64
	// UpdatedRows is the update stream's length in row deltas.
	UpdatedRows int
}

// WriteAware runs the S8 study: the same GoodReads traces planned
// read-only versus write-aware. Each write preset shares its read
// counterpart's seed, so the read stream is bit-identical and every
// difference is attributable to the update stream: the cache-aware
// planner must admit fewer (or equal) subset-sum groups once refresh
// writes discount their benefit, and the update stream must charge
// modeled MRAM write traffic the read rows never see.
func WriteAware(scale Scale) (*Report, []WriteAwareRow, error) {
	if err := scale.Validate(); err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "S8",
		Title: "Write-aware partitioning: read-only vs online-update planning (extension)",
		Headers: []string{"Workload", "Write ratio", "Cached lists", "Embed (us)",
			"Update (us)", "Update share", "MRAM write (KB)"},
	}
	var rows []WriteAwareRow
	for _, name := range synth.WritePresetNames() {
		spec, err := synth.Preset(name)
		if err != nil {
			return nil, nil, err
		}
		scaled := synth.Scaled(spec, scale.ItemFrac, scale.RedFrac)
		row, err := runWriteAwareCell(name, scaled, scale)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, []string{
			name, f2(row.WriteRatio), fmt.Sprintf("%d", row.CachedLists),
			us(row.EmbedNs), us(row.UpdateNs),
			fmt.Sprintf("%.1f%%", row.UpdateSharePct),
			fmt.Sprintf("%d", row.MRAMWriteBytes/1024),
		})
	}
	rep.Notes = append(rep.Notes,
		"write presets share their read counterpart's seed: the read stream is bit-identical, so plan differences are purely write-driven",
		"cached lists shrink under writes because every delta to a cached group's member forces a subset-sum refresh in MRAM")
	return rep, rows, nil
}

// runWriteAwareCell plans one preset write-aware, replays its trace for
// the read-path time, and pushes the matching update stream through
// ApplyDeltas for the modeled write cost.
func runWriteAwareCell(name string, spec synth.Spec, scale Scale) (WriteAwareRow, error) {
	tr, err := spec.Generate(scale.Inferences)
	if err != nil {
		return WriteAwareRow{}, err
	}
	model, err := dlrm.New(dlrm.DefaultConfig(tr.RowsPerTable))
	if err != nil {
		return WriteAwareRow{}, err
	}
	cfg := core.DefaultConfig()
	cfg.TotalDPUs = scale.TotalDPUs
	cfg.BatchSize = scale.BatchSize
	cfg.Method = partition.MethodCacheAware
	cfg.WriteRatio = spec.WriteRatio
	eng, err := core.New(model, tr, cfg)
	if err != nil {
		return WriteAwareRow{}, err
	}
	row := WriteAwareRow{Workload: name, WriteRatio: spec.WriteRatio}
	for _, p := range eng.Plans() {
		row.CachedLists += p.CachedLists()
	}

	var lookups int64
	for _, b := range trace.Batches(tr, scale.BatchSize) {
		res, err := eng.RunBatch(b)
		if err != nil {
			return WriteAwareRow{}, err
		}
		row.EmbedNs += res.Breakdown.EmbedNs()
		for t := 0; t < tr.NumTables; t++ {
			lookups += int64(len(b.Idx[t]))
		}
	}

	if spec.WriteRatio > 0 {
		ups, err := spec.Updates(int(spec.WriteRatio * float64(lookups)))
		if err != nil {
			return WriteAwareRow{}, err
		}
		row.UpdatedRows = len(ups)
		dim := eng.EmbDim()
		delta := make([]float32, dim)
		for i := range delta {
			delta[i] = 1e-4
		}
		// Replay in arrival-order chunks, grouped per table within each
		// chunk — the shape a serving-tier update stream delivers.
		const chunk = 256
		for lo := 0; lo < len(ups); lo += chunk {
			hi := lo + chunk
			if hi > len(ups) {
				hi = len(ups)
			}
			perTable := make([][]int32, tr.NumTables)
			for _, u := range ups[lo:hi] {
				perTable[u.Table] = append(perTable[u.Table], u.Row)
			}
			for t, rows := range perTable {
				if len(rows) == 0 {
					continue
				}
				flat := make([]float32, 0, len(rows)*dim)
				for range rows {
					flat = append(flat, delta...)
				}
				res, err := eng.ApplyDeltas(t, rows, flat)
				if err != nil {
					return WriteAwareRow{}, err
				}
				row.UpdateNs += res.Breakdown.UpdateNs
				row.MRAMWriteBytes += res.MRAMBytesWritten
			}
		}
	}
	if total := row.EmbedNs + row.UpdateNs; total > 0 {
		row.UpdateSharePct = 100 * row.UpdateNs / total
	}
	return row, nil
}

// UpdateDriftRow is one phase of the online-update drift study.
type UpdateDriftRow struct {
	// Phase labels the serving window ("stable" before the hot-set
	// migration, "drifted" after).
	Phase string
	// HitRate is the shared cache's hit rate within the phase.
	HitRate float64
	// Invalidations counts cache entries evicted by the phase's update
	// stream; UpdatedRows its row deltas.
	Invalidations int64
	UpdatedRows   int64
	// UpdateP99Ns is the measured wall p99 of ApplyDeltas calls
	// completed by the end of the phase (cumulative).
	UpdateP99Ns float64
	// ShedRate is admission-control sheds over offered load.
	ShedRate float64
}

// UpdateDrift runs the S9 study: a 2-shard serving runtime with a shared
// hot-row cache absorbs a live stream *and* a concurrent online-update
// stream at the preset's write ratio; halfway through, the hot set
// migrates (every row index rotates by half the table), forcing the
// TinyLFU filter to age onto the new hot set while updates keep
// invalidating resident rows. The drifted phase must still serve — hit
// rate recovers as the filter adapts — and every invalidation is
// accounted.
func UpdateDrift(scale Scale) (*Report, []UpdateDriftRow, error) {
	if err := scale.Validate(); err != nil {
		return nil, nil, err
	}
	const preset = synth.PresetWrite
	spec, err := synth.Preset(preset)
	if err != nil {
		return nil, nil, err
	}
	spec = synth.Scaled(spec, scale.ItemFrac, scale.RedFrac)
	model, profile, live, err := servingWorkload(preset, scale)
	if err != nil {
		return nil, nil, err
	}
	var totalBytes int64
	for _, r := range model.Cfg.RowsPerTable {
		totalBytes += int64(r) * int64(model.Cfg.EmbDim) * 4
	}
	ecfg := core.DefaultConfig()
	ecfg.TotalDPUs = scale.TotalDPUs
	ecfg.BatchSize = scale.BatchSize
	ecfg.Method = partition.MethodCacheAware
	ecfg.WriteRatio = spec.WriteRatio
	cache, err := hotcache.New(hotcache.Config{
		CapacityBytes: totalBytes / 50, // 2% of embedding storage
		Seed:          0x5eed,
	}, model.Cfg.EmbDim)
	if err != nil {
		return nil, nil, err
	}
	ecfg.HotCache = cache
	engines, err := serve.NewShards(model, profile, []core.Config{ecfg, ecfg})
	if err != nil {
		return nil, nil, err
	}
	// Per-phase accounting comes from the metrics registry: a snapshot
	// diff across each phase isolates that phase's hits, misses,
	// invalidations and updated rows without hand-carried counters.
	reg := obs.NewRegistry()
	srv, err := serve.New(engines, serve.Config{
		MaxBatch:    16,
		BatchWindow: 100 * time.Microsecond,
		Metrics:     reg,
	})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()

	// The update stream at the preset's write ratio, halved per phase;
	// the drifted halves of both streams rotate row indices by half the
	// table — the same hot distribution over a disjoint hot set.
	var lookups int64
	for _, s := range live {
		for _, bag := range s.Sparse {
			lookups += int64(len(bag))
		}
	}
	ups, err := spec.Updates(int(spec.WriteRatio * float64(lookups)))
	if err != nil {
		return nil, nil, err
	}
	halfLive, halfUps := len(live)/2, len(ups)/2
	drifted := make([]trace.Sample, len(live)-halfLive)
	for i, s := range live[halfLive:] {
		drifted[i] = rotateSample(s, model.Cfg.RowsPerTable)
	}

	rep := &Report{
		ID:    "S9",
		Title: "Online-update drift: hot-set migration under a live update stream (extension)",
		Headers: []string{"Phase", "Hit rate", "Invalidations", "Updated rows",
			"Update p99 (us)", "Shed rate"},
	}
	var rows []UpdateDriftRow
	prev := reg.Snapshot()
	for _, phase := range []struct {
		name    string
		samples []trace.Sample
		ups     []synth.RowUpdate
		rotate  bool
	}{
		{"stable", live[:halfLive], ups[:halfUps], false},
		{"drifted", drifted, ups[halfUps:], true},
	} {
		phaseUps := phase.ups
		if phase.rotate {
			phaseUps = make([]synth.RowUpdate, len(phase.ups))
			for i, u := range phase.ups {
				rows := model.Cfg.RowsPerTable[u.Table]
				phaseUps[i] = synth.RowUpdate{Table: u.Table, Row: rotateRow(u.Row, rows)}
			}
		}
		if err := driveClosedRW(srv, phase.samples, phaseUps, model.Cfg.EmbDim, 8); err != nil {
			return nil, nil, fmt.Errorf("experiments: updrift %s: %w", phase.name, err)
		}
		st := srv.Stats()
		snap := reg.Snapshot()
		d := snap.Sub(prev)
		row := UpdateDriftRow{
			Phase:         phase.name,
			HitRate:       phaseRate(int64(sumSamples(d, "hotcache_hits_total{")), int64(sumSamples(d, "hotcache_misses_total{"))),
			Invalidations: int64(d.Get("serve_update_invalidations_total")),
			UpdatedRows:   int64(d.Get("serve_update_rows_total")),
			UpdateP99Ns:   st.UpdateP99Ns,
			ShedRate:      st.ShedRate(),
		}
		prev = snap
		rows = append(rows, row)
		rep.Rows = append(rep.Rows, []string{
			row.Phase, fmt.Sprintf("%.3f", row.HitRate),
			fmt.Sprintf("%d", row.Invalidations),
			fmt.Sprintf("%d", row.UpdatedRows),
			us(row.UpdateP99Ns),
			fmt.Sprintf("%.3f", row.ShedRate),
		})
	}
	rep.Notes = append(rep.Notes,
		"the migration invalidates the TinyLFU filter's learned hot set: the drifted phase re-learns it from the live stream while updates churn resident rows",
		"invalidations track the overlap between the update stream and the cache's residents — both follow the same Zipf head")
	return rep, rows, nil
}

// rotateRow shifts a row index by half the table, wrapping — a hot-set
// migration that preserves the popularity distribution's shape.
func rotateRow(row int32, rows int) int32 {
	return int32((int(row) + rows/2) % rows)
}

// rotateSample deep-copies a sample with every sparse index rotated.
func rotateSample(s trace.Sample, rowsPerTable []int) trace.Sample {
	out := trace.Sample{
		Dense:  s.Dense,
		Sparse: make([][]int32, len(s.Sparse)),
	}
	for t, bag := range s.Sparse {
		rot := make([]int32, len(bag))
		for i, r := range bag {
			rot[i] = rotateRow(r, rowsPerTable[t])
		}
		out.Sparse[t] = rot
	}
	return out
}

// phaseRate returns hits/(hits+misses) for one phase's deltas.
func phaseRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// sumSamples totals every snapshot sample whose key starts with prefix
// — a labeled counter family (e.g. per-table cache hits) summed across
// its children.
func sumSamples(s obs.Snapshot, prefix string) float64 {
	var total float64
	for _, k := range s.Keys() {
		if strings.HasPrefix(k, prefix) {
			total += s.Get(k)
		}
	}
	return total
}

// driveClosedRW replays samples like driveClosed while a dedicated
// updater streams row deltas through Server.ApplyDeltas in chunks,
// retrying on a full update queue. It returns after both streams drain.
func driveClosedRW(srv *serve.Server, samples []trace.Sample, ups []synth.RowUpdate, dim, workers int) error {
	ctx := context.Background()
	errCh := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		vec := make([]float32, dim)
		for i := range vec {
			vec[i] = 1e-4
		}
		const chunk = 64
		for lo := 0; lo < len(ups); lo += chunk {
			hi := lo + chunk
			if hi > len(ups) {
				hi = len(ups)
			}
			deltas := make([]serve.Delta, hi-lo)
			for i, u := range ups[lo:hi] {
				deltas[i] = serve.Delta{Table: u.Table, Row: u.Row, Vec: vec}
			}
			for {
				err := srv.ApplyDeltas(ctx, deltas)
				if errors.Is(err, serve.ErrUpdateOverloaded) {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				break
			}
		}
	}()
	if err := driveClosed(srv, samples, workers); err != nil {
		<-done
		return err
	}
	<-done
	select {
	case err := <-errCh:
		return err
	default:
	}
	return nil
}
