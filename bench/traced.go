package main

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"updlrm/internal/obs"
	"updlrm/internal/serve"
)

// traceDir is where the traced run writes its spans, relative to the
// directory the benchmark is started from (the repository root).
const traceDir = "bench/out"

// spanEvery is the traced phase's sampling: spans for every eighth
// operation of each caller keep the trace file a few megabytes.
const spanEvery = 8

// perLayer is the traced run. Three short closed-loop phases on fresh
// deployments — plain, with the program's own obs.Registry and Tracer
// attached, and with the benchmark recording spans — give the counters
// read at the layer boundaries and the cost of both kinds of tracing;
// the layer probes and the modeled replay follow.
func (r *run) perLayer() (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// The plain phase also puts the raw host-clock numbers on the record,
	// so it gets the larger share of the run.
	dur := max(r.measure*12/100, 300*time.Millisecond)
	plainDur := max(r.measure*40/100, 300*time.Millisecond)

	var firstErr error
	served := func(o deployOpts, dur time.Duration, warmShare float64, spans bool) (*phaseResult, *deployment, error) {
		d, err := r.w.deploy(r.in, o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: deploy: %w", r.w.name, err)
		}
		a, f, werr := r.warm(d, warmShare)
		p := r.measured(d, dur)
		p.detail = true
		if spans {
			p.spanEvery = spanEvery
		}
		pr := p.run()
		res.Attempted += a + pr.attempted
		res.Failed += f + pr.failed
		for _, err := range []error{werr, pr.firstErr} {
			if firstErr == nil {
				firstErr = err
			}
		}
		return pr, d, nil
	}

	plain, d, err := served(deployOpts{}, plainDur, 1, false)
	if err != nil {
		return nil, err
	}
	// Counts are read from the public stats at the same boundary the
	// phase ends on.
	var st serve.Stats
	if d.inf != nil {
		st = d.inf.Stats()
	}
	if d.cache != nil {
		cs := d.cache.Stats()
		set("hotcache.hit_ratio", cs.HitRate(), "ratio")
		set("hotcache.admit_ratio", ratio(float64(cs.Admitted), float64(cs.Admitted+cs.Rejected)), "ratio")
		set("hotcache.resident_mb", float64(d.cache.SizeBytes())/(1<<20), "MB")
	} else {
		// No cache deployed on this workload: nothing was looked up.
		set("hotcache.hit_ratio", 0, "ratio")
		set("hotcache.admit_ratio", 0, "ratio")
		set("hotcache.resident_mb", 0, "MB")
	}
	var failovers, hedges float64
	if d.front != nil {
		for _, n := range d.front.ClusterStats().Nodes {
			failovers += float64(n.Failovers)
			hedges += float64(n.Hedges)
		}
	}
	set("cluster.failovers", failovers, "count")
	set("cluster.hedges", hedges, "count")
	d.close()

	instrumented, d, err := served(deployOpts{reg: obs.NewRegistry(), tracer: obs.NewTracer(64, 256)}, dur, 0.3, false)
	if err != nil {
		return nil, err
	}
	d.close()
	traced, d, err := served(deployOpts{}, dur, 0.3, true)
	if err != nil {
		return nil, err
	}
	d.close()
	if firstErr != nil {
		return nil, fmt.Errorf("%s: %d of %d operations failed, first: %w", r.w.name, res.Failed, res.Attempted, firstErr)
	}
	if err := r.honest(plain, plainDur); err != nil {
		return nil, err
	}

	rps := median(plain.winRPS)
	ops := float64(plain.attempted)
	set("wall.throughput_rps", rps, "1/s")
	set("wall.p50_ms", median(plain.winP50), "ms")
	set("wall.p95_ms", median(plain.winP95), "ms")
	set("obs.instrumented_throughput_ratio", ratio(median(instrumented.winRPS), rps), "ratio")
	set("bench.trace_overhead_ratio", ratio(median(traced.winRPS), rps), "ratio")
	set("bench.cpu_us_per_req", plain.cpuSeconds*1e6/ops, "us")
	set("bench.gc_pause_total_ms", float64(plain.gcPauseNs)/1e6, "ms")
	set("bench.window_rel_iqr", relIQR(plain.winRPS), "ratio")
	set("bench.inflight", float64(r.w.inflight()), "count")
	set("bench.min_window_ops", float64(plain.minWindowSamples), "count")
	set("bench.generator_gap_share", plain.gapShare, "ratio")
	set("bench.sched_wait_share", plain.schedWaitShare, "ratio")

	// The serve tier's counters exist where a serve.Response does; the
	// offline engine has no queue and no micro-batcher and reports 0.
	sort.Float64s(plain.queueNs)
	if r.w.kind == kindOffline {
		plain.queueNs = nil
	}
	set("serve.queue_wait_p50_ms", percentile(plain.queueNs, 0.50)/1e6, "ms")
	set("serve.queue_wait_p95_ms", percentile(plain.queueNs, 0.95)/1e6, "ms")
	set("serve.avg_batch_size", ratio(float64(plain.batchSum), float64(plain.batchN)), "count")
	p50 := func(v []float64) float64 {
		sort.Float64s(v)
		return percentile(v, 0.5) / 1e6
	}
	set("serve.crit_wall_p50_ms", p50(plain.classLat[serve.Critical]), "ms")
	set("serve.batch_wall_p50_ms", p50(plain.classLat[serve.Batch]), "ms")
	set("serve.update_wall_p50_ms", p50(plain.updateLat), "ms")
	set("serve.shed_ratio", st.ShedRate(), "ratio")

	spans, err := r.probeLayers(m, r.measure*12/1000)
	if err != nil {
		return nil, fmt.Errorf("%s: probe: %w", r.w.name, err)
	}

	// Per-request service interval of one worker, minus the engine's
	// share of it: what the tier around the engine costs per request.
	batchUs := m["core.run_batch_us"].Value
	perBatch := float64(r.w.batch)
	if r.w.kind != kindOffline {
		perBatch = m["serve.avg_batch_size"].Value
	}
	interval := ratio(1e6*float64(r.w.workers()), rps)
	set("serve.overhead_us_per_req", interval-batchUs/perBatch, "us")
	if r.w.kind == kindCluster {
		set("cluster.gather_overhead_us_per_batch",
			interval*perBatch-m["cluster.tcp_lookup_us"].Value-m["dlrm.forward_batch_us"].Value, "us")
	} else {
		set("cluster.gather_overhead_us_per_batch", 0, "us")
	}

	mod, err := r.w.replay(r.in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	n := float64(mod.batches) * 1e3
	bd := mod.stages
	set("core.modeled_cpu_to_dpu_us", bd.CPUToDPUNs/n, "us")
	set("core.modeled_dpu_lookup_us", bd.DPULookupNs/n, "us")
	set("core.modeled_dpu_to_cpu_us", bd.DPUToCPUNs/n, "us")
	set("core.modeled_host_agg_us", bd.HostAggNs/n, "us")
	set("core.modeled_host_cache_us", bd.HostCacheNs/n, "us")
	set("core.modeled_mlp_us", bd.MLPNs/n, "us")
	set("core.modeled_update_us", bd.UpdateNs/n, "us")
	set("core.modeled_network_us", bd.NetworkNs/n, "us")
	set("core.modeled_embed_share", bd.EmbedNs()/bd.TotalNs(), "ratio")
	set("core.modeled_batch_us", mod.batchUs(), "us")
	set("baseline.cpu_modeled_batch_us", mod.cpuBatchUs(), "us")
	var sum float64
	for _, s := range []string{"cpu_to_dpu", "dpu_lookup", "dpu_to_cpu", "host_agg", "host_cache", "mlp", "update", "network"} {
		sum += m["core.modeled_"+s+"_us"].Value
	}
	if total := mod.batchUs(); sum < total*(1-1e-9) || sum > total*(1+1e-9) {
		return nil, fmt.Errorf("%s: modeled stages sum to %v us, modeled_batch_us is %v", r.w.name, sum, total)
	}

	spans = append(spans, traced.spans...)
	path, err := writeTrace(r.outDir, r.w.name, r.seed, spans)
	if err != nil {
		return nil, err
	}
	res.Correct = true

	fmt.Fprintf(r.log, "%s seed=%d traced run, phases of %v + 2 x %v, spans in %s\n",
		r.w.name, r.seed, plainDur.Round(time.Millisecond), dur.Round(time.Millisecond), path)
	self := selfTimes(spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		st := self[name]
		fmt.Fprintf(r.log, "  span %-24s n=%-7d total=%12.1f us  self=%12.1f us\n", name, st.Count, st.TotalUs, st.SelfUs)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
