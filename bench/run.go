package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setup_s is the median of consecutive build-and-close cycles of the
// deployment — one ~50 ms build is not a measurement: at least
// minSetupCycles of them, and as many more (up to maxSetupCycles) as
// fit in a tenth of the measured length.
const (
	minSetupCycles = 5
	maxSetupCycles = 40
)

// fullLength is the measured length the benchmark runs at; shorter
// (smoke) runs scale the warm-up's work down with it.
const fullLength = 20 * time.Second

// minWindowOps is the fewest operations one window may hold before its
// percentiles stop meaning anything: 100 per second of window (200 in
// the benchmark's 2 s windows, ten beyond the 95th percentile).
func minWindowOps(measure time.Duration) int {
	return int(100 * measure.Seconds() / windows)
}

// run carries the state of one benchmark process: one workload, one
// seed, one measured length.
type run struct {
	w       *workload
	in      *inputs
	seed    uint64
	measure time.Duration
	log     io.Writer
	outDir  string // where the traced run writes its spans
}

func newRun(w *workload, seed uint64, measure time.Duration, log io.Writer) (*run, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	return &run{w: w, in: in, seed: seed, measure: measure, log: log, outDir: traceDir}, nil
}

// warm drives the deployment unmeasured so the hot cache fills, arenas
// grow, router profiles settle and the TCP pool is dialled. It is a
// phase of fixed work, not fixed time — share x the workload's warmOps
// operations per caller, about 3 s at share 1 — so that what the process
// holds afterwards (peak_rss_mb) does not depend on how fast the host
// happened to run. On a read/write workload the first half runs without
// deltas so replies can still be held against the reference.
func (r *run) warm(d *deployment, share float64) (attempted, failed int64, err error) {
	ops := max(1, int(share*float64(r.w.warmOps)*min(1, r.measure.Seconds()/fullLength.Seconds())))
	steps := []phase{{w: r.w, in: r.in, d: d, dur: fullLength, ops: ops, check: r.w.steadyCheck()}}
	if r.w.updates {
		steps[0].ops = max(1, ops/2)
		steps = append(steps, steps[0])
		steps[1].check, steps[1].updates = checkNear, true
	}
	for i := range steps {
		pr := steps[i].run()
		attempted += pr.attempted
		failed += pr.failed
		if err == nil {
			err = pr.firstErr
		}
	}
	runtime.GC()
	return attempted, failed, err
}

// measured is the phase configuration of the workload's steady state.
func (r *run) measured(d *deployment, dur time.Duration) phase {
	p := phase{w: r.w, in: r.in, d: d, dur: dur, check: r.w.steadyCheck()}
	if r.w.updates {
		p.check, p.updates = checkNear, true
	}
	return p
}

// honest fails a full-length phase whose numbers are not comparable: a
// window with too few operations, or one in which some callers never
// completed a request (in-flight below target, micro-batches no longer
// full).
func (r *run) honest(pr *phaseResult, dur time.Duration) error {
	if dur < fullLength/4 {
		return nil // a smoke run, not a measurement
	}
	if floor := minWindowOps(dur); pr.minWindowSamples < floor {
		return fmt.Errorf("%s: a window held %d operations, below the floor of %d", r.w.name, pr.minWindowSamples, floor)
	}
	if pr.minActiveClients < r.w.inflight() {
		return fmt.Errorf("%s: only %d of %d callers completed a request in some window",
			r.w.name, pr.minActiveClients, r.w.inflight())
	}
	return nil
}

// endToEnd is the untraced run: set-up cycles, the fixed-work warm-up,
// the measured phase, then the deterministic modeled replay.
func (r *run) endToEnd() (*result, error) {
	var setups []float64
	for begin := time.Now(); len(setups) < minSetupCycles ||
		(len(setups) < maxSetupCycles && time.Since(begin) < r.measure/10); {
		t0 := time.Now()
		d, err := r.w.deploy(r.in, deployOpts{})
		if err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", r.w.name, err)
		}
		d.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	d, err := r.w.deploy(r.in, deployOpts{})
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", r.w.name, err)
	}
	defer d.close()

	res := &result{Metrics: map[string]metric{}}
	var firstErr error
	res.Attempted, res.Failed, firstErr = r.warm(d, 1)
	// Taken here, after a fixed number of operations, and not after the
	// timed phase: the serving tiers keep per-request statistics for as
	// long as they live, so memory after a fixed time follows throughput.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p := r.measured(d, r.measure)
	pr := p.run()
	res.Attempted += pr.attempted
	res.Failed += pr.failed
	if firstErr == nil {
		firstErr = pr.firstErr
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%s: %d of %d operations failed, first: %w", r.w.name, res.Failed, res.Attempted, firstErr)
	}
	if err := r.honest(pr, r.measure); err != nil {
		return nil, err
	}
	d.close()

	m, err := r.w.replay(r.in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	res.Correct = true
	ops := float64(pr.attempted)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["wall_tail_ratio"] = metric{median(pr.winTail), "x"}
	res.Metrics["allocs_per_op"] = metric{float64(pr.mallocs) / ops, "count"}
	res.Metrics["alloc_kb_per_op"] = metric{float64(pr.allocBytes) / ops / 1024, "kB"}
	res.Metrics["modeled_batch_us"] = metric{m.batchUs(), "us"}
	res.Metrics["modeled_speedup_vs_cpu"] = metric{m.speedup(), "x"}

	fmt.Fprintf(r.log, "%s seed=%d measured=%v gomaxprocs=%d\n", r.w.name, r.seed, r.measure, runtime.GOMAXPROCS(0))
	fmt.Fprintf(r.log, "  host clock, median of %d windows (not gated, see README): throughput=%.1f/s p50=%.4fms p95=%.4fms\n",
		windows, median(pr.winRPS), median(pr.winP50), median(pr.winP95))
	fmt.Fprintf(r.log, "  window throughput: %.0f\n", pr.winRPS)
	fmt.Fprintf(r.log, "  generator: inflight=%d min_ops_per_window=%d gap_share=%.4f sched_wait_share=%.4f window_rel_iqr=%.4f\n",
		r.w.inflight(), pr.minWindowSamples, pr.gapShare, pr.schedWaitShare, relIQR(pr.winRPS))
	fmt.Fprintf(r.log, "  baseline.cpu_modeled_batch_us=%.3f (base of modeled_speedup_vs_cpu; model unvalidated against UPMEM hardware)\n",
		m.cpuBatchUs())
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
