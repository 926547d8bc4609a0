package upmem

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"updlrm/internal/workpool"
)

// System is a set of DPUs driven together, the granularity at which the
// host launches kernels (all DPUs storing EMT tiles run the lookup kernel
// of a batch concurrently, per Figure 4).
//
// DPUs are independent, so a step's kernels are simulated side by side
// on a standing pool of host workers — min(GOMAXPROCS, numDPUs) at
// construction, the caller's goroutine included — which is released
// when the System becomes unreachable. A System runs one step at a time.
type System struct {
	numDPUs int
	// run holds the configuration and the state of the step in flight,
	// shared with the pool's workers (which hold it, never the System).
	run  *stepRun
	pool *workpool.Pool[stepJob]
}

// stepJob is one step's work as handed to a pool worker, by value.
type stepJob struct {
	jobs []*KernelJob
	res  *StepResult
}

// stepRun coordinates the workers of one step. Kernels are handed out in
// DPU order through next, so when a kernel fails every lower-numbered
// one has already been claimed and will finish: the lowest failing
// position is the same whatever the scheduling.
type stepRun struct {
	cfg    HWConfig
	engine TimingEngine
	// next is the next unclaimed position in the step's active list.
	next atomic.Int64
	// failed is the lowest position whose kernel failed so far
	// (math.MaxInt64 while none has); positions above it are not started.
	failed atomic.Int64
	// errs[w] is the failure worker w stopped on, at position errAt[w].
	errs  []error
	errAt []int64
}

// NewSystem validates the configuration and returns a simulator for
// numDPUs DPUs using the given timing engine.
func NewSystem(cfg HWConfig, numDPUs int, engine TimingEngine) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numDPUs <= 0 {
		return nil, fmt.Errorf("upmem: numDPUs = %d", numDPUs)
	}
	if engine != ClosedForm && engine != EventDriven {
		return nil, fmt.Errorf("upmem: unknown timing engine %d", engine)
	}
	workers := min(runtime.GOMAXPROCS(0), numDPUs)
	run := &stepRun{cfg: cfg, engine: engine, errs: make([]error, workers), errAt: make([]int64, workers)}
	return &System{numDPUs: numDPUs, run: run,
		pool: workpool.New(workers, run.work)}, nil
}

// Config returns the hardware configuration.
func (s *System) Config() HWConfig { return s.run.cfg }

// NumDPUs returns the DPU count.
func (s *System) NumDPUs() int { return s.numDPUs }

// Engine returns the timing engine in use.
func (s *System) Engine() TimingEngine { return s.run.engine }

// StepResult is the outcome of one kernel launch across the DPU set.
// A StepResult is reusable: RunStepInto reshapes it in place, recycling
// every kernel's accumulators, so steady-state stepping allocates
// nothing.
type StepResult struct {
	// Results[d] is DPU d's functional output (nil when it was idle).
	Results []*KernelResult
	// Timings[d] is DPU d's kernel timing (zero when idle).
	Timings []KernelTiming
	// MaxCycles is the slowest DPU's kernel time; the batch waits for it.
	MaxCycles float64
	// StageNs is launch overhead + MaxCycles in wall time — the "DPU
	// lookup" stage-2 latency of Figure 4.
	StageNs float64
	// TotalReads and TotalBytes aggregate MRAM traffic over all DPUs.
	TotalReads int
	TotalBytes int64

	// kernels[d] is the reusable output of the job jobs[d], owning its
	// accumulators; views[d] is what Results[d] points at, DPU d's slice
	// of the kernel output that covers it; active lists the DPU indices
	// carrying a job this step.
	kernels []KernelResult
	views   []KernelResult
	active  []int
}

// RunStep executes one kernel per DPU (nil jobs leave a DPU idle) and
// returns functional results and timing. Hot paths reuse a StepResult
// via RunStepInto instead.
func (s *System) RunStep(jobs []*KernelJob) (*StepResult, error) {
	res := &StepResult{}
	if err := s.RunStepInto(jobs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunStepInto executes one kernel per job into a reusable StepResult.
// jobs has one entry per DPU: nil leaves the DPU idle, and a job with
// Slices = S at index d runs on DPUs d..d+S-1, whose own entries must be
// nil. Functional execution is parallelized over host cores; modeled
// time is max over DPUs because the hardware runs them concurrently.
// res's previous contents are overwritten; accumulator storage is
// recycled across calls. When several kernels are invalid the error is
// the lowest-numbered DPU's; res is then unusable until the next step.
func (s *System) RunStepInto(jobs []*KernelJob, res *StepResult) error {
	if len(jobs) != s.numDPUs {
		return fmt.Errorf("upmem: %d jobs for %d DPUs", len(jobs), s.numDPUs)
	}
	if cap(res.kernels) < s.numDPUs {
		res.kernels = make([]KernelResult, s.numDPUs)
		res.views = make([]KernelResult, s.numDPUs)
		res.Results = make([]*KernelResult, s.numDPUs)
		res.Timings = make([]KernelTiming, s.numDPUs)
	}
	res.kernels = res.kernels[:s.numDPUs]
	res.views = res.views[:s.numDPUs]
	res.Results = res.Results[:s.numDPUs]
	res.Timings = res.Timings[:s.numDPUs]
	clear(res.Results)
	clear(res.Timings)
	res.MaxCycles, res.StageNs = 0, 0
	res.TotalReads, res.TotalBytes = 0, 0
	res.active = res.active[:0]
	for d := 0; d < len(jobs); {
		if jobs[d] == nil {
			d++
			continue
		}
		res.active = append(res.active, d)
		end := d + jobs[d].slices()
		if end > s.numDPUs {
			return fmt.Errorf("upmem: DPU %d: %d slices run past the last DPU %d", d, end-d, s.numDPUs-1)
		}
		for k := d + 1; k < end; k++ {
			if jobs[k] != nil {
				return fmt.Errorf("upmem: DPU %d carries a job but is a column slice of DPU %d's", k, d)
			}
		}
		d = end
	}
	if len(res.active) == 0 {
		return nil
	}

	run := s.run
	run.next.Store(0)
	run.failed.Store(math.MaxInt64)
	clear(run.errs)
	workers := min(runtime.GOMAXPROCS(0), len(res.active), s.pool.Workers())
	step := stepJob{jobs: jobs, res: res}
	for w := 1; w < workers; w++ {
		s.pool.Send(w, step)
	}
	run.work(0, step)
	s.pool.Wait(workers - 1)
	if at := run.failed.Load(); at != math.MaxInt64 {
		for w, err := range run.errs {
			if err != nil && run.errAt[w] == at {
				return err
			}
		}
	}

	for _, t := range res.Timings {
		if t.Cycles > res.MaxCycles {
			res.MaxCycles = t.Cycles
		}
		res.TotalReads += t.Reads
		res.TotalBytes += t.BytesRead
	}
	res.StageNs = run.cfg.KernelLaunchNs + run.cfg.CyclesToNs(res.MaxCycles)
	return nil
}

// work is one worker's share of a step: claim the next job in DPU order,
// run it, publish its result to every DPU it covers; stop at the end of
// the list, on a failure, or past a failure someone else hit.
func (r *stepRun) work(w int, step stepJob) {
	res := step.res
	for {
		at := r.next.Add(1) - 1
		if at >= int64(len(res.active)) || at > r.failed.Load() {
			return
		}
		d := res.active[at]
		job := step.jobs[d]
		kr := &res.kernels[d]
		t, err := RunKernelInto(r.cfg, job, r.engine, kr)
		if err != nil {
			r.errs[w], r.errAt[w] = fmt.Errorf("upmem: DPU %d: %w", d, err), at
			for {
				low := r.failed.Load()
				if at >= low || r.failed.CompareAndSwap(low, at) {
					return
				}
			}
		}
		for sl, span := 0, job.slices(); sl < span; sl++ {
			view := &res.views[d+sl]
			view.Partial, view.slices = kr.SlicePartial(sl), 1
			res.Results[d+sl] = view
			res.Timings[d+sl] = t
		}
	}
}

// FootprintBytes returns the recycled accumulator and fetch scratch
// capacity in bytes — the StepResult's contribution to an engine's
// arena footprint.
func (s *StepResult) FootprintBytes() int64 {
	var n int64
	for i := range s.kernels {
		n += int64(cap(s.kernels[i].backing))*4 + int64(cap(s.kernels[i].buf))*4
	}
	return n
}

// ReleaseStorage drops every recycled buffer so the next RunStepInto
// reshapes from scratch at the then-current batch size — the
// arena-trim hook. Results handed out from previous steps keep
// aliasing the old storage.
func (s *StepResult) ReleaseStorage() { *s = StepResult{} }
