package upmem

import (
	"strings"
	"testing"

	"updlrm/internal/testkit"
)

// TestStepAllocatesNothing: a steady-state step on a recycled StepResult
// performs no heap allocation — serial or fanned out over the standing
// pool, per-DPU jobs and per-partition jobs alike.
func TestStepAllocatesNothing(t *testing.T) {
	testkit.AtProcs([]int{1, 2, 4}, func(procs int) {
		sys, err := NewSystem(DefaultConfig(), goldenDPUs, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		for _, perPartition := range []bool{false, true} {
			jobs := goldenJobs(perPartition)
			var res StepResult
			step := func() {
				if err := sys.RunStepInto(jobs, &res); err != nil {
					t.Fatal(err)
				}
			}
			if n := testkit.AllocsPerRun(100, step); n != 0 {
				t.Errorf("GOMAXPROCS %d, per-partition jobs %v: %v allocations per step", procs, perPartition, n)
			}
		}
	})
}

// TestStepErrorIsLowestDPU: with two invalid jobs in a step the error is
// the lower-numbered DPU's however the workers interleave — here the
// higher one fails at once and the lower one only at its last read —
// and the System and StepResult serve the next step as if nothing
// happened.
func TestStepErrorIsLowestDPU(t *testing.T) {
	testkit.AtProcs([]int{4}, func(int) {
		sys, err := NewSystem(DefaultConfig(), goldenDPUs, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSystem(DefaultConfig(), goldenDPUs, ClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		var want StepResult
		if err := fresh.RunStepInto(goldenJobs(true), &want); err != nil {
			t.Fatal(err)
		}
		var res StepResult
		for i := 0; i < 100; i++ {
			jobs := goldenJobs(i%2 == 0)
			late := jobs[4]
			late.Reads[len(late.Reads)-1].Sample = int32(late.NumSamples) // DPU 4 fails on its last read
			jobs[7].Reads[0].Elems = 0                                    // DPU 7 on its first
			err := sys.RunStepInto(jobs, &res)
			if err == nil {
				t.Fatalf("repeat %d: step with two invalid jobs accepted", i)
			}
			if !strings.Contains(err.Error(), "DPU 4:") || !strings.Contains(err.Error(), "sample") {
				t.Fatalf("repeat %d: error %q, want DPU 4's out-of-range sample", i, err)
			}
			if err := sys.RunStepInto(goldenJobs(i%2 == 1), &res); err != nil {
				t.Fatalf("repeat %d: step after a failed one: %v", i, err)
			}
			if got, want := dumpStep(ClosedForm, &res), dumpStep(ClosedForm, &want); got != want {
				t.Fatalf("repeat %d: step after a failed one differs from a fresh system's:\n%s\nwant:\n%s", i, got, want)
			}
		}
	})
}

// TestStepRejectsOverlappingSlices: a job's slice DPUs are its own.
func TestStepRejectsOverlappingSlices(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), 4, ClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	wide := func(slices int) *KernelJob { return goldenJob(goldenReads(9, 5, 2, 4, false), 2, 4, 4, 0, slices) }
	if _, err := sys.RunStep([]*KernelJob{nil, nil, wide(3), nil}); err == nil {
		t.Error("a job whose slices run past the last DPU was accepted")
	}
	if _, err := sys.RunStep([]*KernelJob{wide(2), wide(1), nil, nil}); err == nil {
		t.Error("a job on another job's slice DPU was accepted")
	}
	if _, err := sys.RunStep([]*KernelJob{wide(-1), nil, nil, nil}); err == nil {
		t.Error("a job with a negative slice count was accepted")
	}
	res, err := sys.RunStep([]*KernelJob{wide(2), nil, wide(2), nil})
	if err != nil {
		t.Fatal(err)
	}
	for d, r := range res.Results {
		if r == nil || len(r.Partial) != 2 || len(r.Partial[0]) != 4 {
			t.Fatalf("DPU %d: result %+v, want 2 samples of width 4", d, r)
		}
	}
	if res.TotalReads != 4*5 {
		t.Fatalf("TotalReads = %d, want every slice DPU's 5 reads counted", res.TotalReads)
	}
}
