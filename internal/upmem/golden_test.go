package upmem

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"updlrm/internal/testkit"
)

// The step golden: a fixed job set on a 12-DPU system — single-size and
// mixed-size read lists, multi-row (cached partial-sum) reads, an int8
// job, an idle DPU, a job with no reads, and two row partitions whose
// column-slice DPUs (2 and 4 wide) execute one read list each, given
// both as a job per slice DPU and as one job per partition — run under
// both timing engines. testdata/step.golden holds every
// KernelTiming field as float64 bits and an FNV of each DPU's partial
// sums, recorded before the one-pass kernel and the standing step pool
// existed, so a refactor of the simulator's host side shows any change
// to the modeled clock or the functional output. Regenerate with
// UPDATE_GOLDEN=1 (only when the model itself is meant to change).

const goldenDPUs = 12

// goldenValue is the MRAM content of the golden table: a deterministic
// value in [-0.05, 0.05) per (row, col).
func goldenValue(row int32, col int) float32 {
	x := uint64(row)*0x9e3779b97f4a7c15 ^ uint64(col)*0xc2b2ae3d27d4eb4f
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return float32((float64(x>>40)/(1<<24) - 0.5) * 0.1)
}

// goldenRead is one read of a golden job.
type goldenRead struct {
	sample, elems int
	rows          []int32
}

// goldenReads derives n reads over the given sample count from a seed:
// mostly single rows, every fifth read a 2-4 row group, elems fixed at
// width unless mixed.
func goldenReads(seed uint64, n, samples, width int, mixed bool) []goldenRead {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	reads := make([]goldenRead, n)
	for i := range reads {
		r := goldenRead{sample: int(next() % uint64(samples)), elems: width}
		k := 1
		if i%5 == 4 {
			k = 2 + int(next()%3)
		}
		for j := 0; j < k; j++ {
			r.rows = append(r.rows, int32(next()%5000))
		}
		if mixed && i%3 != 0 {
			r.elems = 1 + int(next()%uint64(width))
		}
		reads[i] = r
	}
	return reads
}

// goldenJob is the job of slices column-slice DPUs starting at column
// col0 (one DPU unless the job is a whole partition's): the reads' rows
// summed per column, slice sl's elems values at dst[sl*elems:].
func goldenJob(reads []goldenRead, samples, width, bpe, col0, slices int) *KernelJob {
	job := &KernelJob{NumSamples: samples, Width: width, BytesPerElem: bpe, Slices: slices,
		Fetch: func(rows []int32, dst []float32) {
			elems := len(dst) / slices
			for sl := 0; sl < slices; sl++ {
				for k := 0; k < elems; k++ {
					var v float32
					for _, r := range rows {
						v += goldenValue(r, col0+sl*width+k)
					}
					dst[sl*elems+k] = v
				}
			}
		}}
	for _, r := range reads {
		job.AddRead(r.sample, r.elems, r.rows...)
	}
	return job
}

// goldenJobs builds the job set. The two sliced partitions (DPUs 2-3
// and 8-11) are either one job per slice DPU, as the golden was
// recorded, or one job per partition with Slices set.
func goldenJobs(perPartition bool) []*KernelJob {
	jobs := make([]*KernelJob, goldenDPUs)
	partition := func(lead int, reads []goldenRead, samples, width, slices int) {
		if perPartition {
			jobs[lead] = goldenJob(reads, samples, width, 4, 0, slices)
			return
		}
		for sl := 0; sl < slices; sl++ {
			jobs[lead+sl] = goldenJob(reads, samples, width, 4, sl*width, 1)
		}
	}
	jobs[0] = goldenJob(goldenReads(1, 50, 16, 4, false), 16, 4, 4, 0, 1)
	// DPU 1 idle.
	part2 := goldenReads(2, 120, 24, 8, false)
	part2[7].elems, part2[60].elems = 3, 8 // two size changes inside a partition
	partition(2, part2, 24, 8, 2)
	jobs[4] = goldenJob(goldenReads(3, 90, 9, 16, true), 9, 16, 4, 0, 1)
	jobs[5] = goldenJob(goldenReads(4, 70, 32, 16, false), 32, 16, 1, 0, 1)
	jobs[6] = goldenJob(nil, 3, 2, 0, 0, 1)
	jobs[7] = goldenJob(goldenReads(5, 3, 2, 32, false), 2, 32, 4, 0, 1) // fewer reads than tasklets
	partition(8, goldenReads(6, 300, 64, 4, false), 64, 4, 4)
	return jobs
}

// dumpStep renders a StepResult as the golden's lines.
func dumpStep(engine TimingEngine, res *StepResult) string {
	var sb strings.Builder
	bits := math.Float64bits
	fmt.Fprintf(&sb, "%v step max=%016x stage=%016x reads=%d bytes=%d\n",
		engine, bits(res.MaxCycles), bits(res.StageNs), res.TotalReads, res.TotalBytes)
	for d, r := range res.Results {
		tm := res.Timings[d]
		samples, sum := 0, "idle"
		if r != nil {
			samples, sum = len(r.Partial), fmt.Sprintf("%016x", testkit.FNVFloats(r.Partial...))
		}
		fmt.Fprintf(&sb, "%v dpu=%d cycles=%016x pipeline=%016x dma=%016x tasklet=%016x reads=%d bytes=%d samples=%d fnv=%s\n",
			engine, d, bits(tm.Cycles), bits(tm.PipelineCycles), bits(tm.DMACycles), bits(tm.TaskletCycles),
			tm.Reads, tm.BytesRead, samples, sum)
	}
	return sb.String()
}

func TestStepGolden(t *testing.T) {
	var got strings.Builder
	for _, engine := range []TimingEngine{ClosedForm, EventDriven} {
		sys, err := NewSystem(DefaultConfig(), goldenDPUs, engine)
		if err != nil {
			t.Fatal(err)
		}
		var res StepResult
		var first string
		// Every pass after the first runs on the recycled StepResult, and
		// the two forms of the sliced partitions must be indistinguishable
		// per DPU.
		for pass := 0; pass < 4; pass++ {
			if err := sys.RunStepInto(goldenJobs(pass%2 == 1), &res); err != nil {
				t.Fatal(err)
			}
			dump := dumpStep(engine, &res)
			if pass == 0 {
				first = dump
			} else if dump != first {
				t.Fatalf("%v: pass %d on the recycled StepResult differs from the first:\n%s\nfirst:\n%s", engine, pass, dump, first)
			}
		}
		got.WriteString(first)
	}
	testkit.Golden(t, "testdata/step.golden", got.String())
}
