package upmem

import "fmt"

// Read is one MRAM access a lookup kernel performs: fetch Elems float32
// values derived from a span of row ids and accumulate them into the
// partial sum of sample Sample. A single-row span is a plain EMT read; a
// multi-row span models a cached partial-sum read (one MRAM access that
// returns the precomputed sum of those rows, per §3.3).
//
// Reads are flat structs referencing the job's own Rows pool so that
// paper-scale batches (hundreds of thousands of reads) do not allocate
// per-read closures.
type Read struct {
	// Sample is the batch-local sample whose partial sum receives the
	// fetched vector.
	Sample int32
	// Elems is the number of float32 values this access returns (N_c for
	// both EMT reads and cached partial-sum reads).
	Elems int32
	// RowsOff and RowsLen locate this read's row span in KernelJob.Rows.
	RowsOff, RowsLen int32
}

// KernelJob describes one lookup kernel for one batch: the read list of
// one row partition, executed by every DPU that holds a column slice of
// that partition's tile. The common case is one DPU (Slices 0 or 1).
type KernelJob struct {
	// NumSamples is the batch size; the kernel maintains one partial-sum
	// accumulator of width Width per sample in WRAM.
	NumSamples int
	// Width is the accumulator width in float32 elements (N_c).
	Width int
	// Reads is the access list, in issue order.
	Reads []Read
	// Rows is the job's row-id pool: each read references a span of it.
	Rows []int32
	// Slices is the number of column-slice DPUs that execute this read
	// list, each on its own Width columns (§3.1: a lookup fans out to
	// every slice of the row's partition). Hardware runs them side by
	// side on identical access lists, so their timings are identical and
	// the simulator runs the list once for all of them: Fetch then
	// delivers Slices*Elems values per read and the result carries one
	// block of partial sums per slice (KernelResult.SlicePartial).
	// NumSamples, Width, Elems and every timing term stay per DPU. Zero
	// means 1.
	Slices int
	// BytesPerElem is the MRAM storage per element: 4 for fp32 EMTs
	// (the paper's configuration), 1 for int8-quantized tables (the
	// EVStore-style mixed-precision extension). Zero means 4.
	BytesPerElem int
	// Fetch materializes the values of one read: it must write the
	// (sum of the) given rows' values into dst — len Elems, or with
	// Slices > 1 slice sl's Elems values at dst[sl*Elems:], which for a
	// full-width read (Elems == Width) is simply the partition's row in
	// column order. It stands in for the DPUs' MRAM content — dense
	// storage, procedural generator, or a cache region. Distinct jobs'
	// Fetch functions run concurrently.
	Fetch func(rows []int32, dst []float32)
}

// Validate checks the job against the hardware limits of cfg, in
// particular that per-sample accumulators fit WRAM and that every read is
// a legal MRAM transfer. Running a job validates it as it goes; Validate
// is for callers that want the verdict without the run.
func (j *KernelJob) Validate(cfg HWConfig) error {
	if err := j.validateShape(cfg); err != nil {
		return err
	}
	for i := range j.Reads {
		r := &j.Reads[i]
		if err := j.checkRead(i, r); err != nil {
			return err
		}
		if _, err := cfg.MRAMReadLatency(AlignMRAM(int(r.Elems) * j.bytesPerElem())); err != nil {
			return fmt.Errorf("upmem: read %d: %w", i, err)
		}
	}
	return nil
}

// validateShape checks everything about the job but its reads.
func (j *KernelJob) validateShape(cfg HWConfig) error {
	if j.NumSamples < 0 {
		return fmt.Errorf("upmem: NumSamples = %d", j.NumSamples)
	}
	if j.Width <= 0 {
		return fmt.Errorf("upmem: kernel width = %d", j.Width)
	}
	if j.Slices < 0 {
		return fmt.Errorf("upmem: Slices = %d", j.Slices)
	}
	if len(j.Reads) > 0 && j.Fetch == nil {
		return fmt.Errorf("upmem: job with %d reads has no Fetch", len(j.Reads))
	}
	if j.BytesPerElem < 0 || j.BytesPerElem > 8 {
		return fmt.Errorf("upmem: BytesPerElem = %d", j.BytesPerElem)
	}
	// Accumulators + per-tasklet staging buffers must fit in WRAM.
	accBytes := int64(j.NumSamples) * int64(j.Width) * 4
	stageBytes := int64(cfg.Tasklets) * int64(AlignMRAM(j.Width*4))
	if accBytes+stageBytes > cfg.WRAMBytes {
		return fmt.Errorf("upmem: WRAM overflow: %d B accumulators + %d B staging > %d B",
			accBytes, stageBytes, cfg.WRAMBytes)
	}
	return nil
}

// checkRead bounds read i's sample, element count and row span — what
// must hold before the read is executed. The legality of its transfer
// size is the caller's to check (once per distinct size).
func (j *KernelJob) checkRead(i int, r *Read) error {
	if r.Sample < 0 || int(r.Sample) >= j.NumSamples {
		return fmt.Errorf("upmem: read %d sample %d out of [0,%d)", i, r.Sample, j.NumSamples)
	}
	if r.Elems <= 0 || int(r.Elems) > j.Width {
		return fmt.Errorf("upmem: read %d elems %d out of (0,%d]", i, r.Elems, j.Width)
	}
	if r.RowsOff < 0 || r.RowsLen <= 0 || int(r.RowsOff)+int(r.RowsLen) > len(j.Rows) {
		return fmt.Errorf("upmem: read %d row span [%d,%d) out of pool %d",
			i, r.RowsOff, r.RowsOff+r.RowsLen, len(j.Rows))
	}
	return nil
}

// bytesPerElem returns the effective element width.
func (j *KernelJob) bytesPerElem() int {
	if j.BytesPerElem == 0 {
		return 4
	}
	return j.BytesPerElem
}

// slices returns the effective slice count.
func (j *KernelJob) slices() int {
	if j.Slices <= 0 {
		return 1
	}
	return j.Slices
}

// Reset clears the job's access list for a new batch, keeping the Reads
// and Rows capacity so steady-state job building allocates nothing.
func (j *KernelJob) Reset() {
	j.Reads = j.Reads[:0]
	j.Rows = j.Rows[:0]
}

// AddRead appends a read covering the given rows for the given sample.
func (j *KernelJob) AddRead(sample int, elems int, rows ...int32) {
	off := int32(len(j.Rows))
	j.Rows = append(j.Rows, rows...)
	j.Reads = append(j.Reads, Read{
		Sample:  int32(sample),
		Elems:   int32(elems),
		RowsOff: off,
		RowsLen: int32(len(rows)),
	})
}

// KernelResult holds the functional output of a kernel: per-sample
// partial sums of width Width for each column-slice DPU of the job. A
// KernelResult is reusable: RunKernelInto reshapes it in place,
// recycling the backing array and fetch scratch, so steady-state kernel
// execution allocates nothing.
type KernelResult struct {
	// Partial[s] is sample s's partial sum (len Width), a view into one
	// shared backing array. A job with Slices > 1 yields one such block
	// of NumSamples views per slice, back to back; use SlicePartial.
	Partial [][]float32

	// backing is the contiguous accumulator storage the Partial views
	// alias, NumSamples rows of Slices*Width (a sample's slices side by
	// side, in column order); buf is the per-read fetch scratch; slices
	// is the slice count of the job last run.
	backing []float32
	buf     []float32
	slices  int
}

// SlicePartial returns the partial sums of column slice sl of the job
// last run: one len-Width view per sample.
func (r *KernelResult) SlicePartial(sl int) [][]float32 {
	n := len(r.Partial) / r.slices
	return r.Partial[sl*n : (sl+1)*n : (sl+1)*n]
}

// reset shapes the result for samples x width accumulators per slice,
// zeroing them and reusing storage whenever capacity allows.
func (r *KernelResult) reset(samples, width, slices int) {
	r.slices = slices
	row := width * slices
	n := samples * row
	if cap(r.backing) < n {
		r.backing = make([]float32, n)
	} else {
		r.backing = r.backing[:n]
		clear(r.backing)
	}
	if views := samples * slices; cap(r.Partial) < views {
		r.Partial = make([][]float32, views)
	} else {
		r.Partial = r.Partial[:views]
	}
	for sl := 0; sl < slices; sl++ {
		for s := 0; s < samples; s++ {
			lo := s*row + sl*width
			r.Partial[sl*samples+s] = r.backing[lo : lo+width : lo+width]
		}
	}
	if cap(r.buf) < row {
		r.buf = make([]float32, row)
	}
}

// KernelTiming reports where a kernel's cycles went.
type KernelTiming struct {
	// Cycles is the modeled kernel execution time on the DPU.
	Cycles float64
	// PipelineCycles, DMACycles, TaskletCycles are the three bottleneck
	// candidates (closed-form engine) or observed resource busy times
	// (event engine); Cycles >= max of the first two.
	PipelineCycles float64
	DMACycles      float64
	TaskletCycles  float64
	// Reads is the number of MRAM accesses issued.
	Reads int
	// BytesRead is the total MRAM traffic in bytes (aligned).
	BytesRead int64
}

// TimingEngine selects how kernel time is modeled.
type TimingEngine int

const (
	// ClosedForm computes kernel time as the max of the three resource
	// bounds (pipeline issue, DMA engine occupancy, per-tasklet serial
	// latency). Fast: three additions per read, folded into the pass
	// that executes the reads; the per-size terms are derived once per
	// run of equal-sized reads.
	ClosedForm TimingEngine = iota
	// EventDriven simulates tasklets contending for the issue pipeline
	// and the DMA engine read by read. Slower, more faithful to
	// transient imbalance; used to validate ClosedForm.
	EventDriven
)

// String names the engine.
func (e TimingEngine) String() string {
	switch e {
	case ClosedForm:
		return "closed-form"
	case EventDriven:
		return "event-driven"
	default:
		return fmt.Sprintf("TimingEngine(%d)", int(e))
	}
}

// RunKernel executes the job functionally and models its execution time
// with the chosen engine. The functional result is independent of the
// engine. It allocates a fresh result; hot paths reuse one via
// RunKernelInto.
func RunKernel(cfg HWConfig, job *KernelJob, engine TimingEngine) (*KernelResult, KernelTiming, error) {
	res := &KernelResult{}
	timing, err := RunKernelInto(cfg, job, engine, res)
	if err != nil {
		return nil, KernelTiming{}, err
	}
	return res, timing, nil
}

// RunKernelInto executes the job into a reusable result: res is reshaped
// in place (its backing array and scratch recycled), so repeated calls
// with a stable job shape allocate nothing under ClosedForm. On error
// res holds a partial run and must not be read.
//
// One pass over Reads validates each read, executes it (fetch, then
// accumulate into the sample's partial sum) and adds its terms to the
// closed-form bounds. The kernel is bound by whichever of three
// resources saturates first —
//
//   - the single-issue pipeline: all tasklets together retire at most one
//     instruction per cycle;
//   - the DMA engine: MRAM transfers from all tasklets serialize;
//   - per-tasklet serial latency: each tasklet alternates blocking DMA
//     latency and compute, so with T tasklets a read's full latency is
//     amortized T-fold (the pipelining effect that flattens Figure 11 at
//     high reduction degrees).
//
// The bounds are float64 running sums in read order, one addition of
// the read's term each, so the result does not depend on how reads of
// equal size are grouped.
func RunKernelInto(cfg HWConfig, job *KernelJob, engine TimingEngine, res *KernelResult) (KernelTiming, error) {
	if engine != ClosedForm && engine != EventDriven {
		return KernelTiming{}, fmt.Errorf("upmem: unknown timing engine %d", engine)
	}
	if err := job.validateShape(cfg); err != nil {
		return KernelTiming{}, err
	}
	width, slices, bpe := job.Width, job.slices(), job.bytesPerElem()
	row := width * slices
	res.reset(job.NumSamples, width, slices)

	// Aggregate issue rate: each tasklet issues at most once per
	// pipeline revolution, so fewer than PipelineDepthCycles tasklets
	// cannot reach 1 IPC.
	issueSlowdown := float64(cfg.PipelineDepthCycles) / float64(cfg.Tasklets)
	if issueSlowdown < 1 {
		issueSlowdown = 1
	}
	depth := float64(cfg.PipelineDepthCycles)
	var pipeline, dma, perTasklet float64
	var bytes int64
	// The terms of a read depend only on its size; engine-built jobs have
	// one size throughout. The explicit conversions round each term before
	// it is added, on every architecture (no fused multiply-add).
	var elems int32
	var sz int64
	var pipeTerm, dmaTerm, taskletTerm float64
	for i := range job.Reads {
		r := &job.Reads[i]
		if err := job.checkRead(i, r); err != nil {
			return KernelTiming{}, err
		}
		if r.Elems != elems {
			aligned := AlignMRAM(int(r.Elems) * bpe)
			lat, err := cfg.MRAMReadLatency(aligned)
			if err != nil {
				return KernelTiming{}, fmt.Errorf("upmem: read %d: %w", i, err)
			}
			instr := cfg.lookupInstr(int(r.Elems))
			elems, sz = r.Elems, int64(aligned)
			pipeTerm = float64(instr * issueSlowdown)
			dmaTerm = cfg.dmaEngineOccupancy(aligned)
			taskletTerm = lat + float64(instr*depth)
		}
		bytes += sz
		pipeline += pipeTerm
		dma += dmaTerm
		perTasklet += taskletTerm

		n := int(elems)
		vals := res.buf[:n*slices]
		job.Fetch(job.Rows[r.RowsOff:r.RowsOff+r.RowsLen], vals)
		acc := res.backing[int(r.Sample)*row : (int(r.Sample)+1)*row]
		for sl := 0; sl < slices; sl++ {
			v := vals[sl*n : (sl+1)*n]
			a := acc[sl*width:][:len(v)]
			for k := range v {
				a[k] += v[k]
			}
		}
	}
	if engine == EventDriven {
		return eventTiming(cfg, job), nil
	}

	tasklet := perTasklet / float64(cfg.Tasklets)
	cycles := maxFloat(pipeline, dma, tasklet)
	// Pipeline fill/drain ramp: the first read of each wave serializes
	// through the whole pipeline before steady-state overlap applies; one
	// average read's serial time corrects small kernels (and vanishes
	// relative to large ones).
	if n := len(job.Reads); n > 0 {
		cycles += perTasklet / float64(n)
	}
	return KernelTiming{
		Cycles:         cycles,
		PipelineCycles: pipeline,
		DMACycles:      dma,
		TaskletCycles:  tasklet,
		Reads:          len(job.Reads),
		BytesRead:      bytes,
	}, nil
}

// FootprintBytes returns the job's recycled buffer capacity in bytes
// (the Reads access list at 16 bytes per entry plus the row pool) — its
// contribution to an engine's arena footprint.
func (j *KernelJob) FootprintBytes() int64 {
	return int64(cap(j.Reads))*16 + int64(cap(j.Rows))*4
}

// ReleaseStorage drops the recycled Reads/Rows capacity so the next
// batch reallocates at its then-current size — the arena-trim hook.
func (j *KernelJob) ReleaseStorage() {
	j.Reads = nil
	j.Rows = nil
}
