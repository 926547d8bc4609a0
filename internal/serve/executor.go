package serve

import (
	"fmt"

	"updlrm/internal/core"
	"updlrm/internal/metrics"
	"updlrm/internal/trace"
)

// Executor is what the scheduler dispatches to: one shard slot's way of
// running a micro-batch and absorbing an update. Admission, class
// queues, DRR, batching windows, the update lane, statistics and
// tracing all live above this interface, so they exist once for every
// deployment shape. There are two implementations: a local engine
// replica (EngineExecutor) and the cluster's fan-out/gather
// (internal/cluster). Each executor is driven by exactly one worker
// goroutine, so implementations need no internal locking against
// themselves.
type Executor interface {
	// RunBatch runs one micro-batch and returns one CTR per sample
	// (valid until the executor's next call), the batch's modeled
	// breakdown and its modeled DPU memory traffic.
	RunBatch(b *trace.Batch) (ctr []float32, bd metrics.Breakdown, mramBytes int64, err error)
	// ApplyDeltas applies already-validated row deltas and returns their
	// modeled cost and the hot-cache invalidations they triggered. The
	// update lane calls it on every executor, in the same order, ahead
	// of any later micro-batch.
	ApplyDeltas(deltas []Delta) (modeledNs float64, invalidations int64, err error)
}

// Shape is the model shape requests and deltas are validated against.
type Shape struct {
	RowsPerTable []int
	DenseDim     int
	EmbDim       int
}

// EngineExecutor returns the local executor: micro-batches run on the
// engine replica, deltas apply to it table by table.
func EngineExecutor(eng *core.Engine) Executor { return &engineExec{eng: eng} }

type engineExec struct {
	eng *core.Engine
	// rows and flat gather one table's deltas per ApplyDeltas call,
	// recycled (one worker goroutine drives an executor).
	rows []int32
	flat []float32
}

func (e *engineExec) RunBatch(b *trace.Batch) ([]float32, metrics.Breakdown, int64, error) {
	res, err := e.eng.RunBatch(b)
	if err != nil {
		return nil, metrics.Breakdown{}, 0, err
	}
	return res.CTR, res.Breakdown, res.MRAMBytesRead, nil
}

func (e *engineExec) ApplyDeltas(deltas []Delta) (modeledNs float64, invalidations int64, err error) {
	for t := 0; t < e.eng.NumTables(); t++ {
		e.rows, e.flat = e.rows[:0], e.flat[:0]
		for _, d := range deltas {
			if d.Table == t {
				e.rows = append(e.rows, d.Row)
				e.flat = append(e.flat, d.Vec...)
			}
		}
		if len(e.rows) == 0 {
			continue
		}
		res, aerr := e.eng.ApplyDeltas(t, e.rows, e.flat)
		if aerr != nil {
			if err == nil {
				err = aerr
			}
			continue
		}
		invalidations += res.Invalidations
		modeledNs += res.Breakdown.UpdateNs
	}
	return modeledNs, invalidations, err
}

// runBatch and applyDeltas call the executor with a panic turned into
// an error, so one bad micro-batch fails its own callers and the shard
// keeps serving.
func runBatch(ex Executor, b *trace.Batch) (ctr []float32, bd metrics.Breakdown, mram int64, err error) {
	defer panicToError(&err)
	return ex.RunBatch(b)
}

func applyDeltas(ex Executor, deltas []Delta) (modeledNs float64, inval int64, err error) {
	defer panicToError(&err)
	return ex.ApplyDeltas(deltas)
}

func panicToError(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("executor panic: %v", r)
	}
}
