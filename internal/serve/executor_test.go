package serve

import (
	"context"
	"strings"
	"testing"

	"updlrm/internal/metrics"
	"updlrm/internal/obs"
	"updlrm/internal/trace"
)

// faultyExec is a fake executor that panics on chosen calls and
// otherwise answers with a fixed modeled cost.
type faultyExec struct {
	runs, updates      int
	panicRun, panicUpd int // 1-based call numbers that panic
}

func (e *faultyExec) RunBatch(b *trace.Batch) ([]float32, metrics.Breakdown, int64, error) {
	e.runs++
	if e.runs == e.panicRun {
		panic("injected batch fault")
	}
	return make([]float32, b.Size), metrics.Breakdown{MLPNs: 1000}, 0, nil
}

func (e *faultyExec) ApplyDeltas([]Delta) (float64, int64, error) {
	e.updates++
	if e.updates == e.panicUpd {
		panic("injected update fault")
	}
	return 10, 0, nil
}

// TestExecutorPanicFailsOneBatch: a panic inside the executor fails
// exactly the micro-batch (or update) that hit it — its callers get an
// error, it is counted, its router charge is released — and the shard
// serves the next call.
func TestExecutorPanicFailsOneBatch(t *testing.T) {
	reg := obs.NewRegistry()
	// The fault is the second batch: the first teaches the router a
	// non-zero cost, so the faulted batch carries a real backlog charge.
	exec := &faultyExec{panicRun: 2, panicUpd: 1}
	shape := Shape{RowsPerTable: []int{8}, DenseDim: 1, EmbDim: 2}
	srv, err := NewWithExecutors([]Executor{exec}, shape, Config{MaxBatch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	ctx := context.Background()
	req := Request{Dense: []float32{0.5}, Sparse: [][]int32{{3}}}
	if _, err := srv.Predict(ctx, req); err != nil {
		t.Fatalf("batch before the fault: %v", err)
	}
	if _, err := srv.Predict(ctx, req); err == nil || !strings.Contains(err.Error(), "injected batch fault") {
		t.Fatalf("faulted batch error = %v, want the wrapped panic", err)
	}
	if _, err := srv.Predict(ctx, req); err != nil {
		t.Fatalf("batch after the fault: %v", err)
	}

	delta := []Delta{{Table: 0, Row: 1, Vec: []float32{1, 2}}}
	if err := srv.ApplyDeltas(ctx, delta); err == nil || !strings.Contains(err.Error(), "injected update fault") {
		t.Fatalf("faulted update error = %v, want the wrapped panic", err)
	}
	if err := srv.ApplyDeltas(ctx, delta); err != nil {
		t.Fatalf("update after the fault: %v", err)
	}

	st := srv.Stats()
	if st.Requests != 2 || st.Errors != 1 {
		t.Fatalf("Requests/Errors = %d/%d, want 2/1", st.Requests, st.Errors)
	}
	if got := reg.Snapshot().Get("serve_errors_total"); got != 1 {
		t.Fatalf("serve_errors_total = %v, want 1", got)
	}
	if b := st.Shards[0].BacklogNs; b != 0 {
		t.Fatalf("router backlog %v after the pipeline drained; the faulted batch's charge leaked", b)
	}
}
