package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"updlrm/internal/trace"
)

// TestPipelinedWorkersMatchSerial runs the same request stream through
// a pipelined server and a serial one (same model, profile, and engine
// config) and requires identical predictions: cross-batch overlap
// reorders modeled time, never arithmetic. The pipelined server must
// also report a modeled speedup >= 1 and internally consistent stats.
func TestPipelinedWorkersMatchSerial(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	ctx := context.Background()
	n := 64

	// Reference CTRs from a bare engine.
	ref, err := NewShards(model, profile, repeat(ecfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref[0].RunBatch(trace.MakeBatch(profile, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	wantCTR := append([]float32(nil), want.CTR...)

	run := func(pipeline bool) ([]float32, Stats) {
		engines, err := NewShards(model, profile, repeat(ecfg, 2))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(engines, Config{MaxBatch: 8, Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ctrs := make([]float32, n)
		for i := 0; i < n; i++ {
			s := profile.Samples[i]
			resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				t.Fatal(err)
			}
			ctrs[i] = resp.CTR
			if resp.ModeledNs() != resp.QueueNs+resp.Breakdown.TotalNs() {
				t.Fatalf("request %d: ModeledNs must stay queue + batch total in both modes", i)
			}
			if pipeline {
				if resp.PipelinedNs <= 0 {
					t.Fatalf("request %d: pipelined residency not reported", i)
				}
			} else if resp.PipelinedNs != 0 {
				t.Fatalf("request %d: serial worker reported PipelinedNs %v", i, resp.PipelinedNs)
			}
		}
		return ctrs, srv.Stats()
	}

	serialCTR, serialStats := run(false)
	pipeCTR, pipeStats := run(true)

	for i := range wantCTR {
		if serialCTR[i] != wantCTR[i] {
			t.Fatalf("serial worker CTR[%d] %v != engine %v", i, serialCTR[i], wantCTR[i])
		}
		if pipeCTR[i] != wantCTR[i] {
			t.Fatalf("pipelined worker CTR[%d] %v != engine %v", i, pipeCTR[i], wantCTR[i])
		}
	}
	if serialStats.PipelineSerialNs != 0 || serialStats.PipelinePipelinedNs != 0 || serialStats.PipelineSpeedup != 0 {
		t.Fatalf("serial server reported pipeline stats: %+v", serialStats)
	}
	if pipeStats.Requests != int64(n) {
		t.Fatalf("pipelined server served %d, want %d", pipeStats.Requests, n)
	}
	if pipeStats.PipelineSerialNs <= 0 || pipeStats.PipelinePipelinedNs <= 0 {
		t.Fatalf("pipelined totals not recorded: %+v", pipeStats)
	}
	if pipeStats.PipelineSpeedup < 1 {
		t.Fatalf("pipeline speedup %v < 1", pipeStats.PipelineSpeedup)
	}
	if pipeStats.PipelinePipelinedNs > pipeStats.PipelineSerialNs {
		t.Fatalf("overlap slower than serial rule: %v > %v",
			pipeStats.PipelinePipelinedNs, pipeStats.PipelineSerialNs)
	}
}

// TestPipelinedWorkersConcurrent hammers a pipelined server from many
// goroutines (meaningful under -race: the pipeline schedule is
// worker-local state) and checks predictions against the reference
// engine plus stats invariants.
func TestPipelinedWorkersConcurrent(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	engines, err := NewShards(model, profile, repeat(ecfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(engines, Config{
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
		Pipeline:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ref, err := NewShards(model, profile, repeat(ecfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := len(profile.Samples)
	want, err := ref[0].RunBatch(trace.MakeBatch(profile, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	wantCTR := append([]float32(nil), want.CTR...)

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.CTR != wantCTR[i] {
				t.Errorf("sample %d: pipelined CTR %v != reference %v", i, resp.CTR, wantCTR[i])
			}
			if resp.PipelinedNs <= 0 || resp.PipelinedNs > resp.Breakdown.TotalNs()*float64(n) {
				t.Errorf("sample %d: implausible pipelined residency %v", i, resp.PipelinedNs)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Requests != int64(n) {
		t.Fatalf("served %d, want %d", st.Requests, n)
	}
	if st.PipelineSpeedup < 1 {
		t.Fatalf("pipeline speedup %v < 1", st.PipelineSpeedup)
	}
}
