package core

import (
	"testing"

	"updlrm/internal/hosthw"
	"updlrm/internal/partition"
	"updlrm/internal/tensor"
	"updlrm/internal/trace"
)

func TestHeteroFunctionalMatchesBase(t *testing.T) {
	model, tr := smallWorld(t)
	base, err := New(model, tr, smallConfig(partition.MethodCacheAware))
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := NewHetero(base, hosthw.DefaultGPU(), hosthw.DefaultPCIe())
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Name() != "UpDLRM-GPU" || hetero.Base() != base {
		t.Fatalf("accessors wrong")
	}
	b := trace.MakeBatch(tr, 0, 32)
	rb, err := base.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	rb = snapshotResult(rb) // hetero runs on base's arena
	rh, err := hetero.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(rb.CTR, rh.CTR, 0) {
		t.Fatalf("hetero CTR differs from base")
	}
	// Same DPU stages; MLP swapped for GPU + PCIe.
	if rh.Breakdown.DPULookupNs != rb.Breakdown.DPULookupNs {
		t.Fatalf("DPU stage changed: %v vs %v", rh.Breakdown.DPULookupNs, rb.Breakdown.DPULookupNs)
	}
	if rh.Breakdown.PCIeNs <= 0 {
		t.Fatalf("hetero must charge PCIe")
	}
	if rh.Breakdown.MLPNs >= rb.Breakdown.MLPNs {
		t.Fatalf("GPU MLP (%v) should beat CPU MLP (%v)", rh.Breakdown.MLPNs, rb.Breakdown.MLPNs)
	}
}

func TestHeteroSmallBatchLoses(t *testing.T) {
	// At the paper's batch 64 with inference-sized MLPs, the PCIe +
	// launch overhead exceeds the MLP savings — the reason §6 defers the
	// DPU-GPU system to future work.
	model, tr := smallWorld(t)
	base, err := New(model, tr, smallConfig(partition.MethodNonUniform))
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := NewHetero(base, hosthw.DefaultGPU(), hosthw.DefaultPCIe())
	if err != nil {
		t.Fatal(err)
	}
	_, baseBD, err := base.RunTrace(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, hetBD, err := hetero.RunTrace(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hetBD.TotalNs() <= baseBD.TotalNs() {
		t.Fatalf("small-batch hetero (%v) should lose to base (%v)", hetBD.TotalNs(), baseBD.TotalNs())
	}
}

func TestHeteroValidation(t *testing.T) {
	model, tr := smallWorld(t)
	base, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHetero(nil, hosthw.DefaultGPU(), hosthw.DefaultPCIe()); err == nil {
		t.Fatalf("nil base accepted")
	}
	badGPU := hosthw.DefaultGPU()
	badGPU.FlopsPerNs = 0
	if _, err := NewHetero(base, badGPU, hosthw.DefaultPCIe()); err == nil {
		t.Fatalf("bad GPU accepted")
	}
	badPCIe := hosthw.DefaultPCIe()
	badPCIe.BWBytesPerNs = 0
	if _, err := NewHetero(base, hosthw.DefaultGPU(), badPCIe); err == nil {
		t.Fatalf("bad PCIe accepted")
	}
}

func TestPipelinedFasterThanSerial(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodNonUniform))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunTracePipelined(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 3 {
		t.Fatalf("Batches = %d", res.Batches)
	}
	if res.PipelinedNs >= res.SerialNs {
		t.Fatalf("pipelined (%v) should beat serial (%v)", res.PipelinedNs, res.SerialNs)
	}
	if res.Speedup() <= 1 {
		t.Fatalf("Speedup = %v", res.Speedup())
	}
	// Pipelining cannot beat the busiest single resource: makespan must
	// cover the total DPU time and the total link time.
	link := res.Breakdown.CPUToDPUNs + res.Breakdown.DPUToCPUNs
	if res.PipelinedNs < res.Breakdown.DPULookupNs || res.PipelinedNs < link {
		t.Fatalf("makespan %v below resource floors (dpu %v, link %v)",
			res.PipelinedNs, res.Breakdown.DPULookupNs, link)
	}
	// Functional results unchanged.
	serialCTR, _, err := eng.RunTrace(tr, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(res.CTR, serialCTR, 0) {
		t.Fatalf("pipelined CTRs differ")
	}
}

func TestPipelinedEmptyTrace(t *testing.T) {
	model, tr := smallWorld(t)
	eng, err := New(model, tr, smallConfig(partition.MethodUniform))
	if err != nil {
		t.Fatal(err)
	}
	empty := &trace.Trace{NumTables: tr.NumTables, RowsPerTable: tr.RowsPerTable, DenseDim: tr.DenseDim}
	if _, err := eng.RunTracePipelined(empty, 32); err == nil {
		t.Fatalf("empty trace accepted")
	}
}
