// Online embedding updates (the write path). Production recommenders
// trickle trained row deltas into serving tables; on UPMEM that write is
// a first-class cost: the host pushes deltas to the row's slice DPUs and
// each DPU read-modify-writes its aligned N_c-wide tile row in MRAM.
// ApplyDeltas executes the update functionally (through a per-engine
// copy-on-write overlay — model tables are shared across replicas and
// stay immutable), charges that cost through the upmem model as
// Breakdown.UpdateNs, bumps per-row versions, and invalidates the
// hot-row cache so no later lookup serves a pre-delta vector.
//
// Concurrency contract: like RunBatch, ApplyDeltas is engine-serial —
// the serving tier's update lane runs it on each shard's worker
// goroutine, never concurrently with that shard's batches.
package core

import (
	"fmt"

	"updlrm/internal/emt"
	"updlrm/internal/grace"
	"updlrm/internal/metrics"
	"updlrm/internal/upmem"
)

// UpdateResult is one ApplyDeltas call's outcome.
type UpdateResult struct {
	// Rows is the number of row deltas applied (duplicates count each).
	Rows int
	// Invalidations counts hot-cache entries evicted as stale.
	Invalidations int64
	// MRAMBytesWritten is the modeled MRAM write traffic: the aligned
	// tile-row writes on every slice DPU plus cached subset-sum
	// refreshes for GRACE groups touched by the deltas.
	MRAMBytesWritten int64
	// Breakdown carries the modeled wall time in UpdateNs (delta push +
	// RMW kernel); all read-path terms are zero.
	Breakdown metrics.Breakdown
}

// updateScratch is ApplyDeltas' working storage, recycled from call to
// call (the method is engine-serial, like the batch arena).
type updateScratch struct {
	writesPerPart       []int
	refreshBytesPerPart []int64
	pushSizes           []int64
	touchedGroups       map[int32]bool
}

// zeroed returns s resized to n zero elements, reallocating only when
// its capacity falls short.
func zeroed[T int | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// EmbDim returns the embedding dimension the engine serves.
func (e *Engine) EmbDim() int { return e.model.Cfg.EmbDim }

// RowVersion returns the number of deltas applied to (table, row) on
// this engine — 0 for never-written rows.
func (e *Engine) RowVersion(table int, row int32) uint64 {
	if table < 0 || table >= len(e.tables) {
		return 0
	}
	if mt := e.mutables[table]; mt != nil {
		return mt.Version(int(row))
	}
	return 0
}

// ApplyDeltas adds len(rows) deltas (flattened [len(rows) x EmbDim])
// into table's rows, bumping each row's version and invalidating stale
// hot-cache entries. The first write to a table swaps a copy-on-write
// overlay into the engine's MRAM view, so the shared base table is
// never mutated and read-only engines are untouched.
func (e *Engine) ApplyDeltas(table int, rows []int32, deltas []float32) (UpdateResult, error) {
	var res UpdateResult
	if table < 0 || table >= len(e.tables) {
		return res, fmt.Errorf("core: update table %d out of [0,%d)", table, len(e.tables))
	}
	if len(rows) == 0 {
		return res, fmt.Errorf("core: update with no rows")
	}
	dim := e.model.Cfg.EmbDim
	if len(deltas) != len(rows)*dim {
		return res, fmt.Errorf("core: %d deltas != %d rows x dim %d", len(deltas), len(rows), dim)
	}
	tableRows := e.model.Cfg.RowsPerTable[table]
	for _, r := range rows {
		if r < 0 || int(r) >= tableRows {
			return res, fmt.Errorf("core: update row %d out of [0,%d)", r, tableRows)
		}
	}

	mt := e.mutables[table]
	if mt == nil {
		mt = emt.NewOverlay(e.tables[table])
		e.mutables[table] = mt
		e.tables[table] = mt // fetchers re-read e.tables per call
	}

	plan := e.plans[table]
	shape := plan.Shape
	assign := e.assign[table]
	up := &e.up
	up.writesPerPart = zeroed(up.writesPerPart, shape.Parts)
	up.refreshBytesPerPart = zeroed(up.refreshBytesPerPart, shape.Parts)
	up.pushSizes = zeroed(up.pushSizes, shape.DPUs())
	if up.touchedGroups == nil {
		up.touchedGroups = make(map[int32]bool)
	}
	clear(up.touchedGroups)
	writesPerPart, refreshBytesPerPart := up.writesPerPart, up.refreshBytesPerPart
	pushSizes, touchedGroups := up.pushSizes, up.touchedGroups
	cache := e.cfg.HotCache
	for i, r := range rows {
		ver := mt.ApplyDelta(int(r), deltas[i*dim:(i+1)*dim])
		if cache.Invalidate(table, r, ver) {
			res.Invalidations++
		}
		part := plan.RowPart[r]
		writesPerPart[part]++
		// A delta to a member of a cached GRACE group stales the
		// group's resident subset sums: charge one refresh (recompute +
		// rewrite) per touched group per call.
		if assign != nil {
			if g := assign.GroupOf(r); g >= 0 && assign.Cached[g] && !touchedGroups[g] {
				touchedGroups[g] = true
				refreshBytesPerPart[part] += grace.StorageBytes(len(plan.Lists[g].Items), shape.Nc)
			}
		}
	}
	res.Rows = len(rows)

	// Stage 1: push each row's 4 B descriptor plus its N_c-wide delta
	// slice to every slice DPU of the row's partition (padded parallel
	// transfer across the table's DPU group, as the read path does).
	hw := e.cfg.HW
	for part := 0; part < shape.Parts; part++ {
		bytes := int64(writesPerPart[part]) * int64(4+shape.Nc*4)
		for sl := 0; sl < shape.Slices; sl++ {
			pushSizes[shape.DPUAt(part, sl)] = bytes
		}
	}
	push := hw.TransferTime(pushSizes, true, upmem.Push)

	// Stage 2: each slice DPU read-modify-writes its aligned tile row
	// per delta, plus any cached subset-sum refresh. The kernel is
	// bounded by the busiest partition (all its slice DPUs do the same
	// work on different columns).
	wBytes := upmem.AlignMRAM(shape.Nc * e.bytesPerElem)
	lat, err := hw.MRAMWriteLatency(wBytes)
	if err != nil {
		return res, err
	}
	instr := float64(hw.LookupOverheadInstr + hw.AccInstrPerElem*shape.Nc)
	occ := hw.DMAEngineCycles + hw.DMAPerByteCycles*float64(wBytes)
	var maxCycles float64
	for part := 0; part < shape.Parts; part++ {
		w := float64(writesPerPart[part])
		if w == 0 && refreshBytesPerPart[part] == 0 {
			continue
		}
		pipeline := w * instr
		dma := w * 2 * occ
		tasklet := w * (2*lat + instr) / float64(hw.Tasklets)
		cycles := pipeline
		if dma > cycles {
			cycles = dma
		}
		if tasklet > cycles {
			cycles = tasklet
		}
		cycles += hw.MRAMRMWCycles(refreshBytesPerPart[part])
		if cycles > maxCycles {
			maxCycles = cycles
		}
		res.MRAMBytesWritten += int64(writesPerPart[part]) * int64(wBytes) * int64(shape.Slices)
		res.MRAMBytesWritten += refreshBytesPerPart[part] * int64(shape.Slices)
	}
	res.Breakdown.UpdateNs = push.Ns + hw.KernelLaunchNs + hw.CyclesToNs(maxCycles)
	e.obs.observeUpdate(&res)
	return res, nil
}
