package serve

// The update lane: online embedding deltas flow through the same QoS
// scheduler as predictions but as a distinct control-plane stream. One
// ApplyDeltas call becomes one updateJob the scheduler broadcasts to
// every shard's FIFO channel ahead of further micro-batches; each
// worker applies it through its executor (a local engine swaps in the
// copy-on-write overlay, bumps row versions and invalidates the shared
// hot cache) and the call returns only when every replica has applied
// the deltas — after which no Predict on any shard can observe a
// pre-delta embedding.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUpdateOverloaded is returned by ApplyDeltas when the update lane's
// admission queue is full — the same shed-at-the-door policy Predict
// applies to request traffic.
var ErrUpdateOverloaded = errors.New("serve: overloaded: update queue full")

// updateQueueDepth bounds outstanding update jobs. Updates are
// control-plane traffic: a small bound keeps them from starving
// predictions while still absorbing bursts.
const updateQueueDepth = 64

// Delta is one additive row update: Vec (len == the model's EmbDim) is
// added element-wise into (Table, Row) on every shard replica.
type Delta struct {
	Table int
	Row   int32
	Vec   []float32
}

// updateJob is one ApplyDeltas call in flight: the scheduler broadcasts
// it to every shard, the last worker to finish closes done. A probe job
// (probe set, deltas empty) rides the same broadcast lane but re-runs
// the shard's static cost probes instead of applying deltas — reusing
// the lane guarantees a probe runs on each shard's own worker, never
// concurrently with its batches.
type updateJob struct {
	deltas []Delta
	probe  bool
	enq    time.Time

	mu            sync.Mutex
	remaining     int
	invalidations int64
	modeledNs     float64
	err           error
	done          chan struct{}
}

// validateDeltas checks an update against the served model shape.
func (s *Server) validateDeltas(deltas []Delta) error {
	if len(deltas) == 0 {
		return fmt.Errorf("%w: empty update", ErrBadRequest)
	}
	for i, d := range deltas {
		if d.Table < 0 || d.Table >= s.numTables {
			return fmt.Errorf("%w: delta %d table %d out of [0,%d)", ErrBadRequest, i, d.Table, s.numTables)
		}
		if d.Row < 0 || int(d.Row) >= s.rowsPerTable[d.Table] {
			return fmt.Errorf("%w: delta %d row %d out of [0,%d)", ErrBadRequest, i, d.Row, s.rowsPerTable[d.Table])
		}
		if len(d.Vec) != s.embDim {
			return fmt.Errorf("%w: delta %d vec len %d, want %d", ErrBadRequest, i, len(d.Vec), s.embDim)
		}
	}
	return nil
}

// ApplyDeltas applies the row deltas to every shard replica coherently
// and blocks until all shards have absorbed them (or ctx is done — the
// update still completes server-side; only the wait is abandoned). On
// return, no subsequent Predict on any shard observes a pre-delta
// embedding: each shard applies the update on its own worker (never
// concurrently with its batches) and stale hot-cache entries are
// invalidated by row version. A full update queue sheds with
// ErrUpdateOverloaded. Delta buffers are copied at enqueue, so the
// caller may reuse them as soon as ApplyDeltas returns.
func (s *Server) ApplyDeltas(ctx context.Context, deltas []Delta) error {
	if err := s.validateDeltas(deltas); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	job := &updateJob{
		deltas:    make([]Delta, len(deltas)),
		enq:       time.Now(),
		remaining: len(s.execs),
		done:      make(chan struct{}),
	}
	for i, d := range deltas {
		job.deltas[i] = Delta{Table: d.Table, Row: d.Row, Vec: append([]float32(nil), d.Vec...)}
	}

	// Same admission discipline as Predict: hold the read lock across a
	// non-blocking send so Close cannot close the lane under a sender.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	select {
	case s.updateCh <- job:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.stats.recordUpdateShed()
		s.obs.recordUpdateShed()
		return Overload(LaneUpdate)
	}

	select {
	case <-job.done:
		job.mu.Lock()
		err := job.err
		job.mu.Unlock()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applyProbe re-runs this shard's static cost probes (the same batch
// sizes New seeded the router with) and folds the fresh points into the
// shard's live profile — the periodic re-anchor that keeps a stale or
// drifted profile honest. The last shard to finish counts the re-probe
// and releases the prober.
func (s *Server) applyProbe(shard int, job *updateJob) {
	s.router.reseed(shard, s.probe(shard))

	job.mu.Lock()
	job.remaining--
	last := job.remaining == 0
	job.mu.Unlock()
	if last {
		s.stats.recordReprobe()
		s.obs.recordReprobe()
		close(job.done)
	}
}

// applyUpdate runs one broadcast update on this worker's executor. The
// last shard to finish records the job's stats and releases the waiting
// ApplyDeltas call.
func (s *Server) applyUpdate(shard int, job *updateJob) {
	modeled, inval, err := applyDeltas(s.execs[shard], job.deltas)
	if err != nil {
		err = fmt.Errorf("serve: shard %d update: %w", shard, err)
	}

	job.mu.Lock()
	job.invalidations += inval
	if modeled > job.modeledNs {
		job.modeledNs = modeled // shards apply in parallel; charge the slowest
	}
	if err != nil && job.err == nil {
		job.err = err
	}
	job.remaining--
	last := job.remaining == 0
	inv, mod := job.invalidations, job.modeledNs
	job.mu.Unlock()
	if last {
		wall := float64(time.Since(job.enq).Nanoseconds())
		s.stats.recordUpdate(int64(len(job.deltas)), wall, mod, inv)
		s.obs.recordUpdate(int64(len(job.deltas)), inv, wall, mod)
		close(job.done)
	}
}
