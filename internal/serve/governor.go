package serve

// Pressure-governor wiring: the serving tier's graceful-degradation
// ladder over internal/governor's policy-free watermark machinery. The
// governor tracks the server's recyclable memory consumers — hot-cache
// occupancy, each shard's scratch arena, the queued request estimate —
// against Config.Governor.BudgetBytes and climbs the ladder as pressure
// crosses each watermark:
//
//	High watermark    → shrink the hot cache below the overage and
//	                    freeze arena growth at the current footprint
//	                    (resource remediation; nothing is shed).
//	Critical watermark→ shed Batch-class admission at the door.
//	Full budget (1.0) → shed Normal-class admission too.
//
// Critical is never governor-shed: the ladder exists so the most
// deferrable work pays for pressure before the least deferrable work
// feels it. Recovery releases in reverse order (Normal re-admits, then
// Batch, then the cache re-grows to its configured capacity and arena
// caps lift) with the governor's hysteresis preventing flapping.
//
// The observation tick also carries the adaptive per-table cache
// budgets: every rebalanceEveryTicks observations the per-table hit
// deltas since the last rebalance become capacity weights, steering the
// shared cache's entry budget toward the tables actually producing
// hits.

import (
	"strconv"
	"time"

	"updlrm/internal/governor"
)

// pendingOverheadBytes estimates one queued request's fixed footprint
// beyond its payload: the pending header, its done channel, and the
// copied slice headers.
const pendingOverheadBytes = 160

// rebalanceEveryTicks is how many governor observations pass between
// adaptive per-table cache-budget rebalances. At the default 100ms
// interval a rebalance considers ~5s of hit history — long enough to
// see a real skew, short enough to follow a shifting hot set.
const rebalanceEveryTicks = 50

// queueBytes estimates the resident footprint of every queued request:
// the per-request payload (dense features plus a nominal sparse-index
// share per table) times the class queues' current depths. An estimate
// — the true multi-hot widths vary per request — but it moves with the
// queues, which is what the governor needs.
func (s *Server) queueBytes() int64 {
	per := int64(4*s.denseDim + 16*s.numTables + pendingOverheadBytes)
	n := 0
	for c := range s.classCh {
		n += len(s.classCh[c])
	}
	return int64(n) * per
}

// initGovernor builds the governor over the server's consumers and
// registers the degradation ladder. Called from New before the
// instrument set is resolved; the governor is started only after
// construction completes.
func (s *Server) initGovernor(cfg governor.Config) error {
	g, err := governor.New(cfg)
	if err != nil {
		return err
	}
	highFrac := cfg.HighFrac
	if highFrac <= 0 {
		highFrac = governor.DefaultHighFrac
	}
	criticalFrac := cfg.CriticalFrac
	if criticalFrac <= 0 {
		criticalFrac = governor.DefaultCriticalFrac
	}
	if criticalFrac < highFrac {
		criticalFrac = highFrac
	}
	s.gov = g
	s.govHighFrac = highFrac

	if s.cache != nil {
		s.origCacheCap = s.cache.CapacityBytes()
		g.Track("hotcache", s.cache.SizeBytes)
	}
	for i, eng := range s.engines {
		g.Track("arena"+strconv.Itoa(i), eng.ArenaBytes)
	}
	g.Track("queues", s.queueBytes)

	g.AddStep("shrink-cache", highFrac, s.applyShrink, s.releaseShrink)
	g.AddStep("shed-batch", criticalFrac,
		func(float64) { s.setShed(Batch, true) },
		func() { s.setShed(Batch, false) })
	g.AddStep("shed-normal", 1.0,
		func(float64) { s.setShed(Normal, true) },
		func() { s.setShed(Normal, false) })
	g.OnTick(s.governorTick)
	return nil
}

// applyShrink is the High-watermark remediation, re-applied on every
// observation while pressure holds: evict the watermark overage from
// the hot cache (down to a floor of 1/8 the configured capacity, so a
// shrunk cache still serves its hottest rows) and freeze each shard's
// scratch-arena growth at its current footprint. Freezing trades
// occasional scratch re-allocation on an oversized batch for bounded
// bytes — the governor's bargain under pressure.
func (s *Server) applyShrink(pressure float64) {
	if s.cache != nil && s.origCacheCap > 0 {
		over := int64((pressure - s.govHighFrac) * float64(s.gov.BudgetBytes()))
		target := s.cache.CapacityBytes() - over
		floor := s.origCacheCap / 8
		if floor < 1 {
			floor = 1
		}
		if target < floor {
			target = floor
		}
		if target < s.cache.CapacityBytes() {
			s.cache.Resize(target)
		}
	}
	for _, eng := range s.engines {
		capBytes := eng.ArenaBytes()
		if capBytes < 1 {
			capBytes = 1
		}
		eng.SetArenaCap(capBytes)
	}
}

// releaseShrink undoes the High-watermark remediation once pressure
// drains: the cache re-grows to its configured capacity (entries refill
// from live traffic — the oscillation this could cause is bounded by
// the refill time plus the governor's hysteresis) and arena caps lift.
func (s *Server) releaseShrink() {
	if s.cache != nil && s.origCacheCap > 0 && s.cache.CapacityBytes() < s.origCacheCap {
		s.cache.Resize(s.origCacheCap)
	}
	for _, eng := range s.engines {
		eng.SetArenaCap(0)
	}
}

// setShed flips one class's admission-gate bit.
func (s *Server) setShed(c Class, on bool) {
	bit := uint32(1) << c
	for {
		old := s.shedMask.Load()
		next := old | bit
		if !on {
			next = old &^ bit
		}
		if next == old || s.shedMask.CompareAndSwap(old, next) {
			return
		}
	}
}

// governorTick piggybacks on every observation: it feeds the
// monotonic-counter metrics their diffs (band transitions, cache
// resizes) and, every rebalanceEveryTicks observations, redistributes
// the hot cache's per-table capacity by the hit deltas observed since
// the last rebalance. Invoked only from the governor's serialized
// observation path.
func (s *Server) governorTick(snap governor.Snapshot) {
	if d := snap.Transitions - s.lastTransitions; d > 0 {
		s.lastTransitions = snap.Transitions
		s.obs.recordGovTransitions(d)
	}
	if s.cache != nil {
		if r := s.cache.Resizes(); r > s.lastResizes {
			s.obs.recordCacheResizes(r - s.lastResizes)
			s.lastResizes = r
		}
	}
	s.tickCount++
	if s.tickCount%rebalanceEveryTicks == 0 {
		s.adaptiveRebalance()
	}
}

// adaptiveRebalance steers the table-partitioned hot cache's capacity
// toward the tables producing hits: each table's weight is its hit
// delta since the last rebalance plus one (the +1 keeps a cooled-off
// table from starving to the one-row floor before its traffic
// returns). Skipped for hash-sharded caches and when no table hit
// since the last pass.
func (s *Server) adaptiveRebalance() {
	if s.cache == nil {
		return
	}
	pt := s.cache.PerTable()
	if pt == nil {
		return
	}
	if s.lastTableHits == nil {
		s.lastTableHits = make([]int64, len(pt))
	}
	weights := make([]float64, len(pt))
	var total int64
	for i, st := range pt {
		d := st.Hits - s.lastTableHits[i]
		if d < 0 {
			d = 0
		}
		weights[i] = float64(d) + 1
		total += d
		s.lastTableHits[i] = st.Hits
	}
	if total == 0 {
		return
	}
	s.cache.Rebalance(weights)
}

// prober is the background shard re-probe loop: on every
// ReprobeInterval tick it broadcasts one probe job through the update
// lane (each shard's worker re-runs the static cost probes on its own
// engine, so a probe never races the shard's batches) and waits for
// all shards to fold the fresh points into the router before the next
// tick. A full update lane skips the cycle — coherence traffic wins.
func (s *Server) prober() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReprobeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.reprobeStop:
			return
		case <-t.C:
		}
		job := &updateJob{
			probe:     true,
			enq:       time.Now(),
			remaining: len(s.execs),
			done:      make(chan struct{}),
		}
		// Same send discipline as ApplyDeltas: the read lock keeps Close
		// from closing the lane under the send.
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return
		}
		select {
		case s.updateCh <- job:
			s.mu.RUnlock()
		default:
			s.mu.RUnlock()
			continue
		}
		select {
		case <-job.done:
		case <-s.reprobeStop:
			return
		}
	}
}
