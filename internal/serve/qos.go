package serve

import (
	"fmt"
	"sync"
	"time"

	"updlrm/internal/metrics"
)

// Class is a request's QoS class. Production recommendation tiers mix
// latency-critical ranking traffic with interactive and best-effort
// prefetch/backfill streams; the serving runtime schedules the three
// classes with weighted deficit round robin so Critical keeps bounded
// queueing delay under Batch pressure while Batch is never starved.
type Class uint8

const (
	// Normal is the default class: untagged requests (the zero value)
	// behave exactly like the pre-QoS FIFO server when no other class
	// carries traffic.
	Normal Class = iota
	// Critical is latency-sensitive traffic (user-facing ranking): it is
	// served first within every scheduler round and its micro-batches
	// close opportunistically by default instead of waiting out a
	// batching window.
	Critical
	// Batch is best-effort traffic (prefetch, backfill, shadow scoring):
	// it yields to the other classes but the deficit scheduler
	// guarantees it at least its weight's share of every round.
	Batch
	// NumClasses is the number of QoS classes.
	NumClasses = 3
)

// String returns the class's lowercase label.
func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Normal:
		return "normal"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// classOrder is the strict service order within one scheduler round:
// higher-priority classes spend their deficit first.
var classOrder = [NumClasses]Class{Critical, Normal, Batch}

// rank returns a class's position in classOrder (0 = highest priority).
func (c Class) rank() int {
	for i, o := range classOrder {
		if o == c {
			return i
		}
	}
	return NumClasses
}

// defaultWeights are the per-round deficit quanta (in requests): of
// every 21 scheduled requests under full pressure, 16 are Critical,
// 4 Normal, 1 Batch.
var defaultWeights = [NumClasses]int{Critical: 16, Normal: 4, Batch: 1}

// classParams is one class's normalized scheduling configuration.
type classParams struct {
	// weight is the DRR quantum: requests credited per round.
	weight float64
	// maxBatch caps the class's micro-batch size.
	maxBatch int
	// window is how long a forming micro-batch waits for followers.
	window time.Duration
	// depth is the class's admission queue capacity.
	depth int
	// sloNs is the class's latency target (0 = none): requests carry a
	// deadline of enqueue + sloNs, micro-batches order EDF within the
	// class, and admission sheds lower classes early when this class's
	// predicted wait exceeds the target.
	sloNs int64
}

// classParams normalizes the per-class knobs against the server-wide
// defaults (see Config.Classes).
func (c Config) classParams(cl Class) classParams {
	o := c.Classes[cl]
	p := classParams{
		weight:   float64(defaultWeights[cl]),
		maxBatch: c.MaxBatch,
		depth:    c.QueueDepth,
	}
	if o.Weight > 0 {
		p.weight = float64(o.Weight)
	}
	if o.MaxBatch > 0 {
		p.maxBatch = o.MaxBatch
	}
	if o.QueueDepth > 0 {
		p.depth = o.QueueDepth
	}
	if o.SLOTargetNs > 0 {
		p.sloNs = o.SLOTargetNs
	}
	// Window default: Critical closes opportunistically (latency first),
	// the other classes inherit the server-wide window (coalescing
	// first). A negative override forces opportunistic closing.
	switch {
	case o.BatchWindow > 0:
		p.window = o.BatchWindow
	case o.BatchWindow < 0 || cl == Critical:
		p.window = 0
	default:
		p.window = c.BatchWindow
	}
	return p
}

// microBatch is one same-class group of requests bound for one shard —
// or, when update is set, one shard's share of a broadcast update job
// (pend empty, predNs zero).
type microBatch struct {
	class Class
	pend  []*pending
	// update, when non-nil, marks this as an update-lane broadcast the
	// worker applies instead of running a batch.
	update *updateJob
	// predNs is the routing-time predicted cost charged against the
	// shard's backlog; the worker releases exactly this amount on
	// completion.
	predNs float64
}

// mbPool recycles microBatch headers (and their pend backing arrays)
// between the scheduler, which fills one per dispatch, and the
// workers, which release it after fan-out — two allocations per
// micro-batch the serve hot path no longer pays.
var mbPool = sync.Pool{New: func() any { return new(microBatch) }}

// putMicroBatch clears the batch's request references (so pooled
// headers never retain served requests) and returns it to the pool.
func putMicroBatch(mb *microBatch) {
	for i := range mb.pend {
		mb.pend[i] = nil
	}
	mb.pend = mb.pend[:0]
	mb.update = nil
	mbPool.Put(mb)
}

// earlierDeadline orders two pending requests earliest-deadline-first;
// requests without a deadline (zero) sort after every deadlined one and
// keep FIFO order among themselves.
func earlierDeadline(a, b *pending) bool {
	if a.deadline.IsZero() {
		return false
	}
	if b.deadline.IsZero() {
		return true
	}
	return a.deadline.Before(b.deadline)
}

// edfOrder sorts a class's staging slice earliest-deadline-first (in
// place, stable — equal deadlines keep arrival order). Insertion sort:
// staging is bounded by the class's maxBatch and the slice is already
// mostly ordered round to round, so this is cheaper than the stdlib
// sort's interface boxing on the dispatch hot path.
func edfOrder(ps []*pending) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && earlierDeadline(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// scheduler replaces the FIFO batcher: it drains the three class queues
// with weighted deficit round robin, coalesces same-class micro-batches
// (per-class window and size cap), and routes each batch to the
// cheapest shard. Anti-starvation is structural: every round visits
// every backlogged class in classOrder and grants it its weight in
// request credits, so under sustained pressure from any class the
// others still receive their proportional share, and a class's worst
// wait is one round of bounded total work. Batches larger than the
// remaining deficit run whole (batch integrity beats quantum
// precision); the overdraft is carried as debt the class repays over
// the following rounds, preserving the long-run weighted shares.
func (s *Server) scheduler() {
	defer s.wg.Done()
	defer func() {
		for i := range s.shardCh {
			close(s.shardCh[i])
		}
	}()

	var (
		staged  [NumClasses][]*pending
		deficit [NumClasses]float64
		open    = [NumClasses]bool{}
		// The update lane: staged jobs are broadcast to every shard at
		// the top of the loop, ahead of further micro-batches.
		updates []*updateJob
		updOpen = true
	)
	for c := range open {
		open[c] = true
	}
	uChFor := func() chan *updateJob {
		if !updOpen {
			return nil
		}
		return s.updateCh
	}
	handleUpd := func(j *updateJob, ok bool) {
		if !ok {
			updOpen = false
			return
		}
		updates = append(updates, j)
	}
	// dispatchUpdates broadcasts every staged update job to all shard
	// channels in order. The per-shard FIFO guarantees each replica
	// applies updates in the same sequence, so row versions agree
	// across shards and cache invalidation stamps are consistent.
	dispatchUpdates := func() {
		for _, j := range updates {
			for shard := range s.shardCh {
				mb := mbPool.Get().(*microBatch)
				mb.update = j
				mb.predNs = 0
				s.shardCh[shard] <- mb
			}
		}
		updates = updates[:0]
	}

	// stageCap bounds class c's staging area. Depth-only servers stage
	// exactly one micro-batch (bounding staged work keeps admission
	// control honest: requests only leave the bounded queue when the
	// scheduler can actually dispatch them). With SLO targets the
	// staging doubles: the earliest-deadline-first cut needs a window
	// wider than one batch to have anything to select from — a bounded
	// loosening of the admission accounting, one extra batch per class.
	stageCap := func(c Class) int {
		n := s.class[c].maxBatch
		if s.hasSLO {
			n *= 2
		}
		return n
	}
	// chFor returns class c's queue for receiving, or nil when the class
	// is closed or its staging area is full.
	chFor := func(c Class) chan *pending {
		if !open[c] || len(staged[c]) >= stageCap(c) {
			return nil
		}
		return s.classCh[c]
	}
	handle := func(c Class, p *pending, ok bool) {
		if !ok {
			open[c] = false
			return
		}
		staged[c] = append(staged[c], p)
	}
	// recvOne performs one (blocking or not) receive across the class
	// queues; it returns false when nothing was received.
	recvOne := func(block bool) bool {
		c0, c1, c2 := chFor(classOrder[0]), chFor(classOrder[1]), chFor(classOrder[2])
		u := uChFor()
		if block {
			if c0 == nil && c1 == nil && c2 == nil && u == nil {
				return false
			}
			select {
			case p, ok := <-c0:
				handle(classOrder[0], p, ok)
			case p, ok := <-c1:
				handle(classOrder[1], p, ok)
			case p, ok := <-c2:
				handle(classOrder[2], p, ok)
			case j, ok := <-u:
				handleUpd(j, ok)
			}
			return true
		}
		select {
		case p, ok := <-c0:
			handle(classOrder[0], p, ok)
		case p, ok := <-c1:
			handle(classOrder[1], p, ok)
		case p, ok := <-c2:
			handle(classOrder[2], p, ok)
		case j, ok := <-u:
			handleUpd(j, ok)
		default:
			return false
		}
		return true
	}
	// drainClass tops up class c's staging from its own queue without
	// blocking.
	drainClass := func(c Class) {
		for len(staged[c]) < stageCap(c) && open[c] {
			select {
			case p, ok := <-s.classCh[c]:
				handle(c, p, ok)
			default:
				return
			}
		}
	}
	// higherPending reports whether any class of strictly higher
	// priority than c has work staged or queued — lower-class batching
	// windows must not hold while such work waits.
	higherPending := func(c Class) bool {
		for _, h := range classOrder {
			if h == c {
				return false
			}
			if len(staged[h]) > 0 || len(s.classCh[h]) > 0 {
				return true
			}
		}
		return false
	}
	// waitFollowers holds class c's forming micro-batch open for up to
	// its window, collecting followers. Arrivals of other classes are
	// staged as they come; a strictly higher-priority arrival — or
	// higher-priority work already staged or queued when the window
	// would open — closes the window early so Batch coalescing never
	// delays Critical dispatch.
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	waitFollowers := func(c Class) {
		w := s.class[c].window
		if w <= 0 || !open[c] || higherPending(c) {
			return
		}
		timer.Reset(w)
		for len(staged[c]) < s.class[c].maxBatch {
			c0, c1, c2 := chFor(classOrder[0]), chFor(classOrder[1]), chFor(classOrder[2])
			stop := false
			select {
			case p, ok := <-c0:
				handle(classOrder[0], p, ok)
				stop = ok && classOrder[0].rank() < c.rank()
			case p, ok := <-c1:
				handle(classOrder[1], p, ok)
				stop = ok && classOrder[1].rank() < c.rank()
			case p, ok := <-c2:
				handle(classOrder[2], p, ok)
				stop = ok && classOrder[2].rank() < c.rank()
			case j, ok := <-uChFor():
				// An update arrival closes the window: coherence work
				// must not wait out a batching window.
				handleUpd(j, ok)
				stop = ok
			case <-timer.C:
				return
			}
			if stop || !open[c] || higherPending(c) {
				break
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	allClosed := func() bool {
		if updOpen {
			return false
		}
		for _, o := range open {
			if !o {
				continue
			}
			return false
		}
		return true
	}
	totalStaged := func() int {
		n := 0
		for c := range staged {
			n += len(staged[c])
		}
		return n
	}

	for {
		// Flush the update lane first: broadcasts reach every shard's
		// FIFO ahead of the round's micro-batches, so a caller blocked
		// in ApplyDeltas is released as soon as all shards drain to it.
		if len(updates) > 0 {
			dispatchUpdates()
		}
		// Idle: block until work arrives or every queue has closed.
		if totalStaged() == 0 {
			if !recvOne(false) {
				if allClosed() {
					return
				}
				if !recvOne(true) {
					// Only closed channels remained.
					if allClosed() && totalStaged() == 0 && len(updates) == 0 {
						return
					}
				}
			}
			for recvOne(false) {
			}
			if len(updates) > 0 {
				continue
			}
		}

		// Publish the round's predicted per-class admission waits so
		// Predict's SLO check reads a fresh estimate (skipped entirely on
		// an un-instrumented depth-only server — the pre-SLO hot path is
		// unchanged).
		if s.hasSLO || s.obs != nil {
			s.publishWait(&staged)
		}

		// One DRR round: visit every class in priority order, credit its
		// quantum, and dispatch micro-batches while credit (or carried
		// debt headroom) allows.
		for _, c := range classOrder {
			drainClass(c)
			if len(staged[c]) == 0 {
				// No backlog: an idle class accumulates no credit.
				if deficit[c] > 0 {
					deficit[c] = 0
				}
				continue
			}
			deficit[c] += s.class[c].weight
			if deficit[c] > s.class[c].weight {
				deficit[c] = s.class[c].weight
			}
			for deficit[c] >= 1 {
				drainClass(c)
				if len(staged[c]) < s.class[c].maxBatch {
					waitFollowers(c)
				}
				// With SLO targets configured, order the class's window
				// earliest-deadline-first before cutting the micro-batch:
				// the requests closest to missing their target ride the
				// next dispatch. Without targets the staging stays FIFO
				// and dispatch is byte-identical to the depth-only server.
				if s.hasSLO && len(staged[c]) > 1 {
					edfOrder(staged[c])
				}
				n := len(staged[c])
				if n == 0 {
					break
				}
				if n > s.class[c].maxBatch {
					n = s.class[c].maxBatch
				}
				mb := mbPool.Get().(*microBatch)
				mb.class = c
				mb.pend = append(mb.pend[:0], staged[c][:n]...)
				mb.predNs = 0
				staged[c] = append(staged[c][:0], staged[c][n:]...)
				deficit[c] -= float64(n)
				s.route(mb)
			}
		}
	}
}

// predWaitFreshnessNs bounds how old a published predicted-wait
// estimate may be before Predict's SLO check ignores it: an idle
// scheduler publishes nothing, and admission must never shed on a
// forecast from a load pattern that has since drained.
const predWaitFreshnessNs = int64(250 * time.Millisecond)

// publishWait recomputes each class's predicted admission wait — the
// cheapest shard's outstanding backlog plus the queued-ahead work of
// every class at or above it, spread across the shard fleet — and
// publishes it for Predict's SLO check (one atomic load per admission).
// Called only from the scheduler goroutine, once per DRR round.
func (s *Server) publishWait(staged *[NumClasses][]*pending) {
	backlogNs, perReqNs := s.router.waitBasis()
	shards := float64(len(s.execs))
	ahead := 0.0
	for _, c := range classOrder {
		ahead += float64(len(staged[c]) + len(s.classCh[c]))
		w := backlogNs + ahead*perReqNs/shards
		s.predWait[c].Store(int64(w))
		s.obs.observePredWait(c, w)
	}
	s.predWaitStamp.Store(time.Now().UnixNano())
}

// route scores the micro-batch against every shard's cost profile
// (predicted service cost for this batch size plus the shard's
// outstanding backlog) and dispatches it to the cheapest shard with
// queue space — trying shards in score order keeps the tier
// work-conserving when the predicted-cheapest worker is momentarily
// full. Only when every shard's queue is full does the scheduler block,
// on the cheapest one; the chosen shard's backlog is charged with the
// prediction until its worker completes the batch.
func (s *Server) route(mb *microBatch) {
	n := len(mb.pend)
	// Once a send succeeds the worker owns mb and may recycle it
	// through the pool, so anything needed afterwards (the test hook's
	// class) must be read before the send.
	class := mb.class
	order := s.router.rank(n)
	for _, shard := range order {
		mb.predNs = s.router.charge(shard, n)
		select {
		case s.shardCh[shard] <- mb:
			s.obs.recordDispatch(class, shard, n)
			if h := s.testHookRoute; h != nil {
				h(class, n, shard)
			}
			return
		default:
			s.router.complete(shard, mb.predNs, metrics.Breakdown{}, 0)
		}
	}
	best := order[0]
	mb.predNs = s.router.charge(best, n)
	s.obs.recordDispatch(class, best, n)
	if h := s.testHookRoute; h != nil {
		h(class, n, best)
	}
	s.shardCh[best] <- mb
}
