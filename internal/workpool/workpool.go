// Package workpool is the standing worker pool the simulator's host
// side fans out on: dlrm.HostPool shards GEMM row-blocks over one,
// upmem.System shards a kernel step's DPUs over another. Workers are
// persistent goroutines fed by value over per-worker channels, so
// handing out work allocates nothing; the caller's goroutine is always
// worker 0 and the pool only holds the others.
package workpool

import "runtime"

// Pool is workers-1 persistent goroutines, each running run(w, job) for
// every job sent to it. A Pool serves one fan-out at a time: Send to any
// subset of workers, do worker 0's share on the calling goroutine, then
// Wait for as many completions as were sent.
//
// The goroutines are released when the Pool becomes unreachable (a GC
// cleanup closes their channels), so owners need no Close — but run
// must not reference the Pool or anything that holds it, or neither is
// ever collected. Whatever run captures stays alive until then.
type Pool[J any] struct {
	// jobs[i] feeds worker i+1; done collects their completions.
	jobs []chan J
	done chan struct{}
}

// New starts a pool of the given width (minimum 1, which starts no
// goroutine at all).
func New[J any](workers int, run func(worker int, job J)) *Pool[J] {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[J]{done: make(chan struct{}, workers)}
	for w := 1; w < workers; w++ {
		ch := make(chan J)
		p.jobs = append(p.jobs, ch)
		go serve(w, ch, p.done, run)
	}
	if len(p.jobs) > 0 {
		runtime.AddCleanup(p, func(chans []chan J) {
			for _, ch := range chans {
				close(ch)
			}
		}, p.jobs)
	}
	return p
}

// serve runs jobs until the channel closes.
func serve[J any](w int, jobs <-chan J, done chan<- struct{}, run func(int, J)) {
	for j := range jobs {
		run(w, j)
		done <- struct{}{}
	}
}

// Workers returns the pool width, the caller's goroutine included.
func (p *Pool[J]) Workers() int { return len(p.jobs) + 1 }

// Send hands job to worker w, 1 <= w < Workers(). It blocks while that
// worker is still busy with a previous job.
func (p *Pool[J]) Send(w int, job J) { p.jobs[w-1] <- job }

// Wait blocks until n sent jobs have completed.
func (p *Pool[J]) Wait(n int) {
	for ; n > 0; n-- {
		<-p.done
	}
}
