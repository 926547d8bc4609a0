package workpool

import (
	"runtime"
	"sync/atomic"
	"testing"

	"updlrm/internal/testkit"
)

// TestPoolRunsEverySentJob: each worker gets its own job, by value, and
// Wait returns only after all of them ran.
func TestPoolRunsEverySentJob(t *testing.T) {
	const workers = 5
	var sum atomic.Int64
	var seen [workers]atomic.Int64
	p := New(workers, func(w int, j int64) {
		seen[w].Add(1)
		sum.Add(j)
	})
	if p.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
	}
	for round := int64(1); round <= 100; round++ {
		for w := 1; w < workers; w++ {
			p.Send(w, round)
		}
		p.Wait(workers - 1)
		if got, want := sum.Load(), round*(round+1)/2*(workers-1); got != want {
			t.Fatalf("round %d: sum %d after Wait, want %d", round, got, want)
		}
	}
	for w := 1; w < workers; w++ {
		if seen[w].Load() != 100 {
			t.Fatalf("worker %d ran %d jobs, want 100", w, seen[w].Load())
		}
	}
	if New(0, func(int, int) {}).Workers() != 1 {
		t.Fatal("a pool narrower than 1 must be the caller alone")
	}
}

// TestDroppedPoolReleasesItsGoroutines: no Close exists; an unreachable
// pool must take its workers with it.
func TestDroppedPoolReleasesItsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		p := New(4, func(int, int) {})
		p.Send(1+i%3, i)
		p.Wait(1)
	}
	if n := testkit.GoroutinesAfterGC(base); n > base {
		t.Fatalf("%d goroutines after dropping every pool, %d before building any", n, base)
	}
}
