package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestClassString pins the class labels reports rely on.
func TestClassString(t *testing.T) {
	cases := map[Class]string{Critical: "critical", Normal: "normal", Batch: "batch", Class(7): "class(7)"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

// TestClassParamsDefaults pins the per-class normalization: Critical
// closes micro-batches opportunistically by default, the other classes
// inherit the server window, every class inherits MaxBatch/QueueDepth,
// and the default weights order Critical > Normal > Batch.
func TestClassParamsDefaults(t *testing.T) {
	cfg := Config{MaxBatch: 8, QueueDepth: 64, BatchWindow: time.Millisecond}.withDefaults()
	crit, norm, batch := cfg.classParams(Critical), cfg.classParams(Normal), cfg.classParams(Batch)
	if crit.window != 0 {
		t.Errorf("Critical window = %v, want opportunistic (0)", crit.window)
	}
	if norm.window != time.Millisecond || batch.window != time.Millisecond {
		t.Errorf("Normal/Batch windows = %v/%v, want 1ms", norm.window, batch.window)
	}
	for c, p := range map[Class]classParams{Critical: crit, Normal: norm, Batch: batch} {
		if p.maxBatch != 8 || p.depth != 64 {
			t.Errorf("%v: maxBatch/depth = %d/%d, want 8/64", c, p.maxBatch, p.depth)
		}
	}
	if !(crit.weight > norm.weight && norm.weight > batch.weight) {
		t.Errorf("default weights not ordered: crit=%v norm=%v batch=%v", crit.weight, norm.weight, batch.weight)
	}

	// Explicit overrides win; a negative window forces opportunistic.
	cfg.Classes[Batch] = ClassConfig{Weight: 3, MaxBatch: 2, BatchWindow: -1, QueueDepth: 5}
	ov := cfg.classParams(Batch)
	if ov.weight != 3 || ov.maxBatch != 2 || ov.window != 0 || ov.depth != 5 {
		t.Errorf("override params = %+v", ov)
	}
}

// TestWindowsYieldToStagedCritical: batching windows of lower classes
// must not hold while Critical work is already staged. A Normal and a
// Batch request open the round with a long window; the Critical
// arrival aborts Normal's window (arrival path), and Batch's window —
// which would otherwise run its full length with the Critical request
// sitting staged — must be skipped entirely (staged path), so the
// Critical round-trip stays far below one window.
func TestWindowsYieldToStagedCritical(t *testing.T) {
	const window = 400 * time.Millisecond
	srv, profile, _ := newTestServer(t, 1, Config{MaxBatch: 4, BatchWindow: window})
	ctx := context.Background()
	req := func(i int, c Class) Request {
		s := profile.Samples[i]
		return Request{Dense: s.Dense, Sparse: s.Sparse, Class: c}
	}
	var wg sync.WaitGroup
	for i, c := range []Class{Normal, Batch} {
		wg.Add(1)
		go func(i int, c Class) {
			defer wg.Done()
			if _, err := srv.Predict(ctx, req(i, c)); err != nil {
				t.Errorf("%v request: %v", c, err)
			}
		}(i, c)
	}
	// Let the scheduler open Normal's window with both requests queued.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if _, err := srv.Predict(ctx, req(2, Critical)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 300*time.Millisecond {
		t.Fatalf("critical round-trip %v; lower-class windows (%v each) did not yield", d, window)
	}
	wg.Wait()
}

// TestCriticalP99UnderMixedLoad is the wall-clock acceptance check: at
// equal offered load, a mixed Critical/Batch stream through the QoS
// scheduler must give Critical a strictly lower p99 than the same
// stream served FIFO (everything Normal — the pre-QoS behaviour). The
// loads are closed-loop with far more in-flight clients than service
// parallelism, so queueing dominates and the separation is large
// (roughly the full queue-drain depth vs a couple of batches); skipped
// under -short to keep the race-CI step timing-free.
func TestCriticalP99UnderMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock percentile comparison; run without -short")
	}
	model, profile, ecfg := testFixture(t)
	// One overload burst: every request is enqueued while the single
	// shard's first batch is held, so both runs start the clock with the
	// same deep backlog — FIFO tails are then a full queue drain, while
	// the QoS run lets Critical jump it.
	const requests = 640
	run := func(mixed bool) Stats {
		engines, err := NewShards(model, profile, repeat(ecfg, 1))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(engines, Config{MaxBatch: 8, QueueDepth: 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hold := make(chan struct{})
		srv.testHookBatch = func(int, *microBatch) { <-hold }
		var once sync.Once
		release := func() { once.Do(func() { close(hold) }) }
		defer release()

		ctx := context.Background()
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			class := Normal
			if mixed {
				class = Batch
				if i%10 == 0 {
					class = Critical
				}
			}
			wg.Add(1)
			go func(i int, class Class) {
				defer wg.Done()
				s := profile.Samples[i%len(profile.Samples)]
				if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse, Class: class}); err != nil {
					t.Error(err)
				}
			}(i, class)
		}
		waitFor(t, "burst to queue behind the held worker", func() bool {
			queued := 0
			for c := range srv.classCh {
				queued += len(srv.classCh[c])
			}
			// The stalled pipeline holds at most three batches outside
			// the queues (worker, shard queue, blocked route) plus one
			// class's staging area.
			return queued >= requests-4*8
		})
		release()
		wg.Wait()
		return srv.Stats()
	}

	fifo := run(false)
	qos := run(true)
	if fifo.Requests != requests || qos.Requests != requests {
		t.Fatalf("served %d FIFO / %d QoS requests, want %d", fifo.Requests, qos.Requests, requests)
	}
	crit := qos.PerClass[Critical]
	if crit.Requests == 0 {
		t.Fatal("no critical requests served")
	}
	if crit.P99Ns >= fifo.P99Ns {
		t.Fatalf("critical p99 %.0f ns not strictly below FIFO p99 %.0f ns", crit.P99Ns, fifo.P99Ns)
	}
	// Batch is throttled, not starved: it still carries the bulk of the
	// stream to completion.
	if got := qos.PerClass[Batch].Requests; got < requests/2 {
		t.Fatalf("batch served %d of %d, want the flood to complete", got, requests)
	}
}
