package cluster

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/serve"
	"updlrm/internal/synth"
)

// TestServingHeapStaysFlat is the soak check on serving statistics: an
// uninstrumented single-node server, and then a cluster frontend over
// the local transport, serve a warm-up and then ten times as many
// requests, and the live heap may not grow with the request count.
// Each served request is recorded into fixed-size instruments, so the
// growth between the two checkpoints stays within a fixed slack; a
// collector that kept per-request samples would grow by tens of bytes
// per request.
func TestServingHeapStaysFlat(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("220k requests per deployment; run without -short and -race")
	}
	const (
		warmup  = 20_000
		measure = 200_000
		slack   = 1 << 20
		clients = 128 // deep micro-batches keep the soak short
	)
	// Two lookups per table keep the engines' simulated embedding reads
	// from dominating the run: the soak is about the serving tier.
	spec, err := synth.Preset(synth.PresetRead)
	if err != nil {
		t.Fatal(err)
	}
	spec = synth.Scaled(spec, 0.004, 0)
	spec.AvgReduction, spec.Tables = 2, 4
	profile, err := spec.Generate(192)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dlrm.New(dlrm.DefaultConfig(profile.RowsPerTable))
	if err != nil {
		t.Fatal(err)
	}
	_, _, ecfg := testFixture(t)
	reqs := requestsFrom(profile, len(profile.Samples))
	serveN := func(t *testing.T, inf serve.Inferencer, n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < n; i += clients {
					if _, err := inf.Predict(context.Background(), reqs[i%len(reqs)]); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		// Two cycles: the first moves sync.Pool contents to the victim
		// cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	soak := func(t *testing.T, inf serve.Inferencer) {
		serveN(t, inf, warmup)
		before := heap()
		serveN(t, inf, measure)
		after := heap()
		if after > before+slack {
			t.Fatalf("live heap grew %d B over %d requests (%.1f B/request), want < %d B",
				after-before, measure, float64(after-before)/measure, slack)
		}
		t.Logf("live heap %d -> %d B over %d requests", before, after, measure)
	}

	t.Run("server", func(t *testing.T) {
		engines, err := serve.NewShards(model, profile, []core.Config{ecfg})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(engines, serve.Config{MaxBatch: clients})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		soak(t, srv)
	})
	t.Run("cluster", func(t *testing.T) {
		front, _, err := New(model, profile, ecfg, Config{Nodes: []string{"node-a", "node-b"}, MaxBatch: clients})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(front.Close)
		soak(t, front)
	})
}
