package serve

import (
	"context"
	"os"
	"testing"

	"updlrm/internal/obs"
	"updlrm/internal/tensor"
)

// benchKernel returns the GEMM tier the bench gate selects via
// UPDLRM_BENCH_KERNEL (exact when unset): scripts/bench.sh runs the
// hot-path suite once per tier and keys the committed baseline by it.
func benchKernel(b *testing.B) tensor.Kernel {
	b.Helper()
	k, err := tensor.ParseKernel(os.Getenv("UPDLRM_BENCH_KERNEL"))
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkServeThroughput measures one closed-loop request through the
// full serving stack: validation, queueing, micro-batching, a shard
// worker's RunBatch, and the fan-out. allocs/op covers every goroutine
// the request touches.
func BenchmarkServeThroughput(b *testing.B) {
	for _, bench := range []struct {
		name     string
		pipeline bool
	}{
		{"serial", false},
		{"pipelined", true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			model, profile, ecfg := testFixture(b)
			ecfg.Kernel = benchKernel(b)
			engines, err := NewShards(model, profile, repeat(ecfg, 2))
			if err != nil {
				b.Fatal(err)
			}
			// Benchmark with live instrumentation: the committed bench
			// gate (BENCH_hotpath.json) holds the registry and sampled
			// tracer to zero added allocations on the serving path.
			srv, err := New(engines, Config{
				MaxBatch: 8, Pipeline: bench.pipeline,
				Metrics: obs.NewRegistry(),
				Tracer:  obs.NewTracer(256, 64),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			samples := profile.Samples
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := samples[i%len(samples)]
				if _, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
