package serve

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"updlrm/internal/hotcache"
	"updlrm/internal/obs"
)

// newObsServer builds an instrumented cached server: registry, tracer
// (sampling everything), shared hot cache.
func newObsServer(t *testing.T, shards int, scfg Config) (*Server, *obs.Registry, *obs.Tracer) {
	t.Helper()
	model, profile, ecfg := testFixture(t)
	cache, err := hotcache.New(hotcache.Config{CapacityBytes: 1 << 18, Seed: 7}, model.Cfg.EmbDim)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.HotCache = cache
	engines, err := NewShards(model, profile, repeat(ecfg, shards))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1, 128)
	scfg.Metrics = reg
	scfg.Tracer = tracer
	srv, err := New(engines, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, reg, tracer
}

// driveTraffic serves the profile across all three classes and applies
// one update, so every instrumented subsystem sees activity.
func driveTraffic(t *testing.T, srv *Server) {
	t.Helper()
	_, profile, _ := testFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i, s := range profile.Samples[:60] {
		wg.Add(1)
		go func(i int, dense []float32, sparse [][]int32) {
			defer wg.Done()
			req := Request{Dense: dense, Sparse: sparse, Class: Class(i % NumClasses)}
			if _, err := srv.Predict(ctx, req); err != nil {
				t.Errorf("predict %d: %v", i, err)
			}
		}(i, s.Dense, s.Sparse)
	}
	wg.Wait()
	vec := make([]float32, srv.engines[0].EmbDim())
	for i := range vec {
		vec[i] = 0.25
	}
	if err := srv.ApplyDeltas(ctx, []Delta{{Table: 0, Row: 1, Vec: vec}}); err != nil {
		t.Fatalf("ApplyDeltas: %v", err)
	}
}

// TestMetricsExposition drives an instrumented server and validates the
// rendered /metrics exposition: it must parse, satisfy histogram
// invariants, and cover the serve (per-class), router (per-shard),
// hotcache (per-table) and update-lane families. The family structure
// (sorted name/type pairs) is pinned by a golden file.
func TestMetricsExposition(t *testing.T) {
	srv, reg, _ := newObsServer(t, 2, Config{MaxBatch: 8, BatchWindow: 100 * time.Microsecond})
	driveTraffic(t, srv)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParseServeExposition(t, text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	// Activity checks: the driven traffic must be visible per subsystem.
	requireSample := func(family, sample string, min float64) {
		t.Helper()
		f, ok := fams[family]
		if !ok {
			t.Fatalf("family %q missing from exposition", family)
		}
		var total float64
		for _, s := range f.Samples[sample] {
			total += s.Value
		}
		if total < min {
			t.Errorf("%s: sum = %g, want >= %g\nsamples: %+v", sample, total, min, f.Samples[sample])
		}
	}
	requireSample("serve_requests_total", "serve_requests_total", 60)
	requireSample("serve_admitted_total", "serve_admitted_total", 60)
	requireSample("serve_batches_total", "serve_batches_total", 1)
	requireSample("serve_request_modeled_ns", "serve_request_modeled_ns_count", 60)
	requireSample("serve_request_span_ns", "serve_request_span_ns_count", 60)
	requireSample("serve_update_applied_total", "serve_update_applied_total", 1)
	requireSample("serve_update_rows_total", "serve_update_rows_total", 1)
	requireSample("core_stage_modeled_ns", "core_stage_modeled_ns_count", 1)
	requireSample("core_update_modeled_ns", "core_update_modeled_ns_count", 2) // one per shard
	// The cache saw lookups: hits + misses together cover the traffic.
	hits, misses := fams["hotcache_hits_total"], fams["hotcache_misses_total"]
	if hits == nil || misses == nil {
		t.Fatal("hotcache families missing")
	}
	var lookups float64
	for _, s := range hits.Samples["hotcache_hits_total"] {
		lookups += s.Value
	}
	for _, s := range misses.Samples["hotcache_misses_total"] {
		lookups += s.Value
	}
	if lookups == 0 {
		t.Error("no hotcache lookups recorded")
	}
	// Router gauges exist per shard.
	for _, fam := range []string{"serve_router_backlog_ns", "serve_router_predicted_per_request_ns"} {
		f := fams[fam]
		if f == nil || len(f.Samples[fam]) != 2 {
			t.Errorf("%s: want one sample per shard, got %+v", fam, f)
		}
	}
	// Per-class coverage: every class label appears on the served counter.
	seen := map[string]bool{}
	for _, s := range fams["serve_requests_total"].Samples["serve_requests_total"] {
		seen[s.Label("class")] = true
	}
	for c := Class(0); c < NumClasses; c++ {
		if !seen[c.String()] {
			t.Errorf("serve_requests_total missing class %q", c)
		}
	}

	// Golden structure: the sorted family name/type catalog. Values
	// change run to run; the catalog is the API surface this pins.
	var catalog []string
	for name, f := range fams {
		catalog = append(catalog, name+" "+f.Type)
	}
	sort.Strings(catalog)
	got := strings.Join(catalog, "\n") + "\n"
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric catalog drifted from %s (regenerate with UPDATE_GOLDEN=1 if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// ParseServeExposition wraps obs.ParseExposition for test readability.
func ParseServeExposition(t *testing.T, text string) (map[string]*obs.ParsedFamily, error) {
	t.Helper()
	return obs.ParseExposition(text)
}

// TestSnapshotDiffAcrossPhases exercises Registry.Snapshot the way
// experiments do: diff metric state across a traffic phase.
func TestSnapshotDiffAcrossPhases(t *testing.T) {
	srv, reg, _ := newObsServer(t, 1, Config{MaxBatch: 4})
	before := reg.Snapshot()
	driveTraffic(t, srv)
	diff := reg.Snapshot().Sub(before)
	var served float64
	for _, k := range diff.Keys() {
		if strings.HasPrefix(k, "serve_requests_total") {
			served += diff.Get(k)
		}
	}
	if served != 60 {
		t.Fatalf("snapshot diff shows %g served requests, want 60", served)
	}
}

// TestResponseSpanAttribution checks the carried-over satellite: each
// request of a coalesced micro-batch reports its own queue-entry→reply
// span (its measured wait plus the batch's residency), not one shared
// number.
func TestResponseSpanAttribution(t *testing.T) {
	srv, _, tracer := newObsServer(t, 1, Config{MaxBatch: 8, BatchWindow: 200 * time.Millisecond})
	_, profile, _ := testFixture(t)
	ctx := context.Background()

	// Stagger four Normal requests into one window-held batch: distinct
	// enqueue times, one dispatch.
	var wg sync.WaitGroup
	responses := make([]Response, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i]
			resp, err := srv.Predict(ctx, Request{Dense: s.Dense, Sparse: s.Sparse})
			if err != nil {
				t.Errorf("predict %d: %v", i, err)
				return
			}
			responses[i] = resp
		}(i)
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()

	coalesced := false
	for i, r := range responses {
		want := r.QueueNs + r.Breakdown.TotalNs()
		if r.PipelinedNs > 0 {
			want = r.QueueNs + r.PipelinedNs
		}
		if math.Abs(r.SpanNs-want) > 1e-6*want {
			t.Errorf("response %d: SpanNs = %g, want QueueNs + residency = %g", i, r.SpanNs, want)
		}
		if r.BatchSize > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Skip("no batch coalesced; timing too coarse on this machine")
	}
	// Within one coalesced batch, staggered enqueues must yield distinct
	// spans ordered opposite to arrival (earlier arrival waited longer).
	byBatch := map[float64][]Response{}
	for _, r := range responses {
		if r.BatchSize > 1 {
			byBatch[r.Breakdown.TotalNs()] = append(byBatch[r.Breakdown.TotalNs()], r)
		}
	}
	for _, batch := range byBatch {
		if len(batch) < 2 {
			continue
		}
		spans := map[float64]bool{}
		for _, r := range batch {
			spans[r.SpanNs] = true
		}
		if len(spans) < 2 {
			t.Errorf("coalesced batch of %d reports %d distinct spans; want per-request attribution",
				len(batch), len(spans))
		}
	}
	// The tracer recorded per-request spans with the same attribution.
	recs := tracer.Records()
	if len(recs) == 0 {
		t.Fatal("tracer sampled nothing at 1-in-1")
	}
	for _, rec := range recs {
		if rec.NumSpans == 0 {
			t.Fatal("trace record has no spans")
		}
		if rec.Spans[0].Name != "queue_wait" || rec.Spans[0].Kind != "measured" {
			t.Fatalf("first span = %+v, want measured queue_wait", rec.Spans[0])
		}
		if rec.TotalNs < rec.QueueNs {
			t.Fatalf("trace TotalNs %g < QueueNs %g", rec.TotalNs, rec.QueueNs)
		}
	}
}

// TestStatsConcurrentWithTraffic is the satellite -race test: Stats()
// polled while traffic is in flight must neither race with recorders
// (summarize copies before sorting) nor perturb later snapshots.
func TestStatsConcurrentWithTraffic(t *testing.T) {
	srv, _, _ := newObsServer(t, 2, Config{MaxBatch: 4, BatchWindow: 50 * time.Microsecond})
	_, profile, _ := testFixture(t)
	ctx := context.Background()

	stop := make(chan struct{})
	var pollWg sync.WaitGroup
	for i := 0; i < 3; i++ {
		pollWg.Add(1)
		go func() {
			defer pollWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				if st.P50Ns > st.P99Ns {
					t.Errorf("snapshot inconsistent: p50 %g > p99 %g", st.P50Ns, st.P99Ns)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := profile.Samples[i%len(profile.Samples)]
			req := Request{Dense: s.Dense, Sparse: s.Sparse, Class: Class(i % NumClasses)}
			if _, err := srv.Predict(ctx, req); err != nil {
				t.Errorf("predict: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	pollWg.Wait()

	st := srv.Stats()
	if st.Requests != n {
		t.Fatalf("served %d, want %d", st.Requests, n)
	}
	if st.P50Ns <= 0 || st.P99Ns < st.P50Ns || st.MaxNs < st.P99Ns {
		t.Fatalf("percentiles inconsistent after concurrent polling: p50=%g p99=%g max=%g",
			st.P50Ns, st.P99Ns, st.MaxNs)
	}
	// Two quiescent snapshots must agree exactly — Stats() is read-only.
	again := srv.Stats()
	if st.P50Ns != again.P50Ns || st.P99Ns != again.P99Ns || st.MaxNs != again.MaxNs {
		t.Fatal("consecutive quiescent snapshots disagree; Stats() mutated collector state")
	}
}
