package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"updlrm/internal/obs"
	"updlrm/internal/serve"
)

func TestClusterObsRegisters(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	front, _, err := New(model, profile, ecfg, Config{Nodes: []string{"a", "b"}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	for _, req := range requestsFrom(profile, 8) {
		if _, err := front.Predict(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	found := 0
	for k := range snap {
		if strings.HasPrefix(k, "cluster_") {
			found++
		}
	}
	if found == 0 {
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		t.Fatalf("no cluster_ metrics in registry; keys: %v", keys)
	}
	if snap.Get(`cluster_rpc_total{node="a",op="lookup"}`) == 0 {
		t.Fatalf("per-node lookup counter zero; snap: %v", snap)
	}
}

// TestClusterStatsViewSameEvents: ClusterStats and the exported
// cluster_* families are two views of one record. A run with updates,
// eager hedging and a crashed node (RPC errors; its failed calls defer
// to their in-flight hedges) must leave every per-node count and
// GatherBatches equal to its scraped series.
func TestClusterStatsViewSameEvents(t *testing.T) {
	model, profile, ecfg := testFixture(t)
	reg := obs.NewRegistry()
	cfg := Config{Nodes: []string{"node-a", "node-b"}, HedgeAfter: time.Microsecond, Metrics: reg}
	norm, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var backends []*Backend
	for _, node := range norm.Nodes {
		b, err := NewBackend(model, profile, ecfg, cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	tr := NewLocalTransport(backends...)
	front, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)

	ctx := context.Background()
	reqs := requestsFrom(profile, 24)
	serveAll := func() {
		for i, req := range reqs {
			if _, err := front.Predict(ctx, req); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
	}
	serveAll()
	vec := make([]float32, model.Cfg.EmbDim)
	if err := front.ApplyDeltas(ctx, []serve.Delta{{Table: 0, Row: 1, Vec: vec}}); err != nil {
		t.Fatal(err)
	}
	tr.Deregister("node-a")
	serveAll()
	front.Close()

	// An abandoned hedge or primary leg may still land after Close, so
	// the two views are compared until a read sees them agree.
	var cs ClusterStats
	var diffs []string
	for try := 0; try < 100; try++ {
		if diffs = compareViews(t, reg, front.ClusterStats, &cs); len(diffs) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, d := range diffs {
		t.Error(d)
	}
	var hedges, errs int64
	for _, n := range cs.Nodes {
		if n.Lookups == 0 || n.Updates == 0 || n.BytesSent == 0 || n.BytesRecv == 0 {
			t.Errorf("node %s: run recorded no traffic: %+v", n.Node, n)
		}
		hedges += n.Hedges
		errs += n.Errors
	}
	if cs.GatherBatches == 0 || errs == 0 || hedges == 0 {
		t.Errorf("run recorded %d batches, %d errors, %d hedges; want all nonzero", cs.GatherBatches, errs, hedges)
	}
}

// compareViews reads ClusterStats into *cs, then scrapes reg, and lists
// every count that differs from its scraped series.
func compareViews(t *testing.T, reg *obs.Registry, stats func() ClusterStats, cs *ClusterStats) []string {
	t.Helper()
	*cs = stats()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	scraped := func(family string, labels ...string) int64 {
		f, ok := fams[family]
		if !ok {
			t.Fatalf("family %q not exported", family)
		}
		var total float64
	samples:
		for _, s := range f.Samples[family] {
			for i := 0; i < len(labels); i += 2 {
				if s.Label(labels[i]) != labels[i+1] {
					continue samples
				}
			}
			total += s.Value
		}
		return int64(total)
	}
	var diffs []string
	check := func(what string, stat, got int64) {
		if got != stat {
			diffs = append(diffs, fmt.Sprintf("%s scraped %d, ClusterStats says %d", what, got, stat))
		}
	}
	for _, n := range cs.Nodes {
		check(n.Node+" lookups", n.Lookups, scraped("cluster_rpc_total", "node", n.Node, "op", "lookup"))
		check(n.Node+" updates", n.Updates, scraped("cluster_rpc_total", "node", n.Node, "op", "update"))
		check(n.Node+" errors", n.Errors, scraped("cluster_rpc_errors_total", "node", n.Node))
		check(n.Node+" hedges", n.Hedges, scraped("cluster_hedges_total", "node", n.Node))
		check(n.Node+" failovers", n.Failovers, scraped("cluster_failovers_total", "node", n.Node))
		check(n.Node+" bytes sent", n.BytesSent, scraped("cluster_bytes_sent_total", "node", n.Node))
		check(n.Node+" bytes recv", n.BytesRecv, scraped("cluster_bytes_recv_total", "node", n.Node))
	}
	check("gather batches", cs.GatherBatches, scraped("cluster_gather_batches_total"))
	return diffs
}
