// Package cluster is the table-partitioned multi-node serving fabric:
// the deployment shape where the embedding tables themselves are split
// across backend nodes instead of every shard replicating the full
// model. Each backend owns a consistent-hashed set of (table, row-range)
// keys and runs a core.Engine over only its slices; a cluster frontend
// fans each micro-batch's sparse lookups out to the owning nodes,
// gathers their partial embedding reductions over a pluggable transport
// (in-process for tests, length-prefixed TCP for real deployments), and
// runs the dense path where the gather lands. The interconnect is a
// first-class cost term — Breakdown.NetworkNs, bytes over a link model,
// PIFS-Rec-style — so partition planning and routing can weigh DPU
// versus fabric cost.
//
// The frontend implements serve.Inferencer, so every driver that works
// against the single-node serve.Server works against a cluster
// unchanged. With the default table-aligned ownership (RangesPerTable
// == 1) a cluster's predictions are bit-identical to the single-node
// server's: each (sample, table) reduction is computed entirely by one
// backend whose partition plans are pinned to the single-node plan
// inputs (core.Config.PlanTables / PlanAvgReduction), the frontend
// assembles gathered embeddings by placement (no cross-node float
// re-summation), and the dense head runs the same kernel tier. Row-range
// splitting (RangesPerTable > 1) is supported as mechanism — partial
// reductions are then summed in canonical node order — but bit-identity
// is only guaranteed for table-aligned ownership.
package cluster

import (
	"fmt"
	"time"

	"updlrm/internal/core"
	"updlrm/internal/dlrm"
	"updlrm/internal/governor"
	"updlrm/internal/hotcache"
	"updlrm/internal/obs"
	"updlrm/internal/trace"
)

// Config shapes a cluster deployment. The same Config must be given to
// the frontend and to every backend: placement is computed, not
// negotiated, so all parties derive the identical range→node map from
// it.
type Config struct {
	// Nodes names the backend nodes. For TCP deployments the names are
	// the backends' listen addresses (host:port); for in-process
	// deployments any distinct strings work. Order matters: placement
	// hashes names, but node indexes (metrics labels, stats) follow this
	// slice.
	Nodes []string
	// RangesPerTable splits each table into this many contiguous row
	// ranges, each consistent-hashed to a node independently. The
	// default 1 keeps ownership table-aligned — the bit-identical
	// configuration (see the package comment).
	RangesPerTable int
	// Replication is how many nodes materialize each range (owner +
	// replicas); the extra copies serve failover and hedged reads.
	// Default 2, clamped to len(Nodes).
	Replication int
	// VirtualNodes is the consistent-hash ring's virtual-point count per
	// node (default 16): more points smooth the range distribution.
	VirtualNodes int
	// MaxBatch, BatchWindow and QueueDepth are the frontend scheduler's
	// serve.Config fields of the same names (defaults
	// serve.DefaultMaxBatch / 0 / serve.DefaultQueueDepth); QoS classes
	// run with serve's default weights.
	MaxBatch    int
	BatchWindow time.Duration
	QueueDepth  int
	// GatherWorkers is how many micro-batches the frontend gathers
	// concurrently — the scheduler's shard count (each worker owns a
	// dense-path model clone). Default 2.
	GatherWorkers int
	// Link models the interconnect for Breakdown.NetworkNs accounting.
	// The zero value means DefaultLink().
	Link LinkModel
	// CallTimeout bounds one transport round trip (default 2s).
	CallTimeout time.Duration
	// HedgeAfter, when positive, launches a hedged lookup to the ranges'
	// next replica if the primary call has not returned within the
	// duration — the retry-once tail-latency hedge. Zero disables
	// hedging (failover on hard errors still applies).
	HedgeAfter time.Duration
	// FailureThreshold is how many consecutive transport failures mark a
	// node degraded, routing its ranges to replicas (default 3).
	FailureThreshold int
	// PingInterval, when positive, runs a background prober that pings
	// degraded nodes and restores them on success — the automatic rejoin
	// path. Zero leaves recovery to the next successful call or a manual
	// SetNodeUp.
	PingInterval time.Duration
	// HotCache sizes each backend's hot-row cache (per backend — unlike
	// the single-node server, cluster backends cannot share one
	// in-memory cache). Zero CapacityBytes disables it, keeping the
	// deployment bit-identical to a cache-less single-node server.
	HotCache hotcache.Config
	// Governor, when BudgetBytes is positive, runs a per-backend
	// pressure governor over each node's tracked memory (hot-cache
	// occupancy + engine arena footprint): at the High watermark the
	// backend shrinks its cache toward the budget, at Critical it also
	// freezes arena growth. Backends never shed admission — class-aware
	// shedding is the frontend/serve tier's job — they only degrade
	// resources, and they report their band and pressure on every
	// lookup response so ClusterStats can surface fleet-wide pressure.
	Governor governor.Config
	// Metrics, when set, receives the frontend scheduler's serve_*
	// families (serve.Config.Metrics) and the cluster instrument
	// families: per-node RPC and error counters, hedge/failover
	// counters, gather-latency histograms, modeled network time and
	// degraded gauges. Pre-resolved at construction; nil leaves the
	// deployment uninstrumented.
	Metrics *obs.Registry
}

// Defaults for Config zero values.
const (
	DefaultReplication   = 2
	DefaultVirtualNodes  = 16
	DefaultGatherWorkers = 2
	DefaultCallTimeout   = 2 * time.Second
	DefaultFailureThresh = 3
)

func (c Config) withDefaults() (Config, error) {
	if len(c.Nodes) == 0 {
		return c, fmt.Errorf("cluster: no nodes")
	}
	seen := make(map[string]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		if n == "" || seen[n] {
			return c, fmt.Errorf("cluster: node names must be non-empty and distinct (%q)", n)
		}
		seen[n] = true
	}
	if c.RangesPerTable <= 0 {
		c.RangesPerTable = 1
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Replication > len(c.Nodes) {
		c.Replication = len(c.Nodes)
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.GatherWorkers <= 0 {
		c.GatherWorkers = DefaultGatherWorkers
	}
	if c.Link == (LinkModel{}) {
		c.Link = DefaultLink()
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThresh
	}
	return c, nil
}

// New builds a complete in-process cluster: one backend per configured
// node, an in-process transport wired to all of them, and a frontend
// over it — the deployment shape tests and single-binary demos use.
// Backend engines are built from ecfg exactly as NewBackend documents;
// the frontend's dense head divides the host cores among its gather
// workers.
func New(model *dlrm.Model, profile *trace.Trace, ecfg core.Config, cfg Config) (*Frontend, []*Backend, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	backends := make([]*Backend, len(norm.Nodes))
	for i, node := range norm.Nodes {
		b, err := NewBackend(model, profile, ecfg, cfg, node)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: backend %s: %w", node, err)
		}
		backends[i] = b
	}
	tr := NewLocalTransport(backends...)
	f, err := NewFrontend(model, profile, ecfg, cfg, tr)
	if err != nil {
		return nil, nil, err
	}
	return f, backends, nil
}
