// Cluster fabric event recording: per-node RPC and error counters,
// hedge/failover counters, gather-latency histograms, the modeled
// network term and degraded gauges. Instruments are pre-resolved per
// node at construction, so the gather hot path only touches existing
// atomics. They are the one record of fabric events: ClusterStats is a
// view over them, and with Config.Metrics set they are also the
// exported cluster_* families.
package cluster

import (
	"math"
	"sync/atomic"

	"updlrm/internal/obs"
	"updlrm/internal/serve"
)

// clusterObs holds the frontend's pre-resolved instruments. The ones
// ClusterStats reads always exist — on a private, never-scraped
// registry when Config.Metrics is nil; the scrape-only gather-latency
// histogram and degraded gauges exist only on a caller's registry.
type clusterObs struct {
	// per node, indexed like Config.Nodes:
	lookups   []*obs.Counter
	updates   []*obs.Counter
	errors    []*obs.Counter
	hedges    []*obs.Counter
	failovers []*obs.Counter
	bytesOut  []*obs.Counter
	bytesIn   []*obs.Counter
	gov       []nodeGovernor

	batches   *obs.Counter
	networkNs *obs.Histogram
	gatherNs  *obs.Histogram // scrape-only: nil unless exported
}

// nodeGovernor is a node's pressure as of its last lookup reply that
// carried one: band holds the wire encoding (governor.Band + 1, 0 =
// unknown or ungoverned), pressure the tracked/budget ratio as float64
// bits. It has no metric family.
type nodeGovernor struct {
	band     atomic.Uint32
	pressure atomic.Uint64
}

// newClusterObs builds the fabric instruments and resolves each node's
// children, on export when set (adding the scrape-only gather-latency
// histogram and the degraded gauges, a scrape-time callback over the
// health tracker), else on a private registry.
func newClusterObs(export *obs.Registry, nodes []string, h *health) *clusterObs {
	reg := export
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &clusterObs{gov: make([]nodeGovernor, len(nodes))}
	rpcVec := reg.CounterVec("cluster_rpc_total",
		"Completed cluster RPCs, by backend node and operation.", "node", "op")
	errVec := reg.CounterVec("cluster_rpc_errors_total",
		"Failed cluster RPCs, by backend node and operation.", "node", "op")
	hedgeVec := reg.CounterVec("cluster_hedges_total",
		"Hedged lookups launched after HedgeAfter without a primary reply, by primary node.", "node")
	failVec := reg.CounterVec("cluster_failovers_total",
		"Lookup/update calls re-routed to a replica after a hard failure, by failed node.", "node")
	outVec := reg.CounterVec("cluster_bytes_sent_total",
		"Logical wire bytes scattered to each backend node.", "node")
	inVec := reg.CounterVec("cluster_bytes_recv_total",
		"Logical wire bytes gathered from each backend node.", "node")
	for _, n := range nodes {
		o.lookups = append(o.lookups, rpcVec.With(n, "lookup"))
		o.updates = append(o.updates, rpcVec.With(n, "update"))
		o.errors = append(o.errors, errVec.With(n, "lookup"))
		o.hedges = append(o.hedges, hedgeVec.With(n))
		o.failovers = append(o.failovers, failVec.With(n))
		o.bytesOut = append(o.bytesOut, outVec.With(n))
		o.bytesIn = append(o.bytesIn, inVec.With(n))
	}
	o.batches = reg.Counter("cluster_gather_batches_total",
		"Completed fan-out/gather micro-batches.")
	o.networkNs = reg.Histogram("cluster_network_modeled_ns",
		"Per-batch modeled interconnect time (Breakdown.NetworkNs).",
		serve.LatencyBuckets())
	if export == nil {
		return o
	}
	o.gatherNs = export.Histogram("cluster_gather_wall_ns",
		"Measured wall time of one micro-batch's fan-out/gather cycle.",
		serve.LatencyBuckets())
	degVec := export.GaugeVec("cluster_node_degraded",
		"1 when health-checking currently routes around the node, else 0.", "node")
	for i, n := range nodes {
		node := i
		degVec.WithFunc(func() float64 {
			if h.isDown(node) {
				return 1
			}
			return 0
		}, n)
	}
	return o
}

// recordLookup records one completed lookup RPC and the governor state
// its reply carried (band 0: none).
func (o *clusterObs) recordLookup(node int, reqBytes, respBytes int64, band uint32, pressure float64) {
	o.lookups[node].Inc()
	o.bytesOut[node].Add(reqBytes)
	o.bytesIn[node].Add(respBytes)
	if band != 0 {
		o.gov[node].band.Store(band)
		o.gov[node].pressure.Store(math.Float64bits(pressure))
	}
}

func (o *clusterObs) recordUpdate(node int, reqBytes, respBytes int64) {
	o.updates[node].Inc()
	o.bytesOut[node].Add(reqBytes)
	o.bytesIn[node].Add(respBytes)
}

func (o *clusterObs) recordRPCError(node int) { o.errors[node].Inc() }

func (o *clusterObs) recordHedge(node int) { o.hedges[node].Inc() }

func (o *clusterObs) recordFailover(node int) { o.failovers[node].Inc() }

func (o *clusterObs) recordBatch(gatherWallNs, networkNs float64) {
	o.batches.Inc()
	o.gatherNs.Observe(gatherWallNs)
	o.networkNs.Observe(networkNs)
}
