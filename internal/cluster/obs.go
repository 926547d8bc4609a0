// Cluster fabric observability: per-node RPC and error counters,
// hedge/failover counters, gather-latency histograms, the modeled
// network term and degraded gauges. Instruments are pre-resolved per
// node at construction, so the gather hot path only touches existing
// atomics; a nil registry (or nil *clusterObs) ignores everything.
package cluster

import (
	"updlrm/internal/obs"
)

// clusterObs holds the frontend's pre-resolved instruments.
type clusterObs struct {
	// per node, indexed like Config.Nodes:
	lookups   []*obs.Counter
	updates   []*obs.Counter
	errors    []*obs.Counter
	hedges    []*obs.Counter
	failovers []*obs.Counter
	bytesOut  []*obs.Counter
	bytesIn   []*obs.Counter

	batches   *obs.Counter
	gatherNs  *obs.Histogram
	networkNs *obs.Histogram
}

// newClusterObs registers the fabric metric families on reg and
// resolves each node's children. The degraded gauge is a scrape-time
// callback over the health tracker. A nil registry returns nil (every
// method of which is a no-op).
func newClusterObs(reg *obs.Registry, nodes []string, h *health) *clusterObs {
	if reg == nil {
		return nil
	}
	o := &clusterObs{}
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
	degVec := reg.GaugeVec("cluster_node_degraded",
		"1 when health-checking currently routes around the node, else 0.", "node")
	for i, n := range nodes {
		o.lookups = append(o.lookups, rpcVec.With(n, "lookup"))
		o.updates = append(o.updates, rpcVec.With(n, "update"))
		o.errors = append(o.errors, errVec.With(n, "lookup"))
		o.hedges = append(o.hedges, hedgeVec.With(n))
		o.failovers = append(o.failovers, failVec.With(n))
		o.bytesOut = append(o.bytesOut, outVec.With(n))
		o.bytesIn = append(o.bytesIn, inVec.With(n))
		node := i
		degVec.WithFunc(func() float64 {
			if h.isDown(node) {
				return 1
			}
			return 0
		}, n)
	}
	o.batches = reg.Counter("cluster_gather_batches_total",
		"Completed fan-out/gather micro-batches.")
	o.gatherNs = reg.Histogram("cluster_gather_wall_ns",
		"Measured wall time of one micro-batch's fan-out/gather cycle.",
		obs.ExpBuckets(1e3, 4, 11))
	o.networkNs = reg.Histogram("cluster_network_modeled_ns",
		"Per-batch modeled interconnect time (Breakdown.NetworkNs).",
		obs.ExpBuckets(1e3, 4, 11))
	return o
}

func (o *clusterObs) recordLookup(node int, reqBytes, respBytes int64) {
	if o == nil {
		return
	}
	o.lookups[node].Inc()
	o.bytesOut[node].Add(reqBytes)
	o.bytesIn[node].Add(respBytes)
}

func (o *clusterObs) recordUpdate(node int, reqBytes, respBytes int64) {
	if o == nil {
		return
	}
	o.updates[node].Inc()
	o.bytesOut[node].Add(reqBytes)
	o.bytesIn[node].Add(respBytes)
}

func (o *clusterObs) recordRPCError(node int) {
	if o == nil {
		return
	}
	o.errors[node].Inc()
}

func (o *clusterObs) recordHedge(node int) {
	if o == nil {
		return
	}
	o.hedges[node].Inc()
}

func (o *clusterObs) recordFailover(node int) {
	if o == nil {
		return
	}
	o.failovers[node].Inc()
}

func (o *clusterObs) recordBatch(gatherWallNs, networkNs float64) {
	if o == nil {
		return
	}
	o.batches.Inc()
	o.gatherNs.Observe(gatherWallNs)
	o.networkNs.Observe(networkNs)
}
