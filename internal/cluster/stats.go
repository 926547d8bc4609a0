package cluster

import (
	"math"

	"updlrm/internal/governor"
)

// NodeStats is one backend's cumulative fabric traffic as seen from the
// frontend.
type NodeStats struct {
	// Node is the backend's name.
	Node string
	// Lookups and Updates count completed RPCs; Errors counts failed
	// ones (after which the call may have failed over).
	Lookups int64
	Updates int64
	Errors  int64
	// Hedges counts hedged lookups launched against this node's ranges'
	// replicas; Failovers counts calls re-routed here or away after a
	// hard failure.
	Hedges    int64
	Failovers int64
	// BytesSent and BytesRecv are the logical wire bytes exchanged with
	// the node (the quantities the link model charges).
	BytesSent int64
	BytesRecv int64
	// Degraded reports whether health-checking currently routes around
	// the node.
	Degraded bool
	// GovernorBand is the node's pressure-governor band as of its last
	// successful lookup ("normal" / "high" / "critical"; empty when the
	// node runs ungoverned or has not answered a lookup yet), and
	// Pressure its tracked/budget ratio at that time.
	GovernorBand string
	Pressure     float64
}

// ClusterStats is the fabric-level supplement to serve.Stats: per-node
// RPC traffic plus the modeled interconnect total.
type ClusterStats struct {
	// Nodes is indexed by the Config.Nodes order.
	Nodes []NodeStats
	// NetworkNs is the cumulative modeled fabric time across batches
	// (each batch charged its slowest node round trip).
	NetworkNs float64
	// GatherBatches counts completed fan-out/gather cycles.
	GatherBatches int64
}

// snapshot builds the ClusterStats view of the recorded fabric events.
func (o *clusterObs) snapshot(nodes []string, h *health) ClusterStats {
	cs := ClusterStats{
		Nodes:         make([]NodeStats, len(nodes)),
		NetworkNs:     o.networkNs.Sum(),
		GatherBatches: int64(o.batches.Value()),
	}
	for i, name := range nodes {
		cs.Nodes[i] = NodeStats{
			Node:      name,
			Lookups:   int64(o.lookups[i].Value()),
			Updates:   int64(o.updates[i].Value()),
			Errors:    int64(o.errors[i].Value()),
			Hedges:    int64(o.hedges[i].Value()),
			Failovers: int64(o.failovers[i].Value()),
			BytesSent: int64(o.bytesOut[i].Value()),
			BytesRecv: int64(o.bytesIn[i].Value()),
			Degraded:  h.isDown(i),
		}
		if band := o.gov[i].band.Load(); band != 0 {
			cs.Nodes[i].GovernorBand = governor.Band(band - 1).String()
			cs.Nodes[i].Pressure = math.Float64frombits(o.gov[i].pressure.Load())
		}
	}
	return cs
}
