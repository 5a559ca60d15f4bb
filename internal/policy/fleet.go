// Hierarchical fleet selection: the two-level decision path over a
// topology.Fleet's node-symmetric templates.
//
// For a pattern that fits inside one node, the decision runs in two
// levels. The inter-node level (matchcache.FleetViews.SelectNodes)
// ranks candidate nodes over the quotient graph of node classes using
// cheap per-node aggregates — the usable-GPU count prunes nodes that
// cannot host the pattern, and the per-node free-weight aggregate
// yields the exact Eq. 3 translation constant. The intra-node level is
// the ordinary table-served selection (pickScored) against the node's
// shared class template: within one node the fleet-global PreservedBW
// is the node-local value plus a candidate-independent constant, so
// the local argmax IS the global argmax restricted to that node, and
// the local GPU-set tie-break order is the global one (offset addition
// preserves lexicographic order). Node winners are then compared on
// exact fleet-global metric values; ties resolve to the lowest node
// index, which — GPU IDs being node-major — reproduces the flat
// selection order's lexicographic GPU-set tie-break (the documented
// deterministic node-ordering rule).
//
// The node-local placement rule: the hierarchical path considers only
// single-node candidates. For AggBW-primary selection on
// switch-uniform node classes (every intra-node link strictly faster
// than the inter-node PCIe fallback) the best single-node candidate
// strictly dominates every node-spanning one whenever a node can host
// the pattern, so the winner is byte-identical to the flat matcher's —
// pinned by the greedy churn-parity suite. PreservedBW-primary
// selection may flat-prefer spreading an insensitive job across
// drained nodes; at fleet scale the node-local rule is the documented
// placement semantic, and its winners are pinned against a flat-build
// node-local oracle instead.
//
// Like the flat table-served path, a warmed hierarchical decision
// allocates nothing: the sweep reuses the policy's buffers, metric
// reads are table lookups plus O(k) arithmetic, and the winner lands
// in a caller-supplied Allocation via in-place appends
// (decision gates in fleet_alloc_test.go pin 0 allocs/op).
package policy

import (
	"mapa/internal/graph"
	"mapa/internal/matchcache"
	"mapa/internal/score"
)

// AttachFleet binds a fleet view set to the policy (nil detaches):
// AllocateInto then tries the hierarchical decision first. Policies
// that do not pattern-match ignore the call.
func AttachFleet(a Allocator, fv *matchcache.FleetViews) {
	if mp, ok := a.(*mapaPolicy); ok {
		mp.fleet = fv
	}
}

// allocateFleetInto runs the hierarchical two-level decision on the
// attached fleet view set: it sweeps the hosting nodes in ascending
// order, running the intra-node table-served selection per node and
// keeping the best node winner under the policy's total order on exact
// global metric values. buf is refilled in place on every improvement,
// so the warmed path allocates nothing. served is false when the fleet
// layer declined (see matchcache.FleetViews.SelectNodes); with served
// true, err is nil (buf holds the winner) or ErrNoAllocation (no node
// can host the pattern; a flat path may still find a node-spanning
// placement).
func (p *mapaPolicy) allocateFleetInto(buf *Allocation, usable graph.Bitset, req Request) (served bool, err error) {
	found := false
	var bestP, bestS float64
	served = p.fleet.SelectNodes(req.Pattern, usable, p.maxCandidates,
		func(nd *matchcache.NodeDecision) {
			s, ok := p.pickScored(nd.BW, nd.Tbl, req)
			if !ok {
				return
			}
			mt := nd.Tbl.ForModel(p.scorer.Model)
			r := p.rank(req)
			prim := globalMetric(nd, mt, r[0], s)
			if found && prim < bestP {
				return
			}
			sec := globalMetric(nd, mt, r[1], s)
			if found && prim == bestP && sec <= bestS {
				// Equal scores resolve to the earliest node: node-major
				// IDs make that the flat lexicographic GPU-set winner.
				return
			}
			found, bestP, bestS = true, prim, sec
			p.scoredAllocationInto(buf, nd.BW, nd.Tbl, nd.Order, s, p.rep(nd.Tbl, req, s), nd.Offset, nd.PreservedShift)
		})
	if !served {
		return false, nil
	}
	if !found {
		return true, ErrNoAllocation
	}
	return true, nil
}

// globalMetric is setMetric for a node's set s in fleet-global terms:
// the node's constant shift translates the node-local Eq. 3 value, and
// the static metrics are node-independent. AggBW is the set's AggBW
// representative's, the embedding an AggBW-ranking order picks.
func globalMetric(nd *matchcache.NodeDecision, mt *score.ModelTable, m metric, s int) float64 {
	v := setMetric(nd.BW, nd.Tbl, mt, m, s)
	if m == metricPreservedBW {
		v += nd.PreservedShift
	}
	return v
}
