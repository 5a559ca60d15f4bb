// Fleet-scale template store and views: the node-symmetric
// generalization of the Store/Views pipeline.
//
// A topology.Fleet describes N nodes as instances of a handful of
// node-class topologies. Identical nodes are graph-isomorphic, so the
// idle-state universe and score table of a (node class, canonical
// shape) pair are built exactly once — on the class template, in
// node-local vertex IDs — and instantiated per node by vertex
// relabeling: a node's candidates are the template's candidates with
// the node's offset added. FleetStore holds those templates (memory
// and build time O(distinct node classes × shapes), not
// O(nodes × shapes)); FleetViews layers one ordinary Views per node on
// top, over the node's class store in node-local IDs. A delta updates
// only the touched nodes' usable masks and Eq. 3 bandwidth accounting;
// a node's liveness is its usable mask, exactly as on a flat stream.
//
// The decision path is hierarchical: the inter-node level works on the
// quotient graph of node classes using cheap per-node aggregates (the
// usable-GPU count prunes nodes that cannot host the pattern; the
// node's free-weight aggregate feeds the Eq. 3 translation below), and
// the intra-node level runs the ordinary table-served selection
// against the class template. Node-local scores translate to exact
// fleet-global values:
//
//   - AggBW and the Eq. 2 link mix read only intra-allocation edges,
//     which a single-node allocation draws entirely from the class
//     template — local values ARE global values.
//
//   - PreservedBW decomposes across the node boundary. Every
//     inter-node edge is the PCIe-class fallback (weight pcie), so
//     with F = Σ_j f_j usable GPUs fleet-wide, f_j usable in node j,
//     FW_j node j's local free weight, and k the pattern size:
//
//     totalFree  = Σ_j FW_j + pcie·(C(F,2) − Σ_j C(f_j,2))
//     global(S)  = local_j(S) + totalFree − FW_j − k·pcie·(F − f_j)
//
//     for any candidate S inside node j. All link bandwidths are
//     integral and far below 2^53, so these float sums are exact and
//     the translated values are bit-identical to the flat
//     accounting's.
//
// Determinism: GPU IDs are node-major with offsets ascending by node
// index, so any GPU set inside node i is lexicographically smaller
// than any inside node j > i — resolving equal-scored node winners to
// the lowest node index reproduces the flat selection order's
// lexicographic GPU-set tie-break exactly (the documented node-order
// rule the parity suites pin).
package matchcache

import (
	"fmt"
	"sort"
	"sync"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// FleetStore is the template store of a fleet: one ordinary
// Store per distinct node class, each building universes and score
// tables on its class template in node-local IDs. It is safe for
// concurrent use.
type FleetStore struct {
	fleet  *topology.Fleet
	stores []*Store // one per fleet.Classes entry
}

// NewFleetStore returns a template store for the fleet. capacity
// bounds each class universe's class count; <= 0 uses
// DefaultUniverseCapacity.
func NewFleetStore(f *topology.Fleet, capacity int) *FleetStore {
	fs := &FleetStore{fleet: f, stores: make([]*Store, len(f.Classes))}
	for i, c := range f.Classes {
		fs.stores[i] = NewStore(c, capacity)
	}
	return fs
}

// Warm precomputes each class template's universes (and score tables)
// for the given patterns, skipping patterns larger than a class. The
// cost is per class, not per node: warming a 1,000-node single-class
// fleet builds exactly as much as warming a 2-node one. Returns the
// number of complete class universes now held for the requested
// patterns, summed over classes.
func (fs *FleetStore) Warm(workers int, patterns ...*graph.Graph) int {
	n := 0
	for i, s := range fs.stores {
		max := fs.fleet.Classes[i].NumGPUs()
		fit := make([]*graph.Graph, 0, len(patterns))
		for _, p := range patterns {
			if p.NumVertices() <= max {
				fit = append(fit, p)
			}
		}
		n += s.Warm(workers, fit...)
	}
	return n
}

// Ensure builds the pattern's class-template universe and score table
// on every class that can host it, if missing — the unlocked prewarm
// hook of the fleet decision path, mirroring Store.Ensure. Already-
// built shapes return after a memoized fingerprint lookup.
func (fs *FleetStore) Ensure(pattern *graph.Graph, workers int) {
	for i, s := range fs.stores {
		if pattern.NumVertices() <= fs.fleet.Classes[i].NumGPUs() {
			s.Ensure(pattern, workers)
		}
	}
}

// Stats merges the per-class store snapshots: universe, table, and
// build counters sum over node classes — the fleet's whole template
// footprint, independent of node count.
func (fs *FleetStore) Stats() StoreStats {
	var out StoreStats
	for _, s := range fs.stores {
		ss := s.Stats()
		out.Universes += ss.Universes
		out.Incomplete += ss.Incomplete
		out.Builds = append(out.Builds, ss.Builds...)
		out.BuildTime += ss.BuildTime
		out.Tables += ss.Tables
		out.TableTime += ss.TableTime
		out.Repairs += ss.Repairs
		out.RepairedCandidates += ss.RepairedCandidates
		out.RepairTime += ss.RepairTime
	}
	return out
}

// FleetViews is the live layer of the fleet pipeline: one Views per
// node over one availability-state stream, fed the same global-ID
// GPU-set deltas a flat Views receives and forwarding each GPU, in
// node-local IDs, to its node's Views. It is bound to one stream, like
// Views, and is safe for concurrent use; the node Views are reached
// only under its lock. Like Views, it also tracks the stream's
// fleet-wide usable mask, and SelectNodes declines a decision made on
// any other mask — a mis-published stream never serves from stale node
// state. A delta that contradicts a node's tracked masks, or names a
// GPU outside the fleet, panics, as on a flat Views.
type FleetViews struct {
	mu      sync.Mutex
	fleet   *topology.Fleet
	nodes   []*Views     // one per fleet node, in node-local GPU IDs
	usable  graph.Bitset // tracked usable set (free AND healthy), global IDs
	maxNode int          // largest node size: bigger patterns span nodes
	stats   ViewStats

	one          [1]int       // reusable single-GPU delta buffer
	scratchNodes []int        // reusable eligible-node index buffer
	nd           NodeDecision // reusable callback argument (&nd escapes via sel)
}

// NewFleetViews returns a fleet view set tracking a fresh availability
// stream that starts with every node fully free and healthy. A nil
// store returns a nil view set, which ignores deltas and serves
// nothing.
func (fs *FleetStore) NewFleetViews() *FleetViews {
	if fs == nil {
		return nil
	}
	f := fs.fleet
	fv := &FleetViews{
		fleet:   f,
		nodes:   make([]*Views, f.NumNodes()),
		usable:  graph.NewBitset(f.NumGPUs()),
		maxNode: f.MaxNodeGPUs(),
	}
	fv.usable.Fill(f.NumGPUs())
	for j := range fv.nodes {
		fv.nodes[j] = fs.stores[f.NodeClass[j]].NewViews()
	}
	return fv
}

// locate resolves a global GPU ID to its node index and node-local ID.
// Node ID ranges are contiguous with ascending offsets, so this is one
// binary search; an ID outside the fleet panics.
func (fv *FleetViews) locate(g int) (node, local int) {
	if g < 0 || g >= fv.fleet.NumGPUs() {
		panic(fmt.Sprintf("matchcache: FleetViews delta names GPU %d outside the fleet", g))
	}
	node = sort.SearchInts(fv.fleet.Offsets, g+1) - 1
	return node, g - fv.fleet.Offsets[node]
}

// forward publishes a global-ID delta GPU by GPU to the owning node's
// Views through op, then folds the GPU's resulting usability into the
// fleet-wide mask. Nil view sets ignore the call.
func (fv *FleetViews) forward(gpus []int, op func(*Views, []int)) {
	if fv == nil {
		return
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for _, g := range gpus {
		j, local := fv.locate(g)
		nv := fv.nodes[j]
		fv.one[0] = local
		op(nv, fv.one[:])
		if nv.bw.Usable().Has(local) {
			fv.usable.Set(g)
		} else {
			fv.usable.Unset(g)
		}
	}
}

// Allocate publishes an allocation delta in global GPU IDs. Nil view
// sets ignore the call.
func (fv *FleetViews) Allocate(gpus []int) { fv.forward(gpus, (*Views).Allocate) }

// Release publishes a release delta in global GPU IDs. Nil view sets
// ignore the call.
func (fv *FleetViews) Release(gpus []int) { fv.forward(gpus, (*Views).Release) }

// MarkUnhealthy publishes a health delta in global GPU IDs: the GPUs
// keep their free/allocated state but leave the usable set. Nil view
// sets ignore the call.
func (fv *FleetViews) MarkUnhealthy(gpus []int) { fv.forward(gpus, (*Views).MarkUnhealthy) }

// RestoreHealth publishes a recovery delta in global GPU IDs. Nil view
// sets ignore the call.
func (fv *FleetViews) RestoreHealth(gpus []int) { fv.forward(gpus, (*Views).RestoreHealth) }

// NodeDecision hands one node's intra-node selection context to a
// SelectNodes callback: the node's accounting — its usable mask and
// Eq. 3 sums, in node-local IDs — the shared class score table, the
// order remap
// into the request pattern's vertex IDs (nil when structurally
// identical to the template build), and the exact constant translating
// node-local PreservedBW to the fleet-global value. Offset translates
// node-local GPU IDs to global ones.
type NodeDecision struct {
	Node, Offset   int
	BW             *match.BandwidthAccounting
	Tbl            *score.Table
	Order          []int
	PreservedShift float64
}

// SelectNodes runs the hierarchical decision's node sweep for a
// pattern: the inter-node level prunes nodes by the cheap usable-count
// aggregate (f_j < k cannot host the pattern) and computes the Eq. 3
// translation constants from the per-node free-weight aggregates; the
// intra-node level is the caller's — sel runs under the view lock once
// per node that can host the pattern — machine graphs being complete,
// every node with at least k usable GPUs holds a live set — in
// ascending node order (the documented deterministic node-ordering
// rule: node-major GPU IDs make ascending node order coincide with the
// flat lexicographic GPU-set tie-break). The caller compares node
// winners on exact global scores and resolves ties to the first node
// seen.
//
// SelectNodes returns false without invoking sel when the fleet layer
// cannot answer and the caller must decide on its flat path instead.
// Without counting anything it declines a pattern larger than every
// node (it spans nodes; a nil view set declines too). It counts a
// Rejected when it cannot answer soundly:
//
//   - usable, the mask the decision is made on, differs from the
//     tracked usable set — the stream missed deltas (the rule
//     Views.SelectLive applies);
//   - a class universe overflowed the store capacity;
//   - a candidate cap would truncate some node's live list (the flat
//     path's rule: a binding cap is decided by the search).
//
// On true the decision counts as TableServed even when no node could
// host the pattern (sel ran zero times): the hierarchy answered "no
// feasible single-node placement".
func (fv *FleetViews) SelectNodes(pattern *graph.Graph, usable graph.Bitset, maxCandidates, workers int, sel func(nd *NodeDecision)) bool {
	k := pattern.NumVertices()
	if fv == nil || k > fv.maxNode {
		return false
	}
	ci := canon.info(pattern)
	fv.mu.Lock()
	defer fv.mu.Unlock()
	if !usable.SubsetOf(fv.usable) || !fv.usable.SubsetOf(usable) {
		fv.stats.Rejected++
		return false
	}
	// Pass 1: inter-node pruning on the quotient-level aggregates, the
	// surviving nodes' class universes resolved, and the fleet-wide
	// Eq. 3 terms. All sums are over integral link bandwidths, so every
	// float value below is exact.
	eligible := fv.scratchNodes[:0]
	F := 0
	sumFW := 0.0
	sumPairs := 0.0
	for j, nv := range fv.nodes {
		f := nv.bw.UsableCount()
		F += f
		sumFW += nv.bw.FreeWeight()
		sumPairs += float64(f * (f - 1) / 2)
		if f < k {
			continue
		}
		usl, ok := nv.slot(ci, pattern, workers)
		if !ok || capped(usl.u, f, maxCandidates) {
			fv.scratchNodes = eligible
			fv.stats.Rejected++
			return false
		}
		eligible = append(eligible, j)
	}
	fv.scratchNodes = eligible
	pcie := topology.LinkPCIe.Bandwidth()
	totalFree := sumFW + pcie*(float64(F*(F-1)/2)-sumPairs)
	// Pass 2: intra-node selection per hosting node, ascending node
	// order. The callback argument lives on fv: its address escapes
	// into sel, and a stack home would cost one heap allocation per
	// decision.
	for _, j := range eligible {
		nv := fv.nodes[j]
		usl := nv.slots[ci.canon]
		fv.nd = NodeDecision{
			Node:   j,
			Offset: fv.fleet.Offsets[j],
			BW:     nv.bw,
			Tbl:    nv.store.ensureTable(usl, workers),
			Order:  canon.remap(usl.patternFP, ci, usl.u.Order()),
			PreservedShift: totalFree - nv.bw.FreeWeight() -
				float64(k)*pcie*float64(F-nv.bw.UsableCount()),
		}
		sel(&fv.nd)
	}
	fv.stats.TableServed++
	return true
}

// Usable returns a copy of the stream's tracked usable mask — what
// SelectNodes checks a decision's mask against. A nil view set reports
// nil.
func (fv *FleetViews) Usable() graph.Bitset {
	if fv == nil {
		return nil
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	return fv.usable.Clone()
}

// Stats returns a snapshot of the fleet view set's counters, in the
// flat view set's terms: TableServed counts the decisions SelectNodes
// answered — every one table-served by construction — and Rejected
// those it declined. A nil view set reports zeros.
func (fv *FleetViews) Stats() ViewStats {
	if fv == nil {
		return ViewStats{}
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	return fv.stats
}
