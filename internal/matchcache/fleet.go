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
// O(nodes × shapes)); FleetViews layers per-node live state on top —
// free/health masks, a node-local Eq. 3 bandwidth accounting, and
// lazy per-shape live views over the *shared* class universe — all
// maintained from the same deltas the flat pipeline publishes.
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

// fleetSlot is one (node, canonical shape) live view over the shared
// class universe, plus the class score table resolved at ensure time.
type fleetSlot struct {
	lv        *match.LiveView
	patternFP string
	usl       *universeSlot
	tbl       *score.Table
}

// fleetNode is one node's live state, all in node-local vertex IDs.
type fleetNode struct {
	class     int
	off       int
	size      int
	free      graph.Bitset
	unhealthy graph.Bitset
	usableCnt int // the node's members of FleetViews.usable
	bw        *match.BandwidthAccounting
	slots     map[string]*fleetSlot
}

// FleetViews is the live layer of the fleet pipeline: per-node live
// state over one availability-state stream, fed the same global-ID
// GPU-set deltas a flat Views receives and split internally into
// node-local deltas. It is bound to one stream, like Views, and is
// safe for concurrent use. Like Views, it also tracks the stream's
// fleet-wide usable mask, and SelectNodes declines a decision made on
// any other mask — a stream that stopped receiving deltas (a closed
// tenant's) never serves from stale node state.
type FleetViews struct {
	mu      sync.Mutex
	fs      *FleetStore
	nodes   []*fleetNode
	offsets []int        // ascending node offsets, for locate
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
	fv := &FleetViews{
		fs:      fs,
		nodes:   make([]*fleetNode, fs.fleet.NumNodes()),
		offsets: fs.fleet.Offsets,
		usable:  graph.NewBitset(fs.fleet.NumGPUs()),
		maxNode: fs.fleet.MaxNodeGPUs(),
	}
	fv.usable.Fill(fs.fleet.NumGPUs())
	for j := range fv.nodes {
		c := fs.fleet.Class(j)
		cap := graph.Capacity(c.Graph)
		free := c.Graph.VertexBitset()
		fv.nodes[j] = &fleetNode{
			class:     fs.fleet.NodeClass[j],
			off:       fs.fleet.Offset(j),
			size:      c.NumGPUs(),
			free:      free,
			unhealthy: graph.NewBitset(cap),
			usableCnt: c.NumGPUs(),
			bw:        match.NewBandwidthAccounting(c.Graph, free, cap),
			slots:     make(map[string]*fleetSlot),
		}
	}
	return fv
}

// locate resolves a global GPU ID to its node and node-local ID.
// Offsets ascend, so this is one binary search; out-of-range IDs
// return a nil node (ignored, mirroring the flat layers' tolerance of
// out-of-capacity vertices).
func (fv *FleetViews) locate(g int) (*fleetNode, int) {
	if g < 0 {
		return nil, 0
	}
	j := sort.SearchInts(fv.offsets, g+1) - 1
	if j < 0 {
		return nil, 0
	}
	nd := fv.nodes[j]
	local := g - nd.off
	if local >= nd.size {
		return nil, 0
	}
	return nd, local
}

// Allocate publishes an allocation delta in global GPU IDs: each GPU
// leaves its node's free set, and the node's bandwidth accounting and
// live views absorb the node-local delta. Nil view sets ignore the
// call.
func (fv *FleetViews) Allocate(gpus []int) {
	if fv == nil {
		return
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for _, g := range gpus {
		nd, local := fv.locate(g)
		if nd == nil {
			continue
		}
		nd.free.Unset(local)
		if fv.usable.Has(g) {
			fv.usable.Unset(g)
			nd.usableCnt--
		}
		fv.one[0] = local
		nd.bw.Allocate(fv.one[:])
		for _, sl := range nd.slots {
			sl.lv.Allocate(fv.one[:])
		}
	}
}

// Release publishes a release delta in global GPU IDs. Nil view sets
// ignore the call.
func (fv *FleetViews) Release(gpus []int) {
	if fv == nil {
		return
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for _, g := range gpus {
		nd, local := fv.locate(g)
		if nd == nil {
			continue
		}
		nd.free.Set(local)
		if !nd.unhealthy.Has(local) && !fv.usable.Has(g) {
			fv.usable.Set(g)
			nd.usableCnt++
		}
		fv.one[0] = local
		nd.bw.Release(fv.one[:])
		for _, sl := range nd.slots {
			sl.lv.Release(fv.one[:])
		}
	}
}

// MarkUnhealthy publishes a health delta in global GPU IDs: the GPUs
// keep their free/allocated state but leave the usable set.
// Nil view sets ignore the call.
func (fv *FleetViews) MarkUnhealthy(gpus []int) {
	if fv == nil {
		return
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for _, g := range gpus {
		nd, local := fv.locate(g)
		if nd == nil {
			continue
		}
		nd.unhealthy.Set(local)
		if fv.usable.Has(g) {
			fv.usable.Unset(g)
			nd.usableCnt--
		}
		fv.one[0] = local
		nd.bw.MarkUnhealthy(fv.one[:])
		for _, sl := range nd.slots {
			sl.lv.MarkUnhealthy(fv.one[:])
		}
	}
}

// RestoreHealth publishes a recovery delta in global GPU IDs. Nil view
// sets ignore the call.
func (fv *FleetViews) RestoreHealth(gpus []int) {
	if fv == nil {
		return
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for _, g := range gpus {
		nd, local := fv.locate(g)
		if nd == nil {
			continue
		}
		nd.unhealthy.Unset(local)
		if nd.free.Has(local) && !fv.usable.Has(g) {
			fv.usable.Set(g)
			nd.usableCnt++
		}
		fv.one[0] = local
		nd.bw.RestoreHealth(fv.one[:])
		for _, sl := range nd.slots {
			sl.lv.RestoreHealth(fv.one[:])
		}
	}
}

// NodeDecision hands one node's intra-node selection context to a
// SelectNodes callback: the node's live view and Eq. 3 accounting
// (node-local IDs), the shared class score table, the order remap
// into the request pattern's vertex IDs (nil when structurally
// identical to the template build), and the exact constant translating
// node-local PreservedBW to the fleet-global value. Offset translates
// node-local GPU IDs to global ones.
type NodeDecision struct {
	Node, Offset   int
	LV             *match.LiveView
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
// per node that holds at least one live candidate, in ascending node
// order (the documented deterministic node-ordering rule: node-major
// GPU IDs make ascending node order coincide with the flat
// lexicographic GPU-set tie-break). The caller compares node winners
// on exact global scores and resolves ties to the first node seen.
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
//   - a candidate cap would truncate some node's live list (class
//     universes are tiny, so a binding cap means a misconfigured
//     caller; declining keeps the flat path's soundness rule).
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
	// Pass 1: inter-node pruning on the quotient-level aggregates, slot
	// and table residency for the surviving nodes, and the fleet-wide
	// Eq. 3 terms. All sums are over integral link bandwidths, so every
	// float value below is exact.
	eligible := fv.scratchNodes[:0]
	F := 0
	sumFW := 0.0
	sumPairs := 0.0
	for j, nd := range fv.nodes {
		f := nd.usableCnt
		F += f
		sumFW += nd.bw.FreeWeight()
		sumPairs += float64(f * (f - 1) / 2)
		if f < k {
			continue
		}
		sl, ok := fv.ensureSlot(nd, ci, pattern, workers)
		if !ok {
			fv.scratchNodes = eligible
			fv.stats.Rejected++
			return false
		}
		if maxCandidates > 0 && sl.lv.Len() > maxCandidates {
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
		n := fv.nodes[j]
		sl := n.slots[ci.canon]
		if sl.lv.Len() == 0 {
			continue
		}
		fv.nd = NodeDecision{
			Node:   j,
			Offset: n.off,
			LV:     sl.lv,
			BW:     n.bw,
			Tbl:    sl.tbl,
			Order:  canon.remap(sl.patternFP, ci, sl.lv.Universe().Order()),
			PreservedShift: totalFree - n.bw.FreeWeight() -
				float64(k)*pcie*float64(F-n.usableCnt),
		}
		sel(&fv.nd)
	}
	fv.stats.TableServed++
	return true
}

// ensureSlot returns the node's live-view slot for the canonical
// shape, creating it — and, on first sight fleet-wide, building the
// class universe and score table — under the view lock. ok is false
// when the universe is incomplete. A slot
// created mid-stream initializes from the node's current free mask and
// inherits its health state, like Views.ensureSlot.
func (fv *FleetViews) ensureSlot(nd *fleetNode, ci *canonInfo, pattern *graph.Graph, workers int) (*fleetSlot, bool) {
	sl, seen := nd.slots[ci.canon]
	if seen {
		return sl, true
	}
	st := fv.fs.stores[nd.class]
	usl := st.universe(ci, pattern, workers)
	if !usl.u.Complete() {
		return nil, false
	}
	tbl := st.ensureTable(usl, workers)
	lv := match.NewLiveView(usl.u, nd.free)
	if nd.unhealthy.Any() {
		lv.MarkUnhealthy(nd.unhealthy.Members())
	}
	sl = &fleetSlot{lv: lv, patternFP: usl.patternFP, usl: usl, tbl: tbl}
	nd.slots[ci.canon] = sl
	fv.stats.Views++
	return sl, true
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
// flat view set's terms: Views counts the per-node live views
// materialized (lazily: only nodes that served a shape pay one),
// TableServed the decisions SelectNodes answered — every one
// table-served by construction — and Rejected those it declined. A nil
// view set reports zeros.
func (fv *FleetViews) Stats() ViewStats {
	if fv == nil {
		return ViewStats{}
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	return fv.stats
}
