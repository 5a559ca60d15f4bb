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

// Fleet returns the fleet the store was built for.
func (fs *FleetStore) Fleet() *topology.Fleet { return fs.fleet }

// Bound reports whether the store serves exactly this fleet value.
func (fs *FleetStore) Bound(f *topology.Fleet) bool {
	return fs != nil && fs.fleet == f
}

// SetBuildWorkers sets the build-worker floor on every class store.
func (fs *FleetStore) SetBuildWorkers(n int) {
	for _, s := range fs.stores {
		s.SetBuildWorkers(n)
	}
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

// FleetViewStats is a snapshot of a fleet view set's counters.
type FleetViewStats struct {
	// Nodes is the fleet's node count; NodeViews counts per-node live
	// views actually materialized (lazy: only nodes that served a shape
	// pay one).
	Nodes, NodeViews int
	// Served counts decisions answered hierarchically (template path);
	// every one of them is table-served by construction. Rejected
	// counts decisions the fleet layer declined (incomplete universe or
	// a binding candidate cap) and handed to the caller's fallback.
	Served, Rejected uint64
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
	usable    graph.Bitset
	usableCnt int
	bw        *match.BandwidthAccounting
	slots     map[string]*fleetSlot
}

// FleetViews is the live layer of the fleet pipeline: per-node live
// state over one availability-state stream, fed the same global-ID
// GPU-set deltas a flat Views receives and split internally into
// node-local deltas. It is bound to one stream, like Views, and is
// safe for concurrent use.
type FleetViews struct {
	mu      sync.Mutex
	fs      *FleetStore
	nodes   []*fleetNode
	offsets []int // ascending node offsets, for locate
	stats   FleetViewStats

	one          [1]int       // reusable single-GPU delta buffer
	scratchNodes []int        // reusable eligible-node index buffer
	nd           NodeDecision // reusable callback argument (&nd escapes via sel)
}

// NewFleetViews returns a fleet view set tracking a fresh availability
// stream that starts with every node fully free and healthy.
func (fs *FleetStore) NewFleetViews() *FleetViews {
	fv := &FleetViews{
		fs:      fs,
		nodes:   make([]*fleetNode, fs.fleet.NumNodes()),
		offsets: fs.fleet.Offsets,
	}
	fv.stats.Nodes = fs.fleet.NumNodes()
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
			usable:    free.Clone(),
			usableCnt: c.NumGPUs(),
			bw:        match.NewBandwidthAccounting(c.Graph, free, cap),
			slots:     make(map[string]*fleetSlot),
		}
	}
	return fv
}

// Bound reports whether the view set serves exactly this fleet value.
func (fv *FleetViews) Bound(f *topology.Fleet) bool {
	return fv != nil && fv.fs.Bound(f)
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
		if nd.usable.Has(local) {
			nd.usable.Unset(local)
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
		if !nd.unhealthy.Has(local) && !nd.usable.Has(local) {
			nd.usable.Set(local)
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
// keep their free/allocated state but leave their node's usable set.
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
		if nd.usable.Has(local) {
			nd.usable.Unset(local)
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
		if nd.free.Has(local) && !nd.usable.Has(local) {
			nd.usable.Set(local)
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
// SelectNodes returns false — without counting a decision — when the
// fleet layer cannot answer soundly: a class universe overflowed the
// store capacity, or a candidate cap would truncate some node's live
// list (class universes are tiny, so a binding cap means a
// misconfigured caller; declining keeps the same soundness rule as the
// flat path). On true the decision counts as
// Served even when no node could host the pattern (sel ran zero
// times): the hierarchy answered "no feasible single-node placement".
func (fv *FleetViews) SelectNodes(pattern *graph.Graph, maxCandidates, workers int, sel func(nd *NodeDecision)) bool {
	if fv == nil {
		return false
	}
	ci := canon.info(pattern)
	k := pattern.NumVertices()
	fv.mu.Lock()
	defer fv.mu.Unlock()
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
		if f < k || k > nd.size {
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
	fv.stats.Served++
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
	fv.stats.NodeViews++
	return sl, true
}

// Stats returns a snapshot of the fleet view set's counters. A nil
// view set reports zeros.
func (fv *FleetViews) Stats() FleetViewStats {
	if fv == nil {
		return FleetViewStats{}
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	return fv.stats
}
