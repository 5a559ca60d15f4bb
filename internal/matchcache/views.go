package matchcache

import (
	"fmt"
	"sync"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// ViewStats is a snapshot of a view set's counters.
type ViewStats struct {
	// Views counts live views materialized: one per canonical shape
	// actually served on this availability stream.
	Views int
	// TableServed counts decisions answered by SelectLive: candidates
	// read off a live view, scores from the shape's precomputed score
	// table plus O(k) delta arithmetic — zero searches, zero universe
	// scans, zero dynamic score.Scorer evaluations.
	TableServed uint64
	// Rejected counts decisions SelectLive declined (availability
	// stream out of sync, incomplete universe, or a candidate cap that
	// truncates the list for a structurally different build of the
	// shape); each one cost the policy a fresh search.
	Rejected uint64
}

// viewSlot is one canonical shape's live view, tagged with the
// structural fingerprint of the pattern its universe was built from —
// a cap-truncated candidate list is that build's enumeration-order
// prefix and is served to no other — and carrying its universe slot so
// SelectLive can reach the shape's score table.
type viewSlot struct {
	lv        *match.LiveView
	patternFP string
	usl       *universeSlot
	// gen is the stream generation the view was last synced to.
	gen uint64
}

// Views holds per-shape live candidate views over one
// availability-state stream. A live view already holds the candidates
// that survive on the current state, so decisions for resident shapes
// run no search and no O(|universe|) scan (pinned by the
// match.Searches and match.Filters counters).
//
// A Views is bound to one availability stream (one mapa.System, or one
// sched.Engine run): the publisher calls Allocate/Release with exactly
// the GPU-set deltas it applies to its availability mask. A delta
// updates only the stream's masks and its shared Eq. 3 accounting; a
// shape's view catches up when a decision next consults it
// (match.LiveView.Sync), walking the posting lists of exactly the GPUs
// whose usability changed since that shape was last consulted. A view's
// counters are a pure function of the masks, so this is state-identical
// to replaying every delta into every view, while a stream nobody
// consults costs nothing per delta and a decision pays for one shape,
// not for all of them. SelectLive cross-checks the request's usable mask
// against the tracked stream and declines to serve on any mismatch, so
// a mis-published stream degrades to a fresh search instead of
// corrupting decisions; a delta that contradicts the tracked masks
// (allocating a busy GPU, releasing a free one, a repeated health
// event) panics. The shared Store stays stream-agnostic — engines
// comparing policies on one topology share universes while each keeps
// its own view set.
//
// Views built for a shape that is first warmed mid-stream initialize
// from the current mask, not the idle machine, so late-warmed shapes
// serve correctly. Incomplete (capacity-overflowed) universes are
// never viewed, and cap-truncated candidate lists are served only to
// the exact pattern build they were enumerated for — the same
// soundness rules as Universe.Filter.
//
// Views is safe for concurrent use.
type Views struct {
	mu        sync.Mutex
	store     *Store
	free      graph.Bitset // tracked free mask, capacity = full machine
	unhealthy graph.Bitset // tracked health mask (set bit = unhealthy)
	usable    graph.Bitset // free AND healthy, maintained incrementally
	slots     map[string]*viewSlot
	stats     ViewStats
	// gen counts deltas published on the stream; a slot whose gen lags
	// syncs before it serves. walked totals the posting-list entries
	// those syncs visited.
	gen    uint64
	walked uint64

	// bw is the stream's shared Eq. 3 bandwidth accounting, maintained
	// once per delta and read by every shape's table-served selection —
	// the accounting is shape-independent, so it lives here rather than
	// inside each slot's view.
	bw *match.BandwidthAccounting
}

// NewViews returns a live-view set over the store's universes,
// tracking a fresh availability stream that starts with the whole
// machine free.
func (s *Store) NewViews() *Views {
	free := s.top.Graph.VertexBitset()
	return &Views{
		store:     s,
		free:      free,
		unhealthy: graph.NewBitset(graph.Capacity(s.top.Graph)),
		usable:    free.Clone(),
		slots:     make(map[string]*viewSlot),
		bw:        match.NewBandwidthAccounting(s.top.Graph, free, graph.Capacity(s.top.Graph)),
	}
}

// Bound reports whether the view set serves exactly this topology
// value; policies bypass unbound view sets, mirroring Store.Bound.
func (v *Views) Bound(top *topology.Topology) bool {
	return v != nil && v.store.Bound(top)
}

// Allocate publishes an allocation delta: the given GPUs left the free
// set. Nil view sets ignore the call, so publishers need no nil checks.
func (v *Views) Allocate(gpus []int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range gpus {
		if !v.free.Has(g) {
			panic(fmt.Sprintf("matchcache: Views.Allocate(%d): GPU already unavailable", g))
		}
		v.free.Unset(g)
		v.usable.Unset(g)
	}
	v.bw.Allocate(gpus)
	v.gen++
}

// Release publishes a release delta: the given GPUs returned to the
// free set. Nil view sets ignore the call.
func (v *Views) Release(gpus []int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range gpus {
		if v.free.Has(g) {
			panic(fmt.Sprintf("matchcache: Views.Release(%d): GPU already available", g))
		}
		v.free.Set(g)
		if !v.unhealthy.Has(g) {
			v.usable.Set(g)
		}
	}
	v.bw.Release(gpus)
	v.gen++
}

// MarkUnhealthy publishes a health delta: the given GPUs failed. They
// keep their free/allocated state — unhealthy GPUs stay visible but
// unallocatable. Nil view sets ignore the call.
func (v *Views) MarkUnhealthy(gpus []int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range gpus {
		if v.unhealthy.Has(g) {
			panic(fmt.Sprintf("matchcache: Views.MarkUnhealthy(%d): GPU already unhealthy", g))
		}
		v.unhealthy.Set(g)
		v.usable.Unset(g)
	}
	v.bw.MarkUnhealthy(gpus)
	v.gen++
}

// RestoreHealth publishes a recovery delta: the given GPUs are healthy
// again, and those that are also free rejoin the usable set. Nil view
// sets ignore the call.
func (v *Views) RestoreHealth(gpus []int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range gpus {
		if !v.unhealthy.Has(g) {
			panic(fmt.Sprintf("matchcache: Views.RestoreHealth(%d): GPU already healthy", g))
		}
		v.unhealthy.Unset(g)
		if v.free.Has(g) {
			v.usable.Set(g)
		}
	}
	v.bw.RestoreHealth(gpus)
	v.gen++
}

// UpdateEdge publishes a link-degradation delta: edge (u,g) of the
// machine graph now has weight w. Candidate structure is untouched —
// hardware graphs are complete, so a weight change never invalidates
// an embedding and the posting lists stand — only the stream's Eq. 3
// bandwidth accounting absorbs the weight difference. The caller
// separately repairs the store's score tables (Store.RepairEdge). Nil
// view sets ignore the call.
func (v *Views) UpdateEdge(u, g int, w float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bw.UpdateEdge(u, g, w)
}

// ensureSlot returns the canonical shape's live view slot, synced to
// the stream's current masks; on first sight it creates the slot (and
// builds the shape's universe) under the view lock. ok is false when
// the universe overflowed its capacity. Slots are unweighted: the
// stream's Eq. 3 bandwidth accounting is shape-independent and lives
// once on the Views (v.bw), not per slot.
func (v *Views) ensureSlot(ci *canonInfo, pattern *graph.Graph, workers int) (*viewSlot, bool) {
	sl, seen := v.slots[ci.canon]
	if !seen {
		usl := v.store.universe(ci, pattern, workers)
		if !usl.u.Complete() {
			return nil, false
		}
		// A shape first served mid-stream is built on the current free
		// mask; the sync below adds the current health state.
		sl = &viewSlot{
			lv:        match.NewLiveView(usl.u, v.free),
			patternFP: usl.patternFP,
			usl:       usl,
		}
		v.slots[ci.canon] = sl
		v.stats.Views++
	}
	if sl.gen != v.gen {
		v.walked += uint64(sl.lv.Sync(v.free, v.unhealthy))
		sl.gen = v.gen
	}
	return sl, true
}

// SelectLive serves a decision straight off the shape's live view and
// precomputed score table: sel runs under the view lock with the live
// view (caught up to the stream's masks), the stream's shared Eq. 3
// bandwidth accounting, the shape's score table, the order remap for
// isomorphic builds (nil when the request shape is structurally
// identical), and whether the candidate cap truncates the live set —
// everything a policy needs to run its selection as table lookups plus
// O(k) arithmetic. The shape's view (and, on first sight, its universe
// and table) is built on demand, so a shape first requested mid-stream
// serves from its first decision on. A served decision counts as
// TableServed.
//
// SelectLive returns false without invoking sel, counting a Rejected
// (a nil view set declines too, and counts nothing), when it cannot
// answer soundly and the caller must search instead:
//
//   - usable, the mask the decision is made on, differs from the
//     tracked usable set (free AND healthy);
//   - the shape's universe overflowed the store capacity;
//   - the candidate cap truncates the live set and the request is a
//     structurally different build of the shape: a truncated list is
//     the enumeration-order prefix of the build the universe was
//     enumerated for, not of this one (the same rule as
//     Universe.Filter).
func (v *Views) SelectLive(pattern *graph.Graph, usable graph.Bitset, maxCandidates, workers int, sel func(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, order []int, truncated bool)) bool {
	if v == nil {
		return false
	}
	ci := canon.info(pattern)
	v.mu.Lock()
	defer v.mu.Unlock()
	// Mutual subset = equal membership; a mask cut from an availability
	// graph is shorter when the highest-numbered GPUs are busy.
	if !usable.SubsetOf(v.usable) || !v.usable.SubsetOf(usable) {
		v.stats.Rejected++
		return false
	}
	sl, ok := v.ensureSlot(ci, pattern, workers)
	if !ok {
		v.stats.Rejected++
		return false
	}
	truncated := maxCandidates > 0 && sl.lv.Len() > maxCandidates
	if truncated && sl.patternFP != ci.exact {
		v.stats.Rejected++
		return false
	}
	tbl := v.store.ensureTable(sl.usl, workers)
	order := canon.remap(sl.patternFP, ci, sl.lv.Universe().Order())
	v.stats.TableServed++
	sel(sl.lv, v.bw, tbl, order, truncated)
	return true
}

// Usable returns a copy of the stream's tracked usable mask — free AND
// healthy, what SelectLive checks a decision's mask against. A nil view
// set reports nil.
func (v *Views) Usable() graph.Bitset {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.usable.Clone()
}

// Stats returns a snapshot of the view set's counters. A nil view set
// reports zeros.
func (v *Views) Stats() ViewStats {
	if v == nil {
		return ViewStats{}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}
