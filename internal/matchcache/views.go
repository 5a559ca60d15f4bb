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
	// Served counts miss decisions answered from a delta-maintained
	// live candidate list — zero full-universe scans and zero searches.
	// Rejected counts decisions the view layer declined (availability
	// stream out of sync, incomplete universe, or a cap-truncated list
	// for a structurally different build of the shape) and handed down
	// to the filter path.
	Served, Rejected uint64
	// TableServed counts the subset of Served decisions answered by the
	// table-served selection path (SelectLive): candidate scores read
	// from the shape's precomputed score table plus O(k) delta
	// arithmetic, with zero dynamic score.Scorer evaluations.
	TableServed uint64
}

// viewSlot is one canonical shape's live view, tagged with the
// structural fingerprint of the pattern its universe was built from so
// truncated candidate lists obey the same serving rule as Filter, and
// carrying its universe slot so the table path can reach the shape's
// score table.
type viewSlot struct {
	lv        *match.LiveView
	patternFP string
	usl       *universeSlot
	// scratch is the slot's reusable live-candidate index buffer,
	// refilled under the view lock by Entry; it never escapes the lock's
	// critical section.
	scratch []int
	// gen is the stream generation the view was last synced to.
	gen uint64
}

// Views is tier 0 of the match pipeline: per-shape live candidate
// views over one availability-state stream. Where tier 1 answers a
// miss by mask-filtering the idle-state universe — an O(|universe|)
// subset scan — a live view already holds the surviving candidate
// list, so steady-state decisions for warmed shapes run zero
// full-universe scans (pinned by the match.Filters counter).
//
// A Views is bound to one availability stream (one mapa.System, or one
// sched.Engine run): the publisher calls Allocate/Release with exactly
// the GPU-set deltas it applies to its availability graph. A delta
// updates only the stream's masks and its shared Eq. 3 accounting; a
// shape's view catches up when a decision next consults it
// (match.LiveView.Sync), walking the posting lists of exactly the GPUs
// whose usability changed since that shape was last consulted. A view's
// counters are a pure function of the masks, so this is state-identical
// to replaying every delta into every view, while a stream nobody
// consults costs nothing per delta and a decision pays for one shape,
// not for all of them. Entry cross-checks the request's free mask
// against the tracked stream and declines to serve on any mismatch, so
// a mis-published stream degrades to the filter path instead of
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
// soundness rules as Universe.Filter and Store.FilteredEntry.
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
	// inside each slot's view. nil when the store was created with
	// score tables disabled (nothing would read it).
	bw *match.BandwidthAccounting
}

// NewViews returns a live-view set over the store's universes,
// tracking a fresh availability stream that starts with the whole
// machine free.
func (s *Store) NewViews() *Views {
	free := s.top.Graph.VertexBitset()
	v := &Views{
		store:     s,
		free:      free,
		unhealthy: graph.NewBitset(graph.Capacity(s.top.Graph)),
		usable:    free.Clone(),
		slots:     make(map[string]*viewSlot),
	}
	if s.scoreTablesEnabled() {
		v.bw = match.NewBandwidthAccounting(s.top.Graph, free, graph.Capacity(s.top.Graph))
	}
	return v
}

// Bound reports whether the view set serves exactly this topology
// value; policies bypass unbound view sets, mirroring Cache.Bound.
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
	if v.bw != nil {
		v.bw.Allocate(gpus)
	}
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
	if v.bw != nil {
		v.bw.Release(gpus)
	}
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
	if v.bw != nil {
		v.bw.MarkUnhealthy(gpus)
	}
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
	if v.bw != nil {
		v.bw.RestoreHealth(gpus)
	}
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
	if v.bw != nil {
		v.bw.UpdateEdge(u, g, w)
	}
}

// Entry serves the candidate entry for (pattern, avail) from the
// shape's live view: byte-identical to Store.FilteredEntry — and so to
// a fresh sequential search on avail — but derived without scanning
// the universe. The shape's view (and, on first sight, its universe)
// is built on demand, so a shape first requested mid-stream still
// serves correctly from its next decision on.
//
// ok is false when the view layer cannot answer soundly — avail's free
// mask does not match the tracked stream, the universe overflowed its
// capacity, or the candidate cap truncated the list for a structurally
// different build of the shape — and the caller falls back to the
// filter path.
func (v *Views) Entry(pattern, avail *graph.Graph, maxCandidates, workers int) (ent *Entry, order []int, ok bool) {
	if v == nil {
		return nil, nil, false
	}
	ci := canon.info(pattern)
	mask := avail.VertexBitsetView()
	v.mu.Lock()
	defer v.mu.Unlock()
	reject := func() (*Entry, []int, bool) {
		v.stats.Rejected++
		return nil, nil, false
	}
	// Mutual subset = equal membership; the masks may differ in word
	// length when the highest-numbered GPUs are busy. The request mask
	// is compared against the usable set (free AND healthy): the
	// publisher's availability graph excludes unhealthy GPUs, so in
	// degraded mode the usable set is exactly what a decision sees.
	if !mask.SubsetOf(v.usable) || !v.usable.SubsetOf(mask) {
		return reject()
	}
	sl, ok2 := v.ensureSlot(ci, pattern, workers)
	if !ok2 {
		return reject()
	}
	idx, truncated := sl.lv.AppendLive(sl.scratch[:0], maxCandidates)
	sl.scratch = idx
	if truncated && sl.patternFP != ci.exact {
		return reject()
	}
	u := sl.lv.Universe()
	ms := make([]match.Match, len(idx))
	keys := make([]string, len(idx))
	for j, i := range idx {
		ms[j] = u.Match(i)
		keys[j] = u.Key(i)
	}
	ent = NewEntry(ms, keys)
	ent.patternFP = sl.patternFP
	if truncated {
		ent.MarkTruncated()
	}
	order = canon.remap(sl.patternFP, ci, u.Order())
	v.stats.Served++
	return ent, order, true
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
// precomputed score table, without materializing a candidate entry: sel
// runs under the view lock with the delta-maintained live view, the
// stream's shared Eq. 3 bandwidth accounting (current for the tracked
// state), the shape's score table, the order remap for isomorphic
// builds (nil when the request shape is structurally identical), and
// whether the candidate cap truncates the live set — everything a
// policy needs to run its selection as table lookups plus O(k)
// arithmetic.
//
// SelectLive returns false — without invoking sel, and without counting
// a rejection, since the caller falls through to Entry which applies
// (and counts) the same rules — when the view layer cannot answer:
// score tables disabled, availability stream out of sync, incomplete
// universe, or a truncating cap for a structurally different build of
// the shape (a foreign enumeration-order prefix, the same soundness
// rule as Entry and Filter). On true, the decision is counted as
// Served and TableServed.
func (v *Views) SelectLive(pattern, avail *graph.Graph, maxCandidates, workers int, sel func(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, order []int, truncated bool)) bool {
	if v == nil || v.bw == nil || !v.store.scoreTablesEnabled() {
		return false
	}
	ci := canon.info(pattern)
	mask := avail.VertexBitsetView()
	v.mu.Lock()
	defer v.mu.Unlock()
	if !mask.SubsetOf(v.usable) || !v.usable.SubsetOf(mask) {
		return false
	}
	sl, ok := v.ensureSlot(ci, pattern, workers)
	if !ok {
		return false
	}
	truncated := maxCandidates > 0 && sl.lv.Len() > maxCandidates
	if truncated && sl.patternFP != ci.exact {
		return false
	}
	tbl := v.store.ensureTable(sl.usl, workers)
	if tbl == nil {
		return false
	}
	order := canon.remap(sl.patternFP, ci, sl.lv.Universe().Order())
	v.stats.Served++
	v.stats.TableServed++
	sel(sl.lv, v.bw, tbl, order, truncated)
	return true
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
