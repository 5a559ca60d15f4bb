package matchcache

import (
	"sync"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// ViewStats is a snapshot of a view set's counters.
type ViewStats struct {
	// TableServed counts decisions answered by SelectLive: liveness
	// read off the stream's usable mask, scores from the shape's
	// precomputed score table plus O(k) delta arithmetic — zero
	// searches, zero universe scans, zero dynamic score.Scorer
	// evaluations.
	TableServed uint64
	// Rejected counts decisions SelectLive declined (incomplete
	// universe, a binding candidate cap, or an availability stream out
	// of sync — which only a mis-published delta causes); each one cost
	// the policy a fresh search.
	Rejected uint64
}

// Views serves table-served decisions over one availability-state
// stream: it tracks the stream in one match.BandwidthAccounting — the
// usable mask (free AND healthy) and the Eq. 3 sums — and hands it to a
// policy together with the shape's score table. Machine graphs are
// complete, so the usable mask alone decides liveness: a shape's GPU
// set is live exactly when its GPUs are all usable. A decision needs no
// per-shape candidate index, runs no search and no O(|universe|) scan
// (pinned by the match.Searches and match.Filters counters), and a
// delta costs O(n) arithmetic on the accounting however many shapes
// the stream serves.
//
// A Views is bound to one availability stream, and there is one stream
// per mapa.System (whose tenant handles all decide through it) or per
// sched.Engine run: the publisher calls Allocate/Release with exactly
// the GPU-set deltas it applies to its availability mask. SelectLive
// cross-checks the request's usable mask against the tracked stream
// and declines to serve on any mismatch, so a mis-published stream
// degrades to a fresh search instead of corrupting decisions; a delta
// that contradicts the tracked masks (allocating a busy GPU, releasing
// a free one, a repeated health event, an unknown GPU) panics. The
// shared Store stays stream-agnostic — engines comparing policies on
// one topology share universes while each keeps its own view set.
//
// Incomplete (capacity-overflowed) universes are never served, nor is a
// decision whose candidate cap binds: the capped candidates are a
// prefix of the search's emission order, which the table does not
// keep, so the search decides it.
//
// Views is safe for concurrent use.
type Views struct {
	mu    sync.Mutex
	store *Store
	// slots memoizes the store's complete universe slot per canonical
	// shape served on this stream.
	slots map[string]*universeSlot
	stats ViewStats
	// bw is the stream's state: the usable mask and the Eq. 3
	// accounting read by every shape's table-served selection.
	bw *match.BandwidthAccounting
}

// NewViews returns a view set over the store's universes, tracking a
// fresh availability stream that starts with the whole machine free.
func (s *Store) NewViews() *Views {
	return &Views{
		store: s,
		slots: make(map[string]*universeSlot),
		bw:    match.NewBandwidthAccounting(s.top.Graph, s.top.Graph.VertexBitset(), graph.Capacity(s.top.Graph)),
	}
}

// Bound reports whether the view set serves exactly this topology
// value; policies bypass unbound view sets, mirroring Store.Bound.
func (v *Views) Bound(top *topology.Topology) bool {
	return v != nil && v.store.Bound(top)
}

// Allocate publishes an allocation delta: the given GPUs left the free
// set. Nil view sets ignore the call, so publishers need no nil checks.
func (v *Views) Allocate(gpus []int) { v.apply(gpus, (*match.BandwidthAccounting).Allocate) }

// Release publishes a release delta: the given GPUs returned to the
// free set. Nil view sets ignore the call.
func (v *Views) Release(gpus []int) { v.apply(gpus, (*match.BandwidthAccounting).Release) }

// MarkUnhealthy publishes a health delta: the given GPUs failed. They
// keep their free/allocated state — unhealthy GPUs stay visible but
// unallocatable. Nil view sets ignore the call.
func (v *Views) MarkUnhealthy(gpus []int) {
	v.apply(gpus, (*match.BandwidthAccounting).MarkUnhealthy)
}

// RestoreHealth publishes a recovery delta: the given GPUs are healthy
// again, and those that are also free rejoin the usable set. Nil view
// sets ignore the call.
func (v *Views) RestoreHealth(gpus []int) {
	v.apply(gpus, (*match.BandwidthAccounting).RestoreHealth)
}

// apply runs one delta on the stream's accounting under the view lock.
func (v *Views) apply(gpus []int, op func(*match.BandwidthAccounting, []int)) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	op(v.bw, gpus)
}

// UpdateEdge publishes a link-degradation delta: edge (u,g) of the
// machine graph now has weight w. Liveness is untouched — hardware
// graphs are complete, so a weight change never invalidates an
// embedding — only the stream's Eq. 3 bandwidth accounting absorbs the
// weight difference. The caller
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

// slot returns the canonical shape's universe slot, building the
// universe on first sight under the view lock. ok is false when the
// universe overflowed its capacity.
func (v *Views) slot(ci *canonInfo, pattern *graph.Graph, workers int) (*universeSlot, bool) {
	usl, seen := v.slots[ci.canon]
	if !seen {
		usl = v.store.universe(ci, pattern, workers)
		if !usl.u.Complete() {
			return nil, false
		}
		v.slots[ci.canon] = usl
	}
	return usl, true
}

// capped reports whether a candidate cap truncates u's live embeddings
// on a stream with `usable` usable GPUs: machine graphs are complete,
// so C(usable, k) sets are live, each holding Perms() embeddings.
func capped(u *match.Universe, usable, maxCandidates int) bool {
	if maxCandidates <= 0 || u.Len() <= maxCandidates {
		return false
	}
	return match.Binomial(usable, len(u.Order())) > maxCandidates/u.Perms()
}

// SelectLive serves a decision straight off the stream's state and the
// shape's precomputed score table: sel runs under the view lock with
// the stream's accounting (its usable mask decides liveness), the
// shape's score table, the order remap for isomorphic builds (nil when
// the request shape is structurally identical), and whether the
// candidate cap truncates the live embeddings — everything a policy
// needs to run its selection as table lookups plus O(k) arithmetic.
// The shape's universe and table are built on demand, so a shape first
// requested mid-stream serves from its first decision on. A served
// decision counts as TableServed.
//
// SelectLive returns false without invoking sel, counting a Rejected
// (a nil view set declines too, and counts nothing), when it cannot
// answer soundly and the caller must search instead:
//
//   - usable, the mask the decision is made on, differs from the
//     tracked usable set (free AND healthy);
//   - the shape's universe overflowed the store capacity;
//   - the candidate cap truncates the live embeddings: the capped
//     candidates are the search's emission-order prefix, and the
//     search that streams it decides exactly as a capped table would.
func (v *Views) SelectLive(pattern *graph.Graph, usable graph.Bitset, maxCandidates, workers int, sel func(bw *match.BandwidthAccounting, tbl *score.Table, order []int)) bool {
	if v == nil {
		return false
	}
	ci := canon.info(pattern)
	v.mu.Lock()
	defer v.mu.Unlock()
	// Mutual subset = equal membership; a mask cut from an availability
	// graph is shorter when the highest-numbered GPUs are busy.
	if tracked := v.bw.Usable(); !usable.SubsetOf(tracked) || !tracked.SubsetOf(usable) {
		v.stats.Rejected++
		return false
	}
	usl, ok := v.slot(ci, pattern, workers)
	if !ok || capped(usl.u, v.bw.UsableCount(), maxCandidates) {
		v.stats.Rejected++
		return false
	}
	tbl := v.store.ensureTable(usl, workers)
	order := canon.remap(usl.patternFP, ci, usl.u.Order())
	v.stats.TableServed++
	sel(v.bw, tbl, order)
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
	return v.bw.Usable().Clone()
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
