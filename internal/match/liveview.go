package match

import (
	"fmt"
	"math/bits"

	"mapa/internal/graph"
)

// LiveView is a delta-maintained candidate view over one complete
// idle-state Universe: the set of embeddings valid on the *current*
// availability state, updated incrementally as GPUs are allocated and
// released instead of rescanned per decision.
//
// The structure inverts the universe over its distinct vertex sets
// (Universe.SetOf): an embedding is live exactly when its set lies in
// the usable set, so liveness is tracked once per set, however many
// embeddings share it. For every data vertex the view holds a posting
// list of the set indices containing it, and for every set a counter of
// how many of its vertices are currently unusable. Allocating k GPUs
// walks exactly k posting lists incrementing counters (and vice versa
// for a release), so the maintenance cost scales with the
// allocate/release delta — the sum of the touched posting lists — not
// with |universe| the way Universe.Filter does. A set is live exactly
// when its blocked counter is zero; live set indices are mirrored in a
// bitset (LiveSets) that selection walks directly, and an embedding is
// live exactly when its set is (Live).
//
// Health is a second mask layered on the same machinery: a GPU marked
// unhealthy (MarkUnhealthy) stays visible in the view but becomes
// unusable — a topology delta, processed as one posting-list walk just
// like an allocation delta — and RestoreHealth reverses it. A vertex
// is usable exactly when it is free AND healthy, and the blocked
// counters track unusable vertices, so allocation deltas on an
// unhealthy GPU (allocating it is impossible, but a lease taken before
// the failure may still release it) adjust only the free mask, never
// the counters: the two masks commute and every interleaving of
// allocation and health events lands in the same state.
//
// Order is preserved by construction: Candidates walks the embeddings
// in ascending index — the universe's enumeration order — keeping those
// whose set is live, so it is byte-identical to Universe.Filter on the
// equivalent mask, which is itself byte-identical to a fresh sequential
// search on the induced subgraph.
//
// A LiveView tracks one availability-state stream and is not safe for
// concurrent use; callers (matchcache.Views) serialize access.
type LiveView struct {
	u        *Universe
	postings [][]int32    // data vertex ID -> ascending set indices containing it
	blocked  []int32      // set index -> count of its vertices currently unusable
	avail    graph.Bitset // free set (allocation state)
	healthy  graph.Bitset // health mask (topology state); usable = avail AND healthy
	live     graph.Bitset // set indices with blocked == 0
	liveLen  int          // live embeddings: the summed SetLen of the live sets
}

// wedge is one weighted adjacency entry of the bandwidth accounting.
type wedge struct {
	to int32
	w  float64
}

// BandwidthAccounting is the state side of the Eq. 3 delta
// decomposition for one availability stream: the total edge weight of
// the current usable set and, per GPU, the weight of its edges into
// the usable set, maintained incrementally on the same
// allocate/release GPU-set deltas the posting lists consume. It
// depends only on the machine graph and the usable set — not on any
// shape — so one instance can price candidates for every pattern
// tracked on the stream. All link bandwidths are integral, so the
// incrementally maintained sums are exact and Allocate/Release are
// exact inverses. Not safe for concurrent use; callers serialize
// access.
//
// Like LiveView, the accounting layers a health mask over the free
// mask: a vertex contributes to the sums exactly when it is free AND
// healthy, so MarkUnhealthy on a free GPU applies the same O(degree)
// delta an allocation would, and the Eq. 3 terms price exactly the
// bandwidth a new job could still draw on. UpdateEdge additionally
// absorbs link-degradation events — a weight-only topology delta —
// in O(degree), keeping the sums byte-identical to an accounting
// rebuilt from the mutated graph.
type BandwidthAccounting struct {
	totalFree float64      // summed weight of edges with both endpoints usable
	incident  []float64    // vertex -> summed weight of its edges into the usable set
	wadj      [][]wedge    // vertex -> weighted adjacency, for delta updates
	avail     graph.Bitset // free set
	healthy   graph.Bitset // health mask; usable = avail AND healthy
}

// NewBandwidthAccounting sweeps data's edges once and returns the
// accounting for the given initial free set. Vertices at or beyond
// capacity are ignored (mirroring LiveView's posting lists); capacity
// is normally graph.Capacity(data) — the universes' convention.
func NewBandwidthAccounting(data *graph.Graph, free graph.Bitset, capacity int) *BandwidthAccounting {
	a := &BandwidthAccounting{
		incident: make([]float64, capacity),
		wadj:     make([][]wedge, capacity),
		avail:    graph.NewBitset(capacity),
		healthy:  graph.NewBitset(capacity),
	}
	a.healthy.Fill(capacity)
	for v := 0; v < capacity; v++ {
		if free.Has(v) {
			a.avail.Set(v)
		}
	}
	for _, e := range data.Edges() {
		if e.U >= capacity || e.V >= capacity {
			continue
		}
		a.wadj[e.U] = append(a.wadj[e.U], wedge{to: int32(e.V), w: e.Weight})
		a.wadj[e.V] = append(a.wadj[e.V], wedge{to: int32(e.U), w: e.Weight})
		if a.avail.Has(e.U) {
			a.incident[e.V] += e.Weight
		}
		if a.avail.Has(e.V) {
			a.incident[e.U] += e.Weight
		}
		if a.avail.Has(e.U) && a.avail.Has(e.V) {
			a.totalFree += e.Weight
		}
	}
	return a
}

// Allocate marks the given vertices unavailable. Each vertex g leaving
// the free set subtracts its incident-to-free weight from the total
// (incident[g] never includes g itself — graphs have no self-loops)
// and removes g from its neighbors' incident sums. Out-of-capacity
// vertices are ignored; allocating an already-unavailable vertex
// panics, mirroring LiveView. An unhealthy vertex already left the sums
// when it failed, so only its free bit changes.
func (a *BandwidthAccounting) Allocate(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(a.wadj) {
			continue
		}
		if !a.avail.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.Allocate(%d): vertex already unavailable", g))
		}
		a.avail.Unset(g)
		if a.healthy.Has(g) {
			a.dropUsable(g)
		}
	}
}

// dropUsable removes a vertex leaving the usable set from the sums:
// incident[g] never includes g itself — graphs have no self-loops —
// and every vertex's incident sum loses g's edge weight.
func (a *BandwidthAccounting) dropUsable(g int) {
	a.totalFree -= a.incident[g]
	for _, e := range a.wadj[g] {
		a.incident[e.to] -= e.w
	}
}

// addUsable is the exact inverse of dropUsable: incident[g] was
// maintained all along, so adding it back restores the total bit for
// bit before the neighbors regain g.
func (a *BandwidthAccounting) addUsable(g int) {
	a.totalFree += a.incident[g]
	for _, e := range a.wadj[g] {
		a.incident[e.to] += e.w
	}
}

// Release marks the given vertices available again — the exact inverse
// of Allocate: incident[g] was maintained all along, so adding it back
// restores the total bit for bit before the neighbors regain g. A
// released-but-unhealthy vertex rejoins only the free mask, not the
// sums.
func (a *BandwidthAccounting) Release(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(a.wadj) {
			continue
		}
		if a.avail.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.Release(%d): vertex already available", g))
		}
		a.avail.Set(g)
		if a.healthy.Has(g) {
			a.addUsable(g)
		}
	}
}

// MarkUnhealthy marks the given vertices unhealthy: each one leaves
// the usable set (and the Eq. 3 sums, if it was free) but keeps its
// free/allocated state, so a later Release of a lease holding it, or a
// RestoreHealth, lands in the exact state a rebuild would produce.
// Out-of-capacity vertices are ignored; marking an already-unhealthy
// vertex panics — a diverged health stream would corrupt the sums.
func (a *BandwidthAccounting) MarkUnhealthy(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(a.wadj) {
			continue
		}
		if !a.healthy.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.MarkUnhealthy(%d): vertex already unhealthy", g))
		}
		a.healthy.Unset(g)
		if a.avail.Has(g) {
			a.dropUsable(g)
		}
	}
}

// RestoreHealth marks the given vertices healthy again — the exact
// inverse of MarkUnhealthy. Restoring an already-healthy vertex
// panics, like MarkUnhealthy.
func (a *BandwidthAccounting) RestoreHealth(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(a.wadj) {
			continue
		}
		if a.healthy.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.RestoreHealth(%d): vertex already healthy", g))
		}
		a.healthy.Set(g)
		if a.avail.Has(g) {
			a.addUsable(g)
		}
	}
}

// UpdateEdge rewrites the weight of edge (u,v) — a link-degradation
// (or recovery) topology delta. The adjacency entries mutate
// unconditionally; the incident sums and total absorb the weight
// difference gated on each endpoint's usability, exactly as a fresh
// accounting over the mutated graph would have counted the edge.
// O(degree(u) + degree(v)). Updating an edge the accounting's graph
// does not carry panics — the publisher's topology has diverged.
func (a *BandwidthAccounting) UpdateEdge(u, v int, w float64) {
	if u < 0 || v < 0 || u >= len(a.wadj) || v >= len(a.wadj) {
		panic(fmt.Sprintf("match: BandwidthAccounting.UpdateEdge(%d,%d): vertex out of range", u, v))
	}
	var old float64
	found := false
	for i := range a.wadj[u] {
		if int(a.wadj[u][i].to) == v {
			old = a.wadj[u][i].w
			a.wadj[u][i].w = w
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("match: BandwidthAccounting.UpdateEdge(%d,%d): edge not tracked", u, v))
	}
	for i := range a.wadj[v] {
		if int(a.wadj[v][i].to) == u {
			a.wadj[v][i].w = w
			break
		}
	}
	delta := w - old
	uUsable := a.avail.Has(u) && a.healthy.Has(u)
	vUsable := a.avail.Has(v) && a.healthy.Has(v)
	if uUsable {
		a.incident[v] += delta
	}
	if vUsable {
		a.incident[u] += delta
	}
	if uUsable && vUsable {
		a.totalFree += delta
	}
}

// Healthy reports whether vertex g is currently healthy.
// Out-of-capacity vertices report true (no embedding contains them).
func (a *BandwidthAccounting) Healthy(g int) bool {
	if g < 0 || g >= len(a.wadj) {
		return true
	}
	return a.healthy.Has(g)
}

// FreeWeight returns the total edge weight of the tracked usable set —
// the availability graph's TotalWeight (the free set induced over
// healthy GPUs), maintained incrementally.
func (a *BandwidthAccounting) FreeWeight() float64 { return a.totalFree }

// IncidentView returns the per-vertex incident-to-usable weight array,
// indexed by vertex ID. READ-ONLY, and only valid until the next
// delta; selection loops evaluating Eq. 3 for many candidates index it
// directly instead of paying a method call per candidate (summing
// entries in GPU-set order and computing totalFree − drop + internal
// reproduces PreservedBW bit for bit — all weights are integral).
func (a *BandwidthAccounting) IncidentView() []float64 { return a.incident }

// FreeIncidentWeight returns the summed weight of GPU g's edges into
// the tracked usable set. Out-of-capacity vertices report zero.
func (a *BandwidthAccounting) FreeIncidentWeight(g int) float64 {
	if g < 0 || g >= len(a.incident) {
		return 0
	}
	return a.incident[g]
}

// PreservedBW evaluates Eq. 3 for allocating the given GPU set out of
// the tracked free state: the candidate's static internal-edge weight
// plus the delta-maintained state terms, O(k) arithmetic in total. The
// GPU set must lie inside the free set (candidates served from a live
// set always do).
func (a *BandwidthAccounting) PreservedBW(internal float64, gpus []int) float64 {
	var drop float64
	for _, g := range gpus {
		drop += a.incident[g]
	}
	return a.totalFree - drop + internal
}

// NewLiveView builds the live view of u on an initial availability
// state: free holds the currently available data vertices (vertices
// beyond the universe's capacity are irrelevant — no embedding can
// contain them). Building costs one pass over the universe's distinct
// vertex sets; afterwards maintenance is delta-proportional. The
// universe must be complete — an incomplete universe cannot soundly
// answer any availability state — and NewLiveView panics otherwise,
// mirroring Filter.
func NewLiveView(u *Universe, free graph.Bitset) *LiveView {
	if !u.Complete() {
		panic("match: LiveView over an incomplete universe")
	}
	lv := &LiveView{
		u:        u,
		postings: make([][]int32, u.Capacity()),
		blocked:  make([]int32, u.Sets()),
		avail:    graph.NewBitset(u.Capacity()),
		healthy:  graph.NewBitset(u.Capacity()),
		live:     graph.NewBitset(u.Sets()),
	}
	lv.healthy.Fill(u.Capacity())
	for v := 0; v < u.Capacity(); v++ {
		if free.Has(v) {
			lv.avail.Set(v)
		}
	}
	for s := 0; s < u.Sets(); s++ {
		u.Set(u.SetFirst(s)).ForEach(func(v int) bool {
			lv.postings[v] = append(lv.postings[v], int32(s))
			if !lv.avail.Has(v) {
				lv.blocked[s]++
			}
			return true
		})
		if lv.blocked[s] == 0 {
			lv.live.Set(s)
			lv.liveLen += u.SetLen(s)
		}
	}
	return lv
}

// Universe returns the universe the view is maintained over.
func (lv *LiveView) Universe() *Universe { return lv.u }

// Len returns the number of currently live embeddings.
func (lv *LiveView) Len() int { return lv.liveLen }

// Available reports whether data vertex v is currently available in
// the view's tracked state.
func (lv *LiveView) Available(v int) bool { return lv.avail.Has(v) }

// Healthy reports whether data vertex v is currently healthy in the
// view's tracked state. Out-of-capacity vertices report true.
func (lv *LiveView) Healthy(v int) bool {
	if v < 0 || v >= len(lv.postings) {
		return true
	}
	return lv.healthy.Has(v)
}

// Allocate marks the given data vertices unavailable, deactivating
// exactly the sets on their posting lists. Vertices outside the
// universe's capacity are ignored (no embedding contains them).
// Allocating an already-unavailable vertex panics: it means the
// publisher's availability stream has diverged from the view's, which
// would silently corrupt the blocked counters.
func (lv *LiveView) Allocate(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(lv.postings) {
			continue
		}
		if !lv.avail.Has(g) {
			panic(fmt.Sprintf("match: LiveView.Allocate(%d): vertex already unavailable", g))
		}
		lv.avail.Unset(g)
		if lv.healthy.Has(g) {
			lv.block(g)
		}
	}
}

// Release marks the given data vertices available again, reactivating
// every set whose last blocker they were. Releasing an
// already-available vertex panics, like Allocate. An unhealthy vertex
// rejoins only the free mask — its sets stay blocked until
// RestoreHealth.
func (lv *LiveView) Release(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(lv.postings) {
			continue
		}
		if lv.avail.Has(g) {
			panic(fmt.Sprintf("match: LiveView.Release(%d): vertex already available", g))
		}
		lv.avail.Set(g)
		if lv.healthy.Has(g) {
			lv.unblock(g)
		}
	}
}

// MarkUnhealthy marks the given data vertices unhealthy — a topology
// delta, deactivating exactly the sets on their posting lists when
// the vertex was free (an allocated vertex's sets are already
// blocked). Vertices outside the universe's capacity are
// ignored; marking an already-unhealthy vertex panics, mirroring
// Allocate's stream-divergence check.
func (lv *LiveView) MarkUnhealthy(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(lv.postings) {
			continue
		}
		if !lv.healthy.Has(g) {
			panic(fmt.Sprintf("match: LiveView.MarkUnhealthy(%d): vertex already unhealthy", g))
		}
		lv.healthy.Unset(g)
		if lv.avail.Has(g) {
			lv.block(g)
		}
	}
}

// RestoreHealth marks the given data vertices healthy again — the
// exact inverse of MarkUnhealthy. Restoring an already-healthy vertex
// panics, like MarkUnhealthy.
func (lv *LiveView) RestoreHealth(gpus []int) {
	for _, g := range gpus {
		if g < 0 || g >= len(lv.postings) {
			continue
		}
		if lv.healthy.Has(g) {
			panic(fmt.Sprintf("match: LiveView.RestoreHealth(%d): vertex already healthy", g))
		}
		lv.healthy.Set(g)
		if lv.avail.Has(g) {
			lv.unblock(g)
		}
	}
}

// Sync moves the view to the availability state given as two masks —
// free (allocation state) and unhealthy (set bit = unhealthy), both
// indexed by data vertex ID — and returns the number of posting-list
// entries (set indices) it walked. The blocked counters are a pure
// function of the usable set (free AND healthy), so the view lands in
// exactly the state replaying the intervening Allocate/Release/
// MarkUnhealthy/RestoreHealth deltas one by one would have produced,
// while walking
// posting lists only for vertices whose usability differs from the
// view's: deltas that cancelled since the last Sync (an allocation
// released again, a lease released on a failed GPU) cost nothing.
// Vertices beyond the universe's capacity are ignored; missing mask
// words read as empty. Sync allocates nothing.
func (lv *LiveView) Sync(free, unhealthy graph.Bitset) (walked int) {
	capacity := len(lv.postings)
	for w := range lv.avail {
		inCap := ^uint64(0)
		if rem := capacity - w*64; rem < 64 {
			inCap = 1<<uint(rem) - 1
		}
		var f, h uint64 = 0, inCap
		if w < len(free) {
			f = free[w] & inCap
		}
		if w < len(unhealthy) {
			h &^= unhealthy[w]
		}
		was, is := lv.avail[w]&lv.healthy[w], f&h
		lv.avail[w], lv.healthy[w] = f, h
		for d := was ^ is; d != 0; d &= d - 1 {
			g := w*64 + bits.TrailingZeros64(d)
			if is&(1<<uint(g%64)) != 0 {
				lv.unblock(g)
			} else {
				lv.block(g)
			}
			walked += len(lv.postings[g])
		}
	}
	return walked
}

// block walks g's posting list for a usable→unusable transition.
func (lv *LiveView) block(g int) {
	for _, s := range lv.postings[g] {
		lv.blocked[s]++
		if lv.blocked[s] == 1 {
			lv.live.Unset(int(s))
			lv.liveLen -= int(lv.u.setLen[s])
		}
	}
}

// unblock walks g's posting list for an unusable→usable transition.
func (lv *LiveView) unblock(g int) {
	for _, s := range lv.postings[g] {
		lv.blocked[s]--
		if lv.blocked[s] == 0 {
			lv.live.Set(int(s))
			lv.liveLen += int(lv.u.setLen[s])
		}
	}
}

// Candidates returns the live embedding indices in enumeration order,
// truncated to the first max (max <= 0: unlimited); truncated reports
// whether further live embeddings exist beyond the cap. The result is
// byte-identical to Universe.Filter with the tracked availability
// mask — same indices, same order, same truncation behavior — with one
// bit probe per embedding instead of a subset test.
func (lv *LiveView) Candidates(max int) (idx []int, truncated bool) {
	n := lv.liveLen
	if max > 0 && n > max {
		n, truncated = max, true
	}
	if n == 0 {
		return nil, truncated
	}
	idx = make([]int, 0, n)
	for i := 0; len(idx) < n; i++ {
		if lv.Live(i) {
			idx = append(idx, i)
		}
	}
	return idx, truncated
}

// LiveSets returns the bitset of live vertex-set indices (see
// Universe.SetOf). READ-ONLY, and only valid until the next delta;
// selection iterates it directly to walk the live sets without closure
// dispatch.
func (lv *LiveView) LiveSets() graph.Bitset { return lv.live }

// Live reports whether embedding index i is currently live.
func (lv *LiveView) Live(i int) bool { return lv.live.Has(lv.u.SetOf(i)) }
