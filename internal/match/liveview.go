package match

import (
	"fmt"

	"mapa/internal/graph"
)

// BandwidthAccounting is the live state of one availability stream:
// which vertices are usable, and the state side of the Eq. 3 delta
// decomposition — the total edge weight of the usable set and, per
// vertex, the weight of its edges into the usable set — maintained
// incrementally on the allocate/release GPU-set deltas the stream
// publishes. It depends only on the machine graph and the usable set,
// not on any shape, so one instance answers every pattern tracked on
// the stream.
//
// Liveness needs no per-shape index. An embedding survives on an
// availability state exactly when its vertex set lies in the usable
// set (induced subgraphs keep every edge among surviving vertices), so
// a universe's set s is live exactly when its vertices are all in
// Usable — k bit tests. Machine graphs are complete (topology.Validate
// refuses any other), so there every k-subset of the usable vertices
// is a live set, and a shape has one exactly when UsableCount() >= k.
//
// Health is a second mask layered over the free mask: a vertex is
// usable exactly when it is free AND healthy, and only usable vertices
// contribute to the sums. MarkUnhealthy on a free GPU applies the same
// O(n) delta an allocation would; allocation deltas on an unhealthy GPU
// (a lease taken before the failure may still release it) change only
// the free mask, so the two masks commute and every interleaving of
// allocation and health events lands in the same state. UpdateEdge
// absorbs link-degradation events — a weight-only topology delta.
//
// All link bandwidths are integral, so the incrementally maintained
// sums are exact: Allocate/Release are exact inverses and every value
// is bit-identical to an accounting rebuilt from scratch. A delta that
// contradicts the tracked masks (allocating a busy vertex, releasing a
// free one, a repeated health event, a vertex outside the graph)
// panics: the publisher's stream has diverged. Not safe for concurrent
// use; callers serialize access.
type BandwidthAccounting struct {
	n         int          // capacity: every vertex ID is below it
	w         []float64    // w[u*n+v]: weight of edge (u,v), 0 when absent
	has       graph.Bitset // bit u*n+v: edge (u,v) exists
	totalFree float64      // summed weight of edges with both endpoints usable
	incident  []float64    // vertex -> summed weight of its edges into the usable set
	verts     graph.Bitset // the graph's vertices
	avail     graph.Bitset // free set (allocation state)
	healthy   graph.Bitset // health mask; usable = avail AND healthy
	usable    graph.Bitset
	nUsable   int

	// byInc holds every vertex of the graph in ascending incident
	// weight, ties by ascending ID; ordered and prefix restrict it to
	// the usable vertices with running sums. Deltas only mark them
	// stale: ByIncident re-sorts on its next call, starting from the
	// previous order, which a delta perturbs little.
	byInc   []int32
	ordered []int32
	prefix  []float64
	stale   bool
}

// NewBandwidthAccounting sweeps data's edges once and returns the
// accounting for the given initial free set, every vertex healthy.
// capacity must exceed every vertex ID; it is normally
// graph.Capacity(data) — the universes' convention.
func NewBandwidthAccounting(data *graph.Graph, free graph.Bitset, capacity int) *BandwidthAccounting {
	a := &BandwidthAccounting{
		n:        capacity,
		w:        make([]float64, capacity*capacity),
		has:      graph.NewBitset(capacity * capacity),
		incident: make([]float64, capacity),
		verts:    graph.NewBitset(capacity),
		avail:    graph.NewBitset(capacity),
		healthy:  graph.NewBitset(capacity),
		usable:   graph.NewBitset(capacity),
		ordered:  make([]int32, 0, data.NumVertices()),
		prefix:   make([]float64, 0, data.NumVertices()+1),
		stale:    true,
	}
	for _, v := range data.SortedVertices() {
		if v >= capacity {
			panic(fmt.Sprintf("match: NewBandwidthAccounting: vertex %d beyond capacity %d", v, capacity))
		}
		a.byInc = append(a.byInc, int32(v))
		a.verts.Set(v)
		a.healthy.Set(v)
		if free.Has(v) {
			a.avail.Set(v)
			a.usable.Set(v)
			a.nUsable++
		}
	}
	for _, e := range data.Edges() {
		a.w[e.U*a.n+e.V], a.w[e.V*a.n+e.U] = e.Weight, e.Weight
		a.has.Set(e.U*a.n + e.V)
		a.has.Set(e.V*a.n + e.U)
		if a.usable.Has(e.U) {
			a.incident[e.V] += e.Weight
		}
		if a.usable.Has(e.V) {
			a.incident[e.U] += e.Weight
		}
		if a.usable.Has(e.U) && a.usable.Has(e.V) {
			a.totalFree += e.Weight
		}
	}
	return a
}

// vertex panics unless g is a vertex of the accounting's graph.
func (a *BandwidthAccounting) vertex(op string, g int) {
	if !a.verts.Has(g) {
		panic(fmt.Sprintf("match: BandwidthAccounting.%s(%d): not a vertex of the graph", op, g))
	}
}

// Allocate marks the given vertices unavailable. An unhealthy vertex
// already left the sums when it failed, so only its free bit changes.
func (a *BandwidthAccounting) Allocate(gpus []int) {
	for _, g := range gpus {
		if !a.avail.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.Allocate(%d): vertex already unavailable", g))
		}
		a.avail.Unset(g)
		if a.healthy.Has(g) {
			a.dropUsable(g)
		}
	}
}

// Release marks the given vertices available again — the exact inverse
// of Allocate. A released-but-unhealthy vertex rejoins only the free
// mask, not the sums.
func (a *BandwidthAccounting) Release(gpus []int) {
	for _, g := range gpus {
		a.vertex("Release", g)
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
func (a *BandwidthAccounting) MarkUnhealthy(gpus []int) {
	for _, g := range gpus {
		if !a.healthy.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.MarkUnhealthy(%d): vertex already unhealthy or not in the graph", g))
		}
		a.healthy.Unset(g)
		if a.avail.Has(g) {
			a.dropUsable(g)
		}
	}
}

// RestoreHealth marks the given vertices healthy again — the exact
// inverse of MarkUnhealthy.
func (a *BandwidthAccounting) RestoreHealth(gpus []int) {
	for _, g := range gpus {
		a.vertex("RestoreHealth", g)
		if a.healthy.Has(g) {
			panic(fmt.Sprintf("match: BandwidthAccounting.RestoreHealth(%d): vertex already healthy", g))
		}
		a.healthy.Set(g)
		if a.avail.Has(g) {
			a.addUsable(g)
		}
	}
}

// dropUsable removes a vertex leaving the usable set from the sums:
// incident[g] never includes g itself — graphs have no self-loops —
// and every vertex's incident sum loses g's edge weight.
func (a *BandwidthAccounting) dropUsable(g int) {
	a.usable.Unset(g)
	a.nUsable--
	a.totalFree -= a.incident[g]
	for h, x := range a.w[g*a.n : (g+1)*a.n] {
		a.incident[h] -= x
	}
	a.stale = true
}

// addUsable is the exact inverse of dropUsable: incident[g] was
// maintained all along, so adding it back restores the total bit for
// bit before the other vertices regain g.
func (a *BandwidthAccounting) addUsable(g int) {
	a.usable.Set(g)
	a.nUsable++
	a.totalFree += a.incident[g]
	for h, x := range a.w[g*a.n : (g+1)*a.n] {
		a.incident[h] += x
	}
	a.stale = true
}

// UpdateEdge rewrites the weight of edge (u,v) — a link-degradation
// (or recovery) topology delta. The weight matrix mutates
// unconditionally; the incident sums and total absorb the weight
// difference gated on each endpoint's usability, exactly as a fresh
// accounting over the mutated graph would have counted the edge. O(1).
// Updating an edge the accounting's graph does not carry panics — the
// publisher's topology has diverged.
func (a *BandwidthAccounting) UpdateEdge(u, v int, w float64) {
	if u < 0 || v < 0 || u >= a.n || v >= a.n || !a.has.Has(u*a.n+v) {
		panic(fmt.Sprintf("match: BandwidthAccounting.UpdateEdge(%d,%d): edge not tracked", u, v))
	}
	delta := w - a.w[u*a.n+v]
	a.w[u*a.n+v], a.w[v*a.n+u] = w, w
	if a.usable.Has(u) {
		a.incident[v] += delta
	}
	if a.usable.Has(v) {
		a.incident[u] += delta
	}
	if a.usable.Has(u) && a.usable.Has(v) {
		a.totalFree += delta
	}
	a.stale = true
}

// Usable returns the usable set (free AND healthy), indexed by vertex
// ID. READ-ONLY, and only valid until the next delta.
func (a *BandwidthAccounting) Usable() graph.Bitset { return a.usable }

// UsableCount returns the number of usable vertices.
func (a *BandwidthAccounting) UsableCount() int { return a.nUsable }

// Weight returns the weight of edge (u,v), 0 when absent.
func (a *BandwidthAccounting) Weight(u, v int) float64 { return a.w[u*a.n+v] }

// FreeWeight returns the total edge weight of the tracked usable set —
// the availability graph's TotalWeight (the free set induced over
// healthy GPUs), maintained incrementally.
func (a *BandwidthAccounting) FreeWeight() float64 { return a.totalFree }

// IncidentView returns the per-vertex incident-to-usable weight array,
// indexed by vertex ID. READ-ONLY, and only valid until the next
// delta; selection loops evaluating Eq. 3 for many candidates index it
// directly instead of paying a method call per candidate (summing
// entries in any order and computing totalFree − drop + internal
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
// the tracked usable state: the candidate's static internal-edge
// weight plus the delta-maintained state terms, O(k) arithmetic in
// total. The GPU set must lie inside the usable set.
func (a *BandwidthAccounting) PreservedBW(internal float64, gpus []int) float64 {
	var drop float64
	for _, g := range gpus {
		drop += a.incident[g]
	}
	return a.totalFree - drop + internal
}

// ByIncident returns the usable vertices in ascending order of
// incident weight, ties by ascending ID, and the running sums of their
// incident weights: prefix[i] sums the first i, so any k consecutive
// entries from position j weigh prefix[j+k] − prefix[j] — the least
// Eq. 3 drop of k usable vertices at or after j. READ-ONLY, and only
// valid until the next delta. The first call after a delta re-sorts by
// insertion sort from the previous order, near-linear because a delta
// of a few GPUs moves few ranks; calls on an unchanged state are free.
func (a *BandwidthAccounting) ByIncident() (order []int32, prefix []float64) {
	if a.stale {
		inc := a.incident
		less := func(x, y int32) bool {
			return inc[x] < inc[y] || (inc[x] == inc[y] && x < y)
		}
		for i := 1; i < len(a.byInc); i++ {
			v := a.byInc[i]
			j := i
			for ; j > 0 && less(v, a.byInc[j-1]); j-- {
				a.byInc[j] = a.byInc[j-1]
			}
			a.byInc[j] = v
		}
		a.ordered, a.prefix = a.ordered[:0], append(a.prefix[:0], 0)
		sum := 0.0
		for _, v := range a.byInc {
			if a.usable.Has(int(v)) {
				sum += inc[v]
				a.ordered = append(a.ordered, v)
				a.prefix = append(a.prefix, sum)
			}
		}
		a.stale = false
	}
	return a.ordered, a.prefix
}
