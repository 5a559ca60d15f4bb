package score

import (
	"sort"
	"sync"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// Table is the precomputed static side of MAPA's selection metrics for
// one idle-state universe: per candidate, the Eq. 1 Aggregated
// Bandwidth, the Eq. 2 ring-channel link mix, the candidate's internal
// hardware-edge weight (the per-candidate constant of the Eq. 3 delta
// decomposition), and its ascending GPU set. Eq. 1 and Eq. 2 depend
// only on (topology, embedding); Eq. 3 decomposes into a per-decision
// state term — maintained by match.LiveView's bandwidth accounting —
// plus the internal-edge constant stored here:
//
//	PreservedBW(S) = totalFreeWeight − Σ_{g∈S} freeIncidentWeight(g) + internal(S)
//
// so a warmed steady-state decision evaluates every candidate with
// table lookups and O(k) arithmetic, never calling Scorer.Score (see
// Evaluations). All weights are integral link bandwidths, making every
// stored and derived value bit-identical to the dynamic evaluators.
//
// A Table is immutable under decision traffic and safe for concurrent
// use; the one sanctioned mutation is RepairEdge, which absorbs a
// link-degradation event and must be serialized with readers by the
// caller. Per-model artifacts (Eq. 2 predictions and the precomputed
// selection orders) hang off ForModel.
type Table struct {
	top     *topology.Topology
	pattern *graph.Graph
	u       *match.Universe

	agg      []float64
	internal []float64
	mix      []effbw.LinkCounts

	// gpusArena holds every candidate's ascending GPU set in one
	// backing array with fixed stride k (the pattern size): candidate
	// i occupies [i*k, (i+1)*k). Like the universe's arenas, this keeps
	// the per-table object count O(1) instead of O(candidates).
	gpusArena []int
	k         int

	mu     sync.Mutex
	models map[*effbw.Model]*ModelTable
}

// BuildTable computes the score table of a complete universe of pattern
// on top's hardware graph, fanning the per-candidate work over up to
// `workers` goroutines (the values are per-candidate pure functions, so
// the result is identical at any worker count). Link mixes go through
// the process-wide memo, so candidates sharing a GPU set — across
// shapes, stores, and dynamic decisions — decompose once per process.
// BuildTable panics on an incomplete universe, mirroring Filter.
func BuildTable(top *topology.Topology, pattern *graph.Graph, u *match.Universe, workers int) *Table {
	if !u.Complete() {
		panic("score: BuildTable over an incomplete universe")
	}
	n := u.Len()
	k := 0
	if n > 0 {
		k = len(u.Match(0).Data)
	}
	t := &Table{
		top:       top,
		pattern:   pattern,
		u:         u,
		agg:       make([]float64, n),
		internal:  make([]float64, n),
		mix:       make([]effbw.LinkCounts, n),
		gpusArena: make([]int, n*k),
		k:         k,
		models:    make(map[*effbw.Model]*ModelTable),
	}
	if workers > n {
		workers = n
	}
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(start int) {
				defer wg.Done()
				for i := start; i < n; i += workers {
					t.fill(i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			t.fill(i)
		}
	}
	return t
}

// fill (re)derives candidate i's static metrics from the table's
// current topology graphs.
func (t *Table) fill(i int) {
	hw := t.top.Graph
	m := t.u.Match(i)
	gpus := t.gpusArena[i*t.k : (i+1)*t.k : (i+1)*t.k]
	copy(gpus, m.Data)
	sort.Ints(gpus)
	t.agg[i] = AggregatedBandwidth(t.pattern, hw, m)
	t.mix[i] = mixesOf(t.top).mix(gpus)
	var internal float64
	for a, g := range gpus {
		for _, h := range gpus[a+1:] {
			internal += hw.Weight(g, h)
		}
	}
	t.internal[i] = internal
}

// RepairEdge re-derives the static metrics of every candidate whose
// GPU set contains both endpoints of machine edge (u,v) — called after
// the edge's weight changed — and returns how many were refreshed. The
// affected set is exact, not conservative: AggregatedBandwidth and the
// internal-edge constant read only weights between allocated GPUs, and
// the ring-channel decomposition behind the link mix keeps a physical
// link only when both endpoints are inside the allocation (PCIe hops
// are a global constant), so a candidate holding just one endpoint
// prices the old and new graph identically. Per-model artifacts
// (predictions and selection orders) are dropped wholesale and rebuilt
// lazily on the next decision. The caller must have already mutated
// the topology's graphs and invalidated its mix memo
// (InvalidateMixes), and must serialize RepairEdge with readers.
func (t *Table) RepairEdge(u, v int) int {
	repaired := 0
	for i := 0; i < t.Len(); i++ {
		s := t.u.Set(i)
		if s.Has(u) && s.Has(v) {
			t.fill(i)
			repaired++
		}
	}
	if repaired > 0 {
		t.mu.Lock()
		t.models = make(map[*effbw.Model]*ModelTable)
		t.mu.Unlock()
	}
	return repaired
}

// Universe returns the universe the table annotates.
func (t *Table) Universe() *match.Universe { return t.u }

// Len returns the candidate count.
func (t *Table) Len() int { return len(t.agg) }

// AggBW returns candidate i's Eq. 1 Aggregated Bandwidth.
func (t *Table) AggBW(i int) float64 { return t.agg[i] }

// Internal returns candidate i's internal hardware-edge weight — the
// static constant of the Eq. 3 delta decomposition.
func (t *Table) Internal(i int) float64 { return t.internal[i] }

// Mix returns candidate i's ring-channel link mix.
func (t *Table) Mix(i int) effbw.LinkCounts { return t.mix[i] }

// GPUs returns candidate i's ascending GPU set as a view into the
// table's arena. Read-only.
func (t *Table) GPUs(i int) []int {
	return t.gpusArena[i*t.k : (i+1)*t.k : (i+1)*t.k]
}

// ForModel returns the table's per-model artifacts — Eq. 2 predictions
// and lazily sorted selection orders — computing them on first use for
// each model. Keying by model identity mirrors Entry.Scores: swapping a
// policy's bandwidth model never serves another model's predictions.
func (t *Table) ForModel(m *effbw.Model) *ModelTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	mt, ok := t.models[m]
	if !ok {
		eff := make([]float64, t.Len())
		for i, mix := range t.mix {
			eff[i] = m.Predict(mix)
		}
		mt = &ModelTable{t: t, eff: eff}
		t.models[m] = mt
	}
	return mt
}

// ModelTable is one model's view of a Table: the Eq. 2 prediction per
// candidate plus precomputed selection orders. Safe for concurrent use.
type ModelTable struct {
	t   *Table
	eff []float64

	aggOnce  sync.Once
	aggOrder []int32
	aggEnds  []int32
	effOnce  sync.Once
	effOrder []int32
	effEnds  []int32
}

// EffBW returns candidate i's Eq. 2 prediction under this model.
func (mt *ModelTable) EffBW(i int) float64 { return mt.eff[i] }

// AggOrder returns the candidates sorted under the Greedy total order —
// Aggregated Bandwidth descending, Effective Bandwidth descending, GPU
// set lexicographic ascending, canonical key ascending. Distinct
// candidates always differ in their keys, so the order is total: the
// first live candidate in it IS the Greedy winner, and the contiguous
// equal-AggBW runs serve as the candidate groups of any
// AggBW-primary comparator. Computed on first use; read-only.
func (mt *ModelTable) AggOrder() []int32 {
	mt.aggOnce.Do(func() {
		t := mt.t
		mt.aggOrder = newOrder(t.Len())
		sort.Slice(mt.aggOrder, func(a, b int) bool {
			i, j := int(mt.aggOrder[a]), int(mt.aggOrder[b])
			if t.agg[i] != t.agg[j] {
				return t.agg[i] > t.agg[j]
			}
			if mt.eff[i] != mt.eff[j] {
				return mt.eff[i] > mt.eff[j]
			}
			if c := compareInts(t.GPUs(i), t.GPUs(j)); c != 0 {
				return c < 0
			}
			return t.u.Key(i) < t.u.Key(j)
		})
		mt.aggEnds = groupEnds(mt.aggOrder, t.agg)
	})
	return mt.aggOrder
}

// AggGroups returns the Greedy-order permutation together with its
// group-boundary index: ends[j] is the exclusive end of the contiguous
// equal-AggBW run containing position j. Any AggBW-primary comparator's
// winner lies in the order's first live group — positions
// [j0, ends[j0]) for the first live j0 — so a selection scans one group
// with no per-group temporary slices. Computed on first use; read-only.
func (mt *ModelTable) AggGroups() (ord, ends []int32) {
	mt.AggOrder()
	return mt.aggOrder, mt.aggEnds
}

// EffOrder returns the candidates sorted by Effective Bandwidth
// descending (ties by ascending candidate index, keeping the order
// deterministic): the contiguous equal-EffBW runs are the candidate
// groups of any EffBW-primary comparator. Computed on first use;
// read-only.
func (mt *ModelTable) EffOrder() []int32 {
	mt.effOnce.Do(func() {
		mt.effOrder = newOrder(mt.t.Len())
		sort.SliceStable(mt.effOrder, func(a, b int) bool {
			return mt.eff[mt.effOrder[a]] > mt.eff[mt.effOrder[b]]
		})
		mt.effEnds = groupEnds(mt.effOrder, mt.eff)
	})
	return mt.effOrder
}

// EffGroups returns the EffBW-order permutation together with its
// group-boundary index: ends[j] is the exclusive end of the contiguous
// equal-EffBW run containing position j (see AggGroups). Computed on
// first use; read-only.
func (mt *ModelTable) EffGroups() (ord, ends []int32) {
	mt.EffOrder()
	return mt.effOrder, mt.effEnds
}

// groupEnds computes, for every position j of a sorted permutation, the
// exclusive end of the contiguous run of positions whose primary value
// equals ord[j]'s — one pass over the order.
func groupEnds(ord []int32, vals []float64) []int32 {
	ends := make([]int32, len(ord))
	for s := 0; s < len(ord); {
		e := s + 1
		for e < len(ord) && vals[ord[e]] == vals[ord[s]] {
			e++
		}
		for j := s; j < e; j++ {
			ends[j] = int32(e)
		}
		s = e
	}
	return ends
}

// newOrder returns the identity permutation 0..n-1 as int32 indices.
func newOrder(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// compareInts orders int slices lexicographically (shorter prefixes
// first), mirroring the policy layer's GPU-set tie-break.
func compareInts(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
