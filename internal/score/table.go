package score

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// Table is the precomputed static side of MAPA's selection metrics for
// one idle-state universe. Eq. 1 depends on (topology, embedding), so
// the Eq. 1 Aggregated Bandwidth is stored per candidate. Everything
// else depends on the candidate's GPU set alone — the Eq. 2 ring-channel
// link mix, the internal hardware-edge weight (the per-set constant of
// the Eq. 3 delta decomposition), and the ascending GPU set itself — so
// those are stored once per distinct set (match.Universe.SetOf). Eq. 3
// decomposes into a per-decision state term — maintained by the
// stream's match.BandwidthAccounting — plus the internal-edge constant
// stored here:
//
//	PreservedBW(S) = totalFreeWeight − Σ_{g∈S} freeIncidentWeight(g) + internal(S)
//
// so a warmed steady-state decision evaluates every candidate with
// table lookups and O(k) arithmetic, never calling Scorer.Score (see
// Evaluations). All weights are integral link bandwidths, making every
// stored and derived value bit-identical to the dynamic evaluators.
//
// MaxInternal, the largest internal(S), turns the decomposition into a
// bound for the PreservedBW argmax: no set drawn from GPUs whose
// incident weights sum to at least D preserves more than
// totalFreeWeight − D + MaxInternal.
//
// Sets are addressable by their GPUs without a lookup structure. Every
// machine graph is complete, so a complete universe's sets are exactly
// the C(n, k) k-subsets of the n GPUs, numbered in lexicographic order
// of their ascending positions in the graph's SortedVertices: on a
// complete graph the sorted tuple of a set is itself an embedding, the
// lexicographically smallest one over the set, symmetry breaking keeps
// exactly that one, and the enumeration emits in lexicographic order.
// Rank is therefore the combinatorial number system over those
// positions; BuildTable verifies the numbering and panics if it fails.
//
// Since every selection order ties the embeddings of one set on all
// metrics but AggBW, each set also carries two static representatives:
// KeyRep, its minimum-key embedding (the winner within the set of any
// order without AggBW), and AggRep, its maximum-AggBW embedding with
// ties to the minimum key (the winner within the set of any order with
// AggBW). Selection is then an argmax over live sets.
//
// A Table is immutable under decision traffic and safe for concurrent
// use; the one sanctioned mutation is RepairEdge, which absorbs a
// link-degradation event and must be serialized with readers by the
// caller. Per-model artifacts (Eq. 2 predictions and the precomputed
// selection orders) hang off ForModel.
type Table struct {
	top  *topology.Topology
	u    *match.Universe
	epos [][2]int // the pattern's edges as positions in the universe's match order

	agg []float64 // candidate -> Eq. 1 AggBW

	// Set-indexed columns.
	internal []float64
	mix      []effbw.LinkCounts
	keyRep   []int32
	aggRep   []int32
	// gpusArena holds every set's ascending GPU list in one backing
	// array with fixed stride k (the pattern size): set s occupies
	// [s*k, (s+1)*k). Like the universe's arenas, this keeps the
	// per-table object count O(1) instead of O(sets).
	gpusArena []int
	k         int

	// The largest internal weight and AggBW over the sets: the bounds a
	// PreservedBW-primary selection prunes with.
	maxInternal, maxAgg float64
	// rankCoef[i*rankStride+g] is GPU g's term when it is the i-th
	// smallest of a set, rankBase the number of sets minus one (see
	// Rank).
	rankCoef   []int
	rankStride int
	rankBase   int

	mu     sync.Mutex
	models map[*effbw.Model]*ModelTable
}

// BuildTable computes the score table of a complete universe of pattern
// on top's hardware graph, fanning the per-candidate work over up to
// `workers` goroutines (the values are per-candidate pure functions, so
// the result is identical at any worker count). Link mixes go through
// the process-wide memo, so GPU sets shared across shapes, stores, and
// dynamic decisions decompose once per process. BuildTable panics on an
// incomplete universe, mirroring Filter, and on one whose sets are not
// the lexicographically numbered k-subsets of the machine (see Rank) —
// a universe of an incomplete graph.
func BuildTable(top *topology.Topology, pattern *graph.Graph, u *match.Universe, workers int) *Table {
	if !u.Complete() {
		panic("score: BuildTable over an incomplete universe")
	}
	n, sets := u.Len(), u.Sets()
	k := 0
	if n > 0 {
		k = len(u.Match(0).Data)
	}
	t := &Table{
		top:       top,
		u:         u,
		epos:      pattern.EdgePositionsIn(u.Order()),
		agg:       make([]float64, n),
		internal:  make([]float64, sets),
		mix:       make([]effbw.LinkCounts, sets),
		keyRep:    make([]int32, sets),
		aggRep:    make([]int32, sets),
		gpusArena: make([]int, sets*k),
		k:         k,
		models:    make(map[*effbw.Model]*ModelTable),
	}
	if workers > n {
		workers = n
	}
	tm := mixesOf(top)
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(start int) {
				defer wg.Done()
				for i := start; i < n; i += workers {
					t.fill(tm, i)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			t.fill(tm, i)
		}
	}
	t.pickReps()
	t.indexSets(top.Graph)
	return t
}

// indexSets derives the rank coefficients of the combinatorial number
// system over the graph's sorted vertex positions and checks, in
// O(sets·k), that the universe numbers its sets by it: with n GPUs, the
// set at positions p_0 < … < p_{k-1} has lexicographic rank
//
//	C(n,k) − 1 − Σ_i C(n−1−p_i, k−i).
func (t *Table) indexSets(g *graph.Graph) {
	sets := t.u.Sets()
	if sets == 0 {
		return
	}
	verts := g.SortedVertices()
	n, k := len(verts), t.k
	binom := func(m, j int) int {
		if j < 0 || j > m {
			return 0
		}
		// C(m, j) by the multiplicative formula, saturating: only terms
		// of valid sets are summed, and each is below the set count.
		c := 1
		for i := 1; i <= j; i++ {
			if c > math.MaxInt/(m-j+i) {
				return math.MaxInt
			}
			c = c * (m - j + i) / i
		}
		return c
	}
	t.rankStride = graph.Capacity(g)
	t.rankCoef = make([]int, k*t.rankStride)
	for i := 0; i < k; i++ {
		for p, v := range verts {
			t.rankCoef[i*t.rankStride+v] = binom(n-1-p, k-i)
		}
	}
	if binom(n, k) != sets {
		panic(fmt.Sprintf("score: universe holds %d GPU sets, not the C(%d,%d) k-subsets of a complete machine", sets, n, k))
	}
	t.rankBase = sets - 1
	for s := 0; s < sets; s++ {
		if r := t.Rank(t.SetGPUs(s)); r != s {
			panic(fmt.Sprintf("score: GPU set %v is set %d, not its lexicographic rank %d", t.SetGPUs(s), s, r))
		}
	}
}

// fill (re)derives candidate i's AggBW from the topology's current pair
// table, and its set's columns when i is the set's first candidate —
// each set is filled by exactly one candidate.
func (t *Table) fill(tm *topoMixes, i int) {
	pt := tm.pairsOf()
	m := t.u.Match(i)
	t.agg[i] = pt.aggBW(t.epos, m.Data)
	s := t.u.SetOf(i)
	if t.u.SetFirst(s) != i {
		return
	}
	gpus := t.gpusArena[s*t.k : (s+1)*t.k : (s+1)*t.k]
	copy(gpus, m.Data)
	slices.Sort(gpus)
	t.mix[s] = tm.mix(gpus)
	t.internal[s] = pt.internal(gpus)
}

// pickReps chooses every set's two representatives in one pass over
// the candidates — KeyRep the minimum key, AggRep the maximum AggBW with
// ties to the minimum key — and takes the column maxima.
func (t *Table) pickReps() {
	t.maxInternal, t.maxAgg = maxOf(t.internal), maxOf(t.agg)
	for s := range t.keyRep {
		first := int32(t.u.SetFirst(s))
		t.keyRep[s], t.aggRep[s] = first, first
	}
	for i := 0; i < t.u.Len(); i++ {
		s := t.u.SetOf(i)
		key := t.u.Key(i)
		if key < t.u.Key(int(t.keyRep[s])) {
			t.keyRep[s] = int32(i)
		}
		r := int(t.aggRep[s])
		if t.agg[i] > t.agg[r] || (t.agg[i] == t.agg[r] && key < t.u.Key(r)) {
			t.aggRep[s] = int32(i)
		}
	}
}

// RepairEdge re-derives the static metrics of every candidate whose
// GPU set contains both endpoints of machine edge (u,v) — called after
// the edge's weight changed — and returns how many were refreshed. The
// affected set is exact, not conservative: AggregatedBandwidth and the
// internal-edge constant read only weights between allocated GPUs, and
// the ring-channel decomposition behind the link mix keeps a physical
// link only when both endpoints are inside the allocation (PCIe hops
// are a global constant), so a candidate holding just one endpoint
// prices the old and new graph identically. The AggBW representatives
// are re-picked, and per-model artifacts (predictions and selection
// orders) are dropped wholesale and rebuilt lazily on the next
// decision. The caller must have already mutated the topology's graphs
// and invalidated its mix memo and pair table (InvalidateMixes) — the
// refill reads both — and must serialize RepairEdge with readers.
func (t *Table) RepairEdge(u, v int) int {
	repaired := 0
	tm := mixesOf(t.top)
	for i := 0; i < t.Len(); i++ {
		s := t.u.Set(i)
		if s.Has(u) && s.Has(v) {
			t.fill(tm, i)
			repaired++
		}
	}
	if repaired > 0 {
		t.pickReps()
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
func (t *Table) Internal(i int) float64 { return t.internal[t.u.SetOf(i)] }

// Mix returns candidate i's ring-channel link mix.
func (t *Table) Mix(i int) effbw.LinkCounts { return t.mix[t.u.SetOf(i)] }

// GPUs returns candidate i's ascending GPU set as a view into the
// table's arena. Read-only.
func (t *Table) GPUs(i int) []int { return t.SetGPUs(t.u.SetOf(i)) }

// SetGPUs returns set s's ascending GPU list as a view into the
// table's arena. Read-only.
func (t *Table) SetGPUs(s int) []int {
	return t.gpusArena[s*t.k : (s+1)*t.k : (s+1)*t.k]
}

// SetInternal returns set s's internal hardware-edge weight.
func (t *Table) SetInternal(s int) float64 { return t.internal[s] }

// MaxInternal returns the largest SetInternal: the internal-edge term
// of the PreservedBW upper bound.
func (t *Table) MaxInternal() float64 { return t.maxInternal }

// MaxSetAggBW returns the largest SetAggBW.
func (t *Table) MaxSetAggBW() float64 { return t.maxAgg }

// Rank returns the index of the set holding exactly the given GPUs,
// which must be k distinct GPUs of the machine in ascending order —
// the inverse of SetGPUs, in O(k).
func (t *Table) Rank(gpus []int) int {
	r := t.rankBase
	for i, g := range gpus {
		r -= t.rankCoef[i*t.rankStride+g]
	}
	return r
}

// maxOf returns the largest entry of xs, 0 for none.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// SetAggBW returns the highest Eq. 1 Aggregated Bandwidth among set s's
// candidates — its AggRep's.
func (t *Table) SetAggBW(s int) float64 { return t.agg[t.aggRep[s]] }

// KeyRep returns set s's minimum-key candidate: the set's winner under
// any selection order that does not rank AggBW.
func (t *Table) KeyRep(s int) int { return int(t.keyRep[s]) }

// AggRep returns set s's maximum-AggBW candidate, ties to the minimum
// key: the set's winner under any selection order that ranks AggBW.
func (t *Table) AggRep(s int) int { return int(t.aggRep[s]) }

// ForModel returns the table's per-model artifacts — Eq. 2 predictions
// and lazily sorted selection orders — computing them on first use for
// each model. Keying by model identity means swapping a policy's
// bandwidth model never serves another model's predictions.
func (t *Table) ForModel(m *effbw.Model) *ModelTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	mt, ok := t.models[m]
	if !ok {
		eff := make([]float64, len(t.mix))
		for s, mix := range t.mix {
			eff[s] = m.Predict(mix)
		}
		mt = &ModelTable{t: t, eff: eff, maxEff: maxOf(eff)}
		t.models[m] = mt
	}
	return mt
}

// ModelTable is one model's view of a Table: the Eq. 2 prediction per
// GPU set plus precomputed selection orders over the sets. Safe for
// concurrent use.
type ModelTable struct {
	t      *Table
	eff    []float64 // set -> Eq. 2 prediction
	maxEff float64

	aggOnce  sync.Once
	aggOrder []int32
	aggEnds  []int32
	effOnce  sync.Once
	effOrder []int32
	effEnds  []int32
}

// EffBW returns candidate i's Eq. 2 prediction under this model.
func (mt *ModelTable) EffBW(i int) float64 { return mt.eff[mt.t.u.SetOf(i)] }

// SetEffBW returns set s's Eq. 2 prediction under this model.
func (mt *ModelTable) SetEffBW(s int) float64 { return mt.eff[s] }

// MaxSetEffBW returns the largest SetEffBW.
func (mt *ModelTable) MaxSetEffBW() float64 { return mt.maxEff }

// AggGroups returns the sets sorted under the Greedy total order of
// their AggBW representatives — SetAggBW descending, EffBW descending,
// GPU set lexicographic ascending (distinct sets differ in their GPUs,
// so the order is total) — together with its group-boundary index:
// ends[j] is the exclusive end of the contiguous equal-SetAggBW run
// containing position j. The AggRep of the first live set IS the Greedy
// winner, and any AggBW-primary comparator's winner is the AggRep of a
// set in the order's first live group — positions [j0, ends[j0]) for
// the first live j0 — so a selection scans one group with no per-group
// temporary slices. Computed on first use; read-only.
func (mt *ModelTable) AggGroups() (ord, ends []int32) {
	mt.aggOnce.Do(func() {
		t := mt.t
		agg := make([]float64, len(t.aggRep))
		for s := range agg {
			agg[s] = t.SetAggBW(s)
		}
		mt.aggOrder = newOrder(len(agg))
		sort.Slice(mt.aggOrder, func(a, b int) bool {
			s, r := int(mt.aggOrder[a]), int(mt.aggOrder[b])
			if agg[s] != agg[r] {
				return agg[s] > agg[r]
			}
			if mt.eff[s] != mt.eff[r] {
				return mt.eff[s] > mt.eff[r]
			}
			return compareInts(t.SetGPUs(s), t.SetGPUs(r)) < 0
		})
		mt.aggEnds = groupEnds(mt.aggOrder, agg)
	})
	return mt.aggOrder, mt.aggEnds
}

// EffGroups returns the sets sorted by Effective Bandwidth descending
// (ties by ascending set index, keeping the order deterministic)
// together with its group-boundary index: ends[j] is the exclusive end
// of the contiguous equal-EffBW run containing position j (see
// AggGroups). The runs are the set groups of any EffBW-primary
// comparator. Computed on first use; read-only.
func (mt *ModelTable) EffGroups() (ord, ends []int32) {
	mt.effOnce.Do(func() {
		mt.effOrder = newOrder(len(mt.eff))
		sort.SliceStable(mt.effOrder, func(a, b int) bool {
			return mt.eff[mt.effOrder[a]] > mt.eff[mt.effOrder[b]]
		})
		mt.effEnds = groupEnds(mt.effOrder, mt.eff)
	})
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
