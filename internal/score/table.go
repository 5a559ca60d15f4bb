package score

import (
	"slices"
	"sort"
	"sync"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// Table is the precomputed static side of MAPA's selection metrics for
// one idle-state universe, stored per GPU set. A universe is a closed
// form (match.Universe): candidate (s, p) is set s's ascending GPUs
// composed with the universe's permutation p. Everything but Eq. 1
// depends on the GPU set alone — the Eq. 2 ring-channel link mix, the
// internal hardware-edge weight (the per-set constant of the Eq. 3
// delta decomposition), and the ascending GPU set itself — so those are
// stored once per set. Eq. 3 decomposes into a per-decision state term
// — maintained by the stream's match.BandwidthAccounting — plus the
// internal-edge constant stored here:
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
// Sets are numbered in lexicographic order of their ascending positions
// in the graph's SortedVertices, the universe's numbering, so Rank —
// the combinatorial number system over those positions — addresses a
// set by its GPUs without a lookup structure.
//
// Since every selection order ties the embeddings of one set on all
// metrics but AggBW, each set also carries two static representatives,
// as permutation indices: KeyRep, its minimum-key embedding (the
// winner within the set of any order without AggBW), and AggRep, its
// maximum-AggBW embedding with ties to the minimum key (the winner
// within the set of any order with AggBW). Keys compare as decimal
// strings ("10" < "9"), so the key order of a set's embeddings depends
// on its GPU IDs and is decided per set at build; no key is retained.
// Selection is then an argmax over live sets.
//
// A Table is immutable under decision traffic and safe for concurrent
// use; the one sanctioned mutation is RepairEdge, which absorbs a
// link-degradation event and must be serialized with readers by the
// caller. Per-model artifacts (Eq. 2 predictions and the precomputed
// selection orders) hang off ForModel.
type Table struct {
	top     *topology.Topology
	tm      *topoMixes // the topology's memo: its pair table prices AggBW
	u       *match.Universe
	pattern *graph.Graph
	epos    [][2]int // the pattern's edges as positions in the universe's match order

	// Set-indexed columns.
	internal []float64
	mix      []effbw.LinkCounts
	setAgg   []float64 // Eq. 1 AggBW of the set's AggRep
	keyRep   []int32
	aggRep   []int32
	// gpusArena holds every set's ascending GPU list in one backing
	// array with fixed stride k (the pattern size): set s occupies
	// [s*k, (s+1)*k), keeping the per-table object count O(1).
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
// on top's hardware graph, fanning the per-set work over up to
// `workers` goroutines (the values are per-set pure functions, so the
// result is identical at any worker count). Link mixes go through the
// process-wide memo, so sets with one link signature — across shapes,
// stores, and dynamic decisions — decompose once per process.
// BuildTable panics on an incomplete universe.
func BuildTable(top *topology.Topology, pattern *graph.Graph, u *match.Universe, workers int) *Table {
	if !u.Complete() {
		panic("score: BuildTable over an incomplete universe")
	}
	sets, k := u.Sets(), pattern.NumVertices()
	t := &Table{
		top:       top,
		tm:        mixesOf(top),
		u:         u,
		pattern:   pattern,
		epos:      pattern.EdgePositionsIn(u.Order()),
		internal:  make([]float64, sets),
		mix:       make([]effbw.LinkCounts, sets),
		setAgg:    make([]float64, sets),
		keyRep:    make([]int32, sets),
		aggRep:    make([]int32, sets),
		gpusArena: make([]int, sets*k),
		k:         k,
		models:    make(map[*effbw.Model]*ModelTable),
	}
	t.indexSets()
	workers = max(1, min(workers, sets))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			sc := t.newScratch()
			for s := start; s < sets; s += workers {
				t.fill(sc, s)
			}
		}(w)
	}
	wg.Wait()
	t.maxInternal, t.maxAgg = maxOf(t.internal), maxOf(t.setAgg)
	return t
}

// indexSets lays out every set's ascending GPUs in the arena, walking
// the k-subsets of the graph's sorted vertices in lexicographic order,
// and derives the rank coefficients of the combinatorial number system
// over those positions: with n GPUs, the set at positions p_0 < … <
// p_{k-1} has lexicographic rank
//
//	C(n,k) − 1 − Σ_i C(n−1−p_i, k−i).
func (t *Table) indexSets() {
	sets := t.u.Sets()
	if sets == 0 {
		return
	}
	verts := t.u.Vertices()
	n, k := len(verts), t.k
	pos := make([]int, k)
	for i := range pos {
		pos[i] = i
	}
	for s := 0; s < sets; s++ {
		for i, p := range pos {
			t.gpusArena[s*k+i] = verts[p]
		}
		match.NextSubset(pos, n)
	}
	t.rankStride = verts[n-1] + 1
	t.rankCoef = make([]int, k*t.rankStride)
	for i := 0; i < k; i++ {
		for p, v := range verts {
			t.rankCoef[i*t.rankStride+v] = match.Binomial(n-1-p, k-i)
		}
	}
	t.rankBase = sets - 1
}

// tableScratch is one filling goroutine's reused buffers: the keyer and
// an embedding's data for comparing a set's embeddings by key, and the
// two representatives' key bytes.
type tableScratch struct {
	ky             *match.Keyer
	data           []int
	keyMin, aggKey []byte
}

func (t *Table) newScratch() *tableScratch {
	return &tableScratch{ky: match.NewKeyer(t.pattern, t.u.Order()), data: make([]int, t.k)}
}

// embed writes embedding (s, p) — set s's GPUs composed with
// permutation p — into dst, which has length k.
func (t *Table) embed(dst []int, s, p int) {
	gpus := t.SetGPUs(s)
	for j, q := range t.u.Perm(p) {
		dst[j] = gpus[q]
	}
}

// fill (re)derives set s's columns from the topology's current pair
// table and mix memo, and picks its representatives in one pass over
// its embeddings — KeyRep the minimum key, AggRep the maximum AggBW
// with ties to the minimum key. A set with one embedding keys nothing.
func (t *Table) fill(sc *tableScratch, s int) {
	pt := t.tm.pairsOf()
	gpus := t.SetGPUs(s)
	t.mix[s] = t.tm.mix(gpus)
	t.internal[s] = pt.internal(gpus)
	m := match.Match{Pattern: t.u.Order(), Data: sc.data}
	var keyRep, aggRep int32
	var best float64
	for p := 0; p < t.u.Perms(); p++ {
		t.embed(sc.data, s, p)
		agg := pt.aggBW(t.epos, sc.data)
		if p == 0 {
			best = agg
			if t.u.Perms() > 1 {
				sc.keyMin = append(sc.keyMin[:0], sc.ky.KeyBytes(m)...)
				sc.aggKey = append(sc.aggKey[:0], sc.keyMin...)
			}
			continue
		}
		key := sc.ky.KeyBytes(m)
		if string(key) < string(sc.keyMin) {
			keyRep, sc.keyMin = int32(p), append(sc.keyMin[:0], key...)
		}
		if agg > best || (agg == best && string(key) < string(sc.aggKey)) {
			aggRep, best, sc.aggKey = int32(p), agg, append(sc.aggKey[:0], key...)
		}
	}
	t.keyRep[s], t.aggRep[s], t.setAgg[s] = keyRep, aggRep, best
}

// RepairEdge re-derives the static metrics of every GPU set that
// contains both endpoints of machine edge (u,v) — called after the
// edge's weight changed — and returns how many candidates (sets times
// embeddings per set) were refreshed. The affected sets are exact, not
// conservative: AggregatedBandwidth and the internal-edge constant read
// only weights between allocated GPUs, and the ring-channel
// decomposition behind the link mix keeps a physical link only when
// both endpoints are inside the allocation (PCIe hops are a global
// constant), so a set holding just one endpoint prices the old and new
// graph identically. The C(n−2, k−2) affected sets are unranked
// directly, the column maxima re-taken, and per-model artifacts
// (predictions and selection orders) dropped wholesale and rebuilt
// lazily on the next decision. The caller must have already mutated
// the topology's graphs and invalidated its mix memo and pair table
// (InvalidateMixes) — the refill reads both — and must serialize
// RepairEdge with readers.
func (t *Table) RepairEdge(u, v int) int {
	t.tm = mixesOf(t.top)
	verts := t.u.Vertices()
	pu, okU := slices.BinarySearch(verts, min(u, v))
	pv, okV := slices.BinarySearch(verts, max(u, v))
	if t.k < 2 || t.u.Sets() == 0 || !okU || !okV || pu == pv {
		return 0
	}
	// The other n−2 positions, and a (k−2)-subset of them in
	// lexicographic order.
	others := make([]int, 0, len(verts)-2)
	for p := range verts {
		if p != pu && p != pv {
			others = append(others, p)
		}
	}
	pick := make([]int, t.k-2)
	for i := range pick {
		pick[i] = i
	}
	gpus := make([]int, 0, t.k)
	sc := t.newScratch()
	repaired := 0
	for {
		gpus = append(gpus[:0], verts[pu], verts[pv])
		for _, i := range pick {
			gpus = append(gpus, verts[others[i]])
		}
		slices.Sort(gpus)
		t.fill(sc, t.Rank(gpus))
		repaired++
		if !match.NextSubset(pick, len(others)) {
			break
		}
	}
	t.maxInternal, t.maxAgg = maxOf(t.internal), maxOf(t.setAgg)
	t.mu.Lock()
	t.models = make(map[*effbw.Model]*ModelTable)
	t.mu.Unlock()
	return repaired * t.u.Perms()
}

// Universe returns the universe the table annotates.
func (t *Table) Universe() *match.Universe { return t.u }

// Len returns the candidate count: sets times embeddings per set.
func (t *Table) Len() int { return t.u.Len() }

// AggBW returns the Eq. 1 Aggregated Bandwidth of embedding (s, p):
// the stored SetAggBW for the set's AggRep, otherwise priced from the
// topology's pair table in O(|E(P)|).
func (t *Table) AggBW(s, p int) float64 {
	if p == int(t.aggRep[s]) {
		return t.setAgg[s]
	}
	var buf [16]int
	data := buf[:0]
	if t.k > len(buf) {
		data = make([]int, 0, t.k)
	}
	data = data[:t.k]
	t.embed(data, s, p)
	return t.tm.pairsOf().aggBW(t.epos, data)
}

// SetGPUs returns set s's ascending GPU list as a view into the
// table's arena. Read-only.
func (t *Table) SetGPUs(s int) []int {
	return t.gpusArena[s*t.k : (s+1)*t.k : (s+1)*t.k]
}

// SetInternal returns set s's internal hardware-edge weight — the
// static constant of the Eq. 3 delta decomposition.
func (t *Table) SetInternal(s int) float64 { return t.internal[s] }

// SetMix returns set s's ring-channel link mix.
func (t *Table) SetMix(s int) effbw.LinkCounts { return t.mix[s] }

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
// embeddings — its AggRep's.
func (t *Table) SetAggBW(s int) float64 { return t.setAgg[s] }

// KeyRep returns the permutation index of set s's minimum-key
// embedding: the set's winner under any selection order that does not
// rank AggBW.
func (t *Table) KeyRep(s int) int { return int(t.keyRep[s]) }

// AggRep returns the permutation index of set s's maximum-AggBW
// embedding, ties to the minimum key: the set's winner under any
// selection order that ranks AggBW.
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
		agg := t.setAgg
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
