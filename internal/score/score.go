// Package score implements MAPA's pattern-scoring metrics (Sec. 3.4 and
// 3.5.1 of the paper):
//
//   - Aggregated Bandwidth (Eq. 1): total bandwidth of the hardware
//     links the application pattern actually uses in a match.
//   - Predicted Effective Bandwidth (Eq. 2, via internal/effbw): the
//     learned estimate of the bandwidth the allocation will achieve.
//   - Preserved Bandwidth (Eq. 3): the aggregate bandwidth remaining in
//     the hardware graph if the match is allocated, i.e. the bandwidth
//     left for future jobs.
//
// The (x, y, z) link mix fed to the Eq. 2 predictor is derived from the
// ring channels NCCL would construct over the allocation — a
// deterministic topology analysis (ncclsim.Decompose), not a
// benchmark run. This matches how the collective library actually uses
// links and makes the predictor's inputs consistent with its training
// distribution; scoring by the raw pattern-edge mix is available as
// UsedLinkMix for the paper-literal ablation. The mix is memoized per
// topology instance by the set's link signature (see topoMixes.mix), so
// a machine's many GPU sets share a handful of decompositions.
//
// Beyond the per-match evaluators, the package provides the static side
// of the warmed fast path: Table precomputes every state-independent
// metric of an idle-state universe (Eq. 1, the Eq. 2 link mix and
// prediction, and the Eq. 3 internal-edge constant) so that steady-state
// selection needs no dynamic Score calls at all — see Table and the
// Evaluations counter.
package score

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/ncclsim"
	"mapa/internal/topology"
)

// evaluations counts every dynamic metric evaluation (Scorer.Score /
// Scorer.ScoreLedger call) — the telemetry behind Evaluations().
var evaluations atomic.Uint64

// Evaluations returns the cumulative number of dynamic score
// evaluations (Scorer.Score and Scorer.ScoreLedger calls) this process
// has run. Like match.Searches and match.Filters it exists so tests can
// prove a decision path's cost class: a table-served warmed decision
// performs zero dynamic evaluations — every metric is either a
// precomputed lookup or O(k) delta arithmetic.
func Evaluations() uint64 { return evaluations.Load() }

// AggregatedBandwidth computes Eq. 1: the sum of the weights of the
// data-graph edges that are images of pattern edges, Σ w(e) for
// e ∈ E(P) ∩ E(M).
func AggregatedBandwidth(pattern, hw *graph.Graph, m match.Match) float64 {
	var sum float64
	for _, e := range m.UsedEdges(pattern, hw) {
		sum += e.Weight
	}
	return sum
}

// UsedLinkMix returns the (x, y, z) link mix of the hardware links the
// match's pattern edges map onto — the literal E(P) ∩ E(M) reading of
// the paper's Eq. 2 input.
func UsedLinkMix(pattern, hw *graph.Graph, m match.Match) effbw.LinkCounts {
	return effbw.CountLinks(m.UsedEdges(pattern, hw))
}

// PreservedBandwidth computes Eq. 3: the total weight of the subgraph
// of hw induced by the vertices not in the allocation. allocated may
// be any vertex set; vertices absent from hw are ignored. The value is
// computed by a single edge sweep (graph.WeightWithout) without
// materializing the remainder graph.
func PreservedBandwidth(hw *graph.Graph, allocated []int) float64 {
	return hw.WeightWithout(allocated)
}

// Ledger is the per-decision bandwidth accounting of one availability
// graph: its total free weight and each vertex's incident free weight,
// computed once per decision so Eq. 3 for every candidate costs O(k²)
// arithmetic instead of an O(V+E) graph sweep per candidate.
//
// For an allocation S of the availability graph F:
//
//	PreservedBW(S) = W(F) − Σ_{g∈S} incident(g) + internal(S)
//
// where incident(g) sums g's edges into F (counting S–S edges twice
// across the Σ) and internal(S) adds them back once. All weights are
// integral link bandwidths, so the result is bit-identical to
// PreservedBandwidth. A Ledger is immutable after construction and safe
// for concurrent use — except one obtained from BorrowLedger, which the
// borrowing decision owns exclusively until Recycle.
type Ledger struct {
	hw       *graph.Graph
	total    float64
	incident map[int]float64
}

// NewLedger sweeps hw's edges once and returns its bandwidth ledger.
func NewLedger(hw *graph.Graph) *Ledger {
	l := &Ledger{
		hw:       hw,
		incident: make(map[int]float64, hw.NumVertices()),
	}
	l.fill(hw)
	return l
}

// fill populates the ledger from hw's edges. Edge iteration order is
// irrelevant: all weights are integral link bandwidths, so the float64
// sums are exact regardless of accumulation order.
func (l *Ledger) fill(hw *graph.Graph) {
	hw.ForEachEdge(func(e graph.Edge) bool {
		l.total += e.Weight
		l.incident[e.U] += e.Weight
		l.incident[e.V] += e.Weight
		return true
	})
}

// ledgerPool recycles per-decision Ledgers: the incident map is the
// dominant allocation of a dynamic (non-table) decision, and clearing a
// map is far cheaper than growing a fresh one to ~|V| entries.
var ledgerPool = sync.Pool{
	New: func() any { return &Ledger{incident: make(map[int]float64)} },
}

// BorrowLedger is NewLedger backed by a process-wide pool: the returned
// ledger is owned exclusively by the caller until Recycle, after which
// it must not be used. Per-decision paths borrow and recycle instead of
// allocating a fresh incident map per decision.
func BorrowLedger(hw *graph.Graph) *Ledger {
	l := ledgerPool.Get().(*Ledger)
	l.hw = hw
	l.total = 0
	clear(l.incident)
	l.fill(hw)
	return l
}

// Recycle returns a borrowed ledger to the pool. The caller must not
// retain it — nor any value derived from its identity — afterwards.
func (l *Ledger) Recycle() {
	l.hw = nil
	ledgerPool.Put(l)
}

// Preserved computes Eq. 3 for an allocation of the ledger's graph.
func (l *Ledger) Preserved(gpus []int) float64 {
	var drop, internal float64
	for i, g := range gpus {
		drop += l.incident[g]
		for _, h := range gpus[i+1:] {
			internal += l.hw.Weight(g, h)
		}
	}
	return l.total - drop + internal
}

// maxMixSignatures bounds each topology instance's mix memo. The memo
// is keyed by a GPU set's link signature, so it holds one entry per
// distinct pattern of links among the sets' GPUs — 6 for every set of
// up to 3 of cluster-a100's 72 GPUs, 4 for every set of up to 5 of a
// dgx-a100's 8, 1,233 for cubemesh-16's — not one per set. Past the
// bound (machines with many distinct link weights, or large sets on an
// irregular machine), insertion evicts an arbitrary resident entry:
// memory stays flat under churn, and an evicted mix is merely
// recomputed.
const maxMixSignatures = 4096

// topoMixes is one topology instance's derived scoring state: the pair
// table, which carries the instance's mix memo, built lazily and
// dropped by InvalidateMixes.
type topoMixes struct {
	top   *topology.Topology
	pairs atomic.Pointer[pairTable]
}

// pairTable is a topology's hardware graph as a dense matrix indexed by
// GPU ID, so Eq. 1 and Eq. 3 of a GPU set chosen off an availability
// mask are array reads instead of walks over a materialized subgraph.
// It also carries the instance's mix memo, keyed by the physical link
// classes among a set's GPUs, so the two are dropped together.
type pairTable struct {
	n    int
	w    []float64    // w[u*n+v]: weight of link (u,v), 0 when absent
	has  graph.Bitset // bit u*n+v: link (u,v) exists
	gpus graph.Bitset // bit g: GPU g is a vertex of the hardware graph
	// link[u*n+v] is the class of physical link (u,v) — one number per
	// distinct (label, weight bits) pair, from 1 — or 0 when there is
	// no physical link.
	link []uint32

	mu    sync.RWMutex
	mixes map[string]effbw.LinkCounts // link signature -> ring-channel mix
}

// pairsOf returns the topology's pair table, building it on first use
// (and again after InvalidateMixes).
func (tm *topoMixes) pairsOf() *pairTable {
	if pt := tm.pairs.Load(); pt != nil {
		return pt
	}
	n := graph.Capacity(tm.top.Graph)
	pt := &pairTable{
		n:     n,
		w:     make([]float64, n*n),
		has:   graph.NewBitset(n * n),
		gpus:  tm.top.Graph.VertexBitset(),
		link:  make([]uint32, n*n),
		mixes: make(map[string]effbw.LinkCounts),
	}
	tm.top.Graph.ForEachEdge(func(e graph.Edge) bool {
		pt.w[e.U*n+e.V], pt.w[e.V*n+e.U] = e.Weight, e.Weight
		pt.has.Set(e.U*n + e.V)
		pt.has.Set(e.V*n + e.U)
		return true
	})
	classes := make(map[[2]uint64]uint32) // (label, weight bits) -> class
	tm.top.Physical.ForEachEdge(func(e graph.Edge) bool {
		if !pt.gpus.Has(e.U) || !pt.gpus.Has(e.V) {
			return true // no mix names a GPU outside the hardware graph
		}
		c := [2]uint64{uint64(e.Label), math.Float64bits(e.Weight)}
		id, ok := classes[c]
		if !ok {
			id = uint32(len(classes)) + 1
			classes[c] = id
		}
		pt.link[e.U*n+e.V], pt.link[e.V*n+e.U] = id, id
		return true
	})
	tm.pairs.Store(pt)
	return pt
}

// aggBW computes Eq. 1 for the embedding that maps pattern position i
// onto data[i], the pattern's edges compiled to position pairs (see
// graph.EdgePositionsIn): the summed weights of the links the edges map
// onto. Link weights are integral, so the sum is exact in any order and
// bit-equal to AggregatedBandwidth.
func (pt *pairTable) aggBW(epos [][2]int, data []int) float64 {
	var agg float64
	for _, p := range epos {
		u, v := data[p[0]], data[p[1]]
		at := u*pt.n + v
		if !pt.has.Has(at) {
			panic(fmt.Sprintf("score: invalid embedding, data edge (%d,%d) missing", u, v))
		}
		agg += pt.w[at]
	}
	return agg
}

// internal is the summed weight of the links among an ascending GPU
// set: the per-set constant of the Eq. 3 delta decomposition.
func (pt *pairTable) internal(gpus []int) float64 {
	var sum float64
	for a, g := range gpus {
		row := pt.w[g*pt.n : (g+1)*pt.n]
		for _, h := range gpus[a+1:] {
			sum += row[h]
		}
	}
	return sum
}

// preserved computes Eq. 3 for allocating gpus out of the usable set:
// the total weight of the links among the usable GPUs left over, read
// off the usable mask's words with the chosen GPUs cleared. Link
// weights are integral, so the sum is exact in any order and bit-equal
// to PreservedBandwidth on the induced subgraph.
func (pt *pairTable) preserved(usable graph.Bitset, gpus []int) float64 {
	var words [4]uint64 // 256 GPUs on the stack; a larger machine grows onto the heap
	rest := append(words[:0], usable...)
	for _, g := range gpus {
		if g/64 < len(rest) {
			rest[g/64] &^= 1 << (uint(g) % 64)
		}
	}
	var sum float64
	for wi, w := range rest {
		for ; w != 0; w &= w - 1 {
			u := wi*64 + bits.TrailingZeros64(w)
			row := pt.w[u*pt.n : (u+1)*pt.n]
			// The left-over GPUs above u: the rest of u's word, then the
			// later words.
			for wj, x := wi, w&(w-1); ; x = rest[wj] {
				for ; x != 0; x &= x - 1 {
					sum += row[wj*64+bits.TrailingZeros64(x)]
				}
				if wj++; wj == len(rest) {
					break
				}
			}
		}
	}
	return sum
}

// maxMixTopologies bounds how many topology instances the process-wide
// mix registry tracks at once. Topologies are keyed by *instance*, not
// by name — distinct graphs can share a name (e.g. different MIG
// splits of one machine all render as "name+MIG"), and a name-keyed
// memo would serve one split's ring channels to another — and
// constructors mint fresh instances per call, so the registry evicts
// least-recently-used instances past the bound: a long-running process
// creating Systems forever stays bounded, while every live System
// (whose topology pointer it keeps touching) stays memoized. Evicted
// mixes are merely recomputed.
const maxMixTopologies = 16

// mixRegistry is the process-wide per-topology-instance mix registry.
var mixRegistry struct {
	mu  sync.Mutex
	m   map[*topology.Topology]*list.Element // -> element holding *topoMixes
	lru *list.List                           // front = most recently used
}

// mixesOf returns the topology instance's mix memo, creating it on
// first sight and evicting the least recently used instance past the
// registry bound.
func mixesOf(top *topology.Topology) *topoMixes {
	r := &mixRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[*topology.Topology]*list.Element)
		r.lru = list.New()
	}
	if el, ok := r.m[top]; ok {
		r.lru.MoveToFront(el)
		return el.Value.(*topoMixes)
	}
	tm := &topoMixes{top: top}
	r.m[top] = r.lru.PushFront(tm)
	for r.lru.Len() > maxMixTopologies {
		last := r.lru.Back()
		r.lru.Remove(last)
		delete(r.m, last.Value.(*topoMixes).top)
	}
	return tm
}

// InvalidateMixes drops every memoized link mix of the topology
// instance together with its pair table. Call it after mutating the
// instance's graphs in place (link degradation, fault-driven
// reweighting): the memo is keyed by link classes the pair table
// numbered from the old weights, so it would otherwise serve them
// forever. Dropping the whole instance is safe — mixes are merely
// recomputed. A topology the registry has never seen is a no-op.
func InvalidateMixes(top *topology.Topology) {
	r := &mixRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[top]; ok {
		el.Value.(*topoMixes).pairs.Store(nil)
	}
}

// mix returns the ring-channel link mix of the GPU set on the topology,
// memoized by the set's link signature: the physical link class of each
// pair (i < j) of its GPUs in ascending order. That is all that
// ncclsim.Decompose and effbw.MixFromDecomposition read, and the ring
// search breaks ties by that position order, so sets with one signature
// get one mix bit for bit; a signature canonicalized under permutation
// would not be exact. The memo is shared by every Scorer and Table
// build on the instance. The key is built on the stack, and a hit
// allocates nothing. A set naming a GPU outside the hardware graph, or
// one GPU twice, decomposes directly (which panics on the former).
func (tm *topoMixes) mix(gpus []int) effbw.LinkCounts {
	if len(gpus) < 2 {
		return effbw.LinkCounts{}
	}
	pt := tm.pairsOf()
	set := gpus
	if !slices.IsSorted(set) {
		var setBuf [16]int
		set = append(setBuf[:0], gpus...)
		slices.Sort(set)
	}
	var keyBuf [64]byte
	key := keyBuf[:0]
	for i, u := range set {
		// Ascending, so every later v is in the table's range once the
		// largest GPU is; a gap or a duplicate shows when it is u.
		if set[len(set)-1] >= pt.n || !pt.gpus.Has(u) || (i > 0 && u == set[i-1]) {
			return effbw.MixFromDecomposition(tm.top, ncclsim.Decompose(tm.top, gpus))
		}
		row := pt.link[u*pt.n : (u+1)*pt.n]
		for _, v := range set[i+1:] {
			key = binary.AppendUvarint(key, uint64(row[v]))
		}
	}
	pt.mu.RLock()
	mix, ok := pt.mixes[string(key)]
	pt.mu.RUnlock()
	if ok {
		return mix
	}
	mix = effbw.MixFromDecomposition(tm.top, ncclsim.Decompose(tm.top, gpus))
	pt.mu.Lock()
	if len(pt.mixes) >= maxMixSignatures {
		for k := range pt.mixes {
			delete(pt.mixes, k)
			break
		}
	}
	pt.mixes[string(key)] = mix
	pt.mu.Unlock()
	return mix
}

// Scorer evaluates all three MAPA metrics for candidate matches
// against one effective-bandwidth model. The per-subset ring-channel
// analysis — a function of the links among the GPU set only — is
// memoized per topology instance by the set's link signature. Scorer is
// safe for concurrent use.
type Scorer struct {
	Model *effbw.Model
}

// NewScorer returns a Scorer using the given Eq. 2 model. A nil model
// defaults to the paper's published Table 2 coefficients.
func NewScorer(m *effbw.Model) *Scorer {
	if m == nil {
		m = effbw.PaperModel()
	}
	return &Scorer{Model: m}
}

// Scores bundles every metric MAPA considers for one match.
type Scores struct {
	AggBW       float64
	EffBW       float64
	PreservedBW float64
	Mix         effbw.LinkCounts
}

// AllocationMix returns the (x, y, z) mix of the links the collective
// library's ring channels would traverse on the given allocation,
// memoized per topology instance by the allocation's link signature
// across the whole process.
func (s *Scorer) AllocationMix(top *topology.Topology, gpus []int) effbw.LinkCounts {
	return mixesOf(top).mix(gpus)
}

// Score evaluates the match of pattern into hw on the given machine.
// top supplies the physical link structure for the ring-channel
// analysis; if nil, the EffBW prediction falls back to the literal
// pattern-edge mix.
func (s *Scorer) Score(top *topology.Topology, pattern, hw *graph.Graph, m match.Match) Scores {
	return s.score(top, pattern, hw, m, nil)
}

// ScoreLedger is Score with Eq. 3 answered from a precomputed Ledger of
// hw — the per-decision fast path when many candidates share one
// availability graph. The ledger must have been built from hw.
func (s *Scorer) ScoreLedger(top *topology.Topology, pattern, hw *graph.Graph, m match.Match, led *Ledger) Scores {
	return s.score(top, pattern, hw, m, led)
}

func (s *Scorer) score(top *topology.Topology, pattern, hw *graph.Graph, m match.Match, led *Ledger) Scores {
	evaluations.Add(1)
	var mix effbw.LinkCounts
	if top != nil {
		mix = s.AllocationMix(top, m.DataVertices())
	} else {
		mix = UsedLinkMix(pattern, hw, m)
	}
	var preserved float64
	if led != nil {
		preserved = led.Preserved(m.DataVertices())
	} else {
		preserved = PreservedBandwidth(hw, m.DataVertices())
	}
	return Scores{
		AggBW:       AggregatedBandwidth(pattern, hw, m),
		EffBW:       s.Model.Predict(mix),
		PreservedBW: preserved,
		Mix:         mix,
	}
}

// ScoreRanked is Score for the rank-ordered embedding a policy that
// does not pattern-match reports — the pattern's ascending vertices
// (SortedVertices) onto the ascending gpus, i onto i — on the machine
// state whose usable GPUs are exactly the mask. It reads the topology's
// pair table where Score walks the availability graph, returns the same
// values bit for bit, and allocates nothing once the pattern's layout
// and the set's mix are memoized.
func (s *Scorer) ScoreRanked(top *topology.Topology, pattern *graph.Graph, gpus []int, usable graph.Bitset) Scores {
	evaluations.Add(1)
	tm := mixesOf(top)
	pt := tm.pairsOf()
	mix := tm.mix(gpus)
	return Scores{
		AggBW:       pt.aggBW(pattern.EdgePositions(), gpus),
		EffBW:       s.Model.Predict(mix),
		PreservedBW: pt.preserved(usable, gpus),
		Mix:         mix,
	}
}

// EffectiveBandwidth returns only the Eq. 2 prediction for the match.
func (s *Scorer) EffectiveBandwidth(top *topology.Topology, pattern, hw *graph.Graph, m match.Match) float64 {
	return s.Score(top, pattern, hw, m).EffBW
}
