// Package policy implements the four allocation policies the paper
// evaluates (Sec. 4) plus ablation variants:
//
//   - Baseline: lowest available GPU IDs, as nvidia-docker assigns.
//   - TopoAware: recursive bi-partitioning (Amaral et al.), packing
//     jobs under one PCIe tree / CPU socket where possible.
//   - Greedy: MAPA pattern matching, selecting the match with maximum
//     Aggregated Bandwidth (Eq. 1).
//   - Preserve: MAPA's Algorithm 1 — bandwidth-sensitive jobs get the
//     match with the highest Predicted Effective Bandwidth (Eq. 2);
//     insensitive jobs get the match preserving the most remaining
//     bandwidth (Eq. 3) for future sensitive jobs.
//
// Policies decide on a read-only topology and an availability mask —
// the machine's usable (free and healthy) GPUs as a bitset indexed by
// GPU ID. They return the chosen GPU IDs together with the match and
// scores that justified the choice.
package policy

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/matchcache"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// ErrNoAllocation is returned when the request cannot be satisfied on
// the available hardware (not enough free GPUs, or no embedding).
var ErrNoAllocation = errors.New("policy: no feasible allocation")

// Request describes one job's allocation needs.
type Request struct {
	// Pattern is the application communication graph; its vertex count
	// is the number of GPUs requested.
	Pattern *graph.Graph
	// Sensitive is the job's bandwidth-sensitivity annotation
	// (Algorithm 1 input).
	Sensitive bool
}

// NumGPUs returns the GPU count the request asks for.
func (r Request) NumGPUs() int { return r.Pattern.NumVertices() }

// Allocation is a policy decision.
type Allocation struct {
	// GPUs are the chosen device IDs, ascending.
	GPUs []int
	// Match is the pattern embedding behind the choice. Policies that
	// do not pattern-match (Baseline, TopoAware) synthesize an
	// identity-order embedding for reporting.
	Match match.Match
	// Scores are the MAPA metrics of the chosen match.
	Scores score.Scores
}

// Allocator is an allocation policy.
type Allocator interface {
	// Name identifies the policy in reports.
	Name() string
	// Allocate chooses GPUs for the request among top's usable GPUs.
	// usable must be a subset of top.Graph's vertices; the policy reads
	// both and mutates neither. top is nil only for a fleet too large to
	// flatten, where a MAPA policy decides on its attached fleet view
	// set alone (AttachFleet).
	Allocate(top *topology.Topology, usable graph.Bitset, req Request) (Allocation, error)
}

// DefaultMaxCandidates bounds how many deduplicated matches a MAPA
// policy scores per decision, protecting against combinatorial blow-up
// on large machines with large jobs (the regime Fig. 19 quantifies).
// Zero means unlimited.
const DefaultMaxCandidates = 250000

func validate(usable graph.Bitset, req Request) error {
	k := req.NumGPUs()
	if k < 1 {
		return fmt.Errorf("policy: request for %d GPUs: %w", k, ErrNoAllocation)
	}
	if k > usable.Count() {
		return ErrNoAllocation
	}
	return nil
}

// lowestInto refills gpus with the k lowest members of usable — of
// usable ∧ within when within is non-nil — and reports whether there
// are that many. The masks may differ in word length.
func lowestInto(gpus []int, usable, within graph.Bitset, k int) ([]int, bool) {
	gpus = gpus[:0]
	for wi, w := range usable {
		if within != nil {
			if wi >= len(within) {
				break
			}
			w &= within[wi]
		}
		for ; w != 0; w &= w - 1 {
			gpus = append(gpus, wi*64+bits.TrailingZeros64(w))
			if len(gpus) == k {
				return gpus, true
			}
		}
	}
	return gpus, false
}

// wholeMachine is the partition list of a policy that places anywhere.
var wholeMachine = []graph.Bitset{nil}

// rankedInto is the decision of the policies that do not pattern-match:
// the lowest usable GPU IDs of the first partition that has enough of
// them, the pattern embedded onto those in sorted-ID order — the way
// rank-ordered frameworks map devices when no matcher is involved — and
// the MAPA metrics of that embedding for reporting.
func rankedInto(buf *Allocation, s *score.Scorer, top *topology.Topology, usable graph.Bitset, req Request, parts []graph.Bitset) error {
	if err := validate(usable, req); err != nil {
		return err
	}
	for _, part := range parts {
		var ok bool
		if buf.GPUs, ok = lowestInto(buf.GPUs, usable, part, req.NumGPUs()); !ok {
			continue
		}
		buf.Match.Pattern = append(buf.Match.Pattern[:0], req.Pattern.SortedVertices()...)
		buf.Match.Data = append(buf.Match.Data[:0], buf.GPUs...)
		buf.Scores = s.ScoreRanked(top, req.Pattern, buf.GPUs, usable)
		return nil
	}
	// The partition tree ends with the whole machine, so reaching here
	// means not enough usable GPUs anywhere.
	return ErrNoAllocation
}

// Baseline allocates the lowest free GPU IDs, mirroring default GPU
// assignment in container runtimes.
type Baseline struct {
	scorer *score.Scorer
}

// NewBaseline returns the baseline policy. scorer may be nil (paper
// model) and is used only for reporting scores.
func NewBaseline(s *score.Scorer) *Baseline {
	return &Baseline{scorer: orDefault(s)}
}

func (b *Baseline) Name() string { return "baseline" }

func (b *Baseline) Allocate(top *topology.Topology, usable graph.Bitset, req Request) (Allocation, error) {
	var alloc Allocation
	err := DecideInto(b, &alloc, top, usable, req)
	return alloc, err
}

// TopoAware implements the recursive bi-partitioning scheduler of
// Amaral et al.: the machine is split into a partition tree (machine →
// sockets → halves → ...); the job goes to the smallest partition that
// still has enough free GPUs, which keeps allocations under one PCIe
// tree when possible.
type TopoAware struct {
	scorer *score.Scorer
	// parts memoizes the partition tree of the topology last decided
	// on: the tree depends on the socket layout alone, which no
	// topology mutation edits in place.
	parts atomic.Pointer[partitionMasks]
}

// partitionMasks is a topology's partition tree as GPU masks, in
// partitions' order.
type partitionMasks struct {
	top   *topology.Topology
	masks []graph.Bitset
}

// NewTopoAware returns the topology-aware baseline policy.
func NewTopoAware(s *score.Scorer) *TopoAware {
	return &TopoAware{scorer: orDefault(s)}
}

func (t *TopoAware) Name() string { return "topo-aware" }

// partitions returns the partition tree of the topology as a list of
// GPU sets, smallest first: recursive halves of each socket, sockets,
// then the whole machine.
func partitions(top *topology.Topology) [][]int {
	var out [][]int
	var split func(set []int)
	split = func(set []int) {
		if len(set) == 0 {
			return
		}
		out = append(out, set)
		if len(set) <= 2 {
			return
		}
		mid := len(set) / 2
		split(set[:mid])
		split(set[mid:])
	}
	sockets := top.SortedSockets()
	if len(sockets) == 0 {
		sockets = [][]int{top.GPUs()}
	}
	for _, s := range sockets {
		split(s)
	}
	out = append(out, top.GPUs())
	sort.Slice(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// partitionsOf returns top's partition tree as masks, computed on the
// first decision for the topology. The order is partitions' own — its
// sort is not stable, so the list is kept, never rebuilt per decision.
func (t *TopoAware) partitionsOf(top *topology.Topology) []graph.Bitset {
	if pm := t.parts.Load(); pm != nil && pm.top == top {
		return pm.masks
	}
	pm := &partitionMasks{top: top}
	n := graph.Capacity(top.Graph)
	for _, part := range partitions(top) {
		mask := graph.NewBitset(n)
		for _, g := range part {
			mask.Set(g)
		}
		pm.masks = append(pm.masks, mask)
	}
	t.parts.Store(pm)
	return pm.masks
}

func (t *TopoAware) Allocate(top *topology.Topology, usable graph.Bitset, req Request) (Allocation, error) {
	var alloc Allocation
	err := DecideInto(t, &alloc, top, usable, req)
	return alloc, err
}

// metric identifies one MAPA score dimension inside a policy's
// selection order.
type metric int

const (
	metricAggBW metric = iota
	metricEffBW
	metricPreservedBW
)

// metricOf extracts the named dimension from a score bundle.
func metricOf(s score.Scores, m metric) float64 {
	switch m {
	case metricAggBW:
		return s.AggBW
	case metricEffBW:
		return s.EffBW
	default:
		return s.PreservedBW
	}
}

// mapaPolicy is the shared pattern-match-then-select skeleton of the
// MAPA policies (Fig. 7). rank names the request's selection order —
// primary metric, then secondary — from which both the dynamic
// comparator (better) and the table-served selection derive, so the
// two paths apply one definition of the total order. AggBW and EffBW
// are state-independent (precomputable per candidate at universe build
// time); PreservedBW is the one state-dependent dimension.
type mapaPolicy struct {
	name          string
	scorer        *score.Scorer
	maxCandidates int
	workers       int
	store         *matchcache.Store
	views         *matchcache.Views
	fleet         *matchcache.FleetViews
	rank          func(req Request) [2]metric
	walk          preservedWalk
}

// better reports whether score bundle b strictly precedes a under the
// request's selection order: primary metric descending, then secondary
// metric descending.
func (p *mapaPolicy) better(req Request, a, b score.Scores) bool {
	r := p.rank(req)
	if av, bv := metricOf(a, r[0]), metricOf(b, r[0]); bv != av {
		return bv > av
	}
	return metricOf(b, r[1]) > metricOf(a, r[1])
}

func (p *mapaPolicy) Name() string { return p.name }

func (p *mapaPolicy) Allocate(top *topology.Topology, usable graph.Bitset, req Request) (Allocation, error) {
	var alloc Allocation
	err := DecideInto(p, &alloc, top, usable, req)
	return alloc, err
}

// AllocateInto is Allocate writing the decision into a caller-supplied
// buffer. A decision is made one of two ways, byte-identical by
// construction and by test: table-served off the stream's usable mask
// and the shape's score table (buf's slices are truncated and refilled
// in place, so a caller reusing one buffer pays zero allocations), or
// — when no view set is attached or it declines (see
// matchcache.Views.SelectLive) — by a fresh search on the subgraph of
// top.Graph the usable GPUs induce, materialized for that one search,
// whose result replaces buf. On error
// buf's contents are unspecified.
//
// With a fleet view set attached (AttachFleet) the hierarchical
// template decision goes first, also in place. It is final when it
// places the pattern inside one node; when it declines or no node can
// host the pattern, the flat path above decides on top — the flattened
// fleet — and with top nil (a fleet too large to flatten) the request
// fails with ErrNoAllocation.
func (p *mapaPolicy) AllocateInto(buf *Allocation, top *topology.Topology, usable graph.Bitset, req Request) error {
	if err := validate(usable, req); err != nil {
		return err
	}
	if p.fleet != nil {
		if served, err := p.allocateFleetInto(buf, usable, req); served && !errors.Is(err, ErrNoAllocation) {
			return err
		}
		if top == nil {
			return fmt.Errorf("policy: no single node can host %d GPUs and the fleet is above the flatten limit, so no node-spanning placement is searched: %w",
				req.NumGPUs(), ErrNoAllocation)
		}
	}
	if p.views.Bound(top) {
		if err, served := p.allocateScoredInto(buf, usable, req); served {
			return err
		}
	}
	al, err := p.allocateSearch(top.Graph.InducedSubgraph(usable.Members()), top, req)
	if err != nil {
		return err
	}
	*buf = al
	return nil
}

// DecideInto runs a's decision into a caller-supplied buffer: buf's
// slices are truncated and refilled in place, so a caller reusing one
// buffer pays no allocation for the built-in policies' result (an
// Allocator from elsewhere decides through Allocate and buf takes its
// result). On error buf's contents are unspecified. With top nil only
// a MAPA policy with a fleet view set attached can place anything.
func DecideInto(a Allocator, buf *Allocation, top *topology.Topology, usable graph.Bitset, req Request) error {
	if p, ok := a.(*mapaPolicy); ok {
		return p.AllocateInto(buf, top, usable, req)
	}
	if top == nil {
		// Only the MAPA policies decide on fleet templates; a policy that
		// ranks GPUs needs the flat machine.
		return fmt.Errorf("policy: %s needs a flat topology: %w", a.Name(), ErrNoAllocation)
	}
	switch p := a.(type) {
	case *Baseline:
		return rankedInto(buf, p.scorer, top, usable, req, wholeMachine)
	case *TopoAware:
		return rankedInto(buf, p.scorer, top, usable, req, p.partitionsOf(top))
	}
	al, err := a.Allocate(top, usable, req)
	if err != nil {
		return err
	}
	*buf = al
	return nil
}

// AllocateInto is DecideInto for a caller that still keeps its free set
// as the induced availability graph: avail's vertex set is the mask.
// bench/ links this signature; it goes when bench/ holds a mask.
func AllocateInto(a Allocator, buf *Allocation, avail *graph.Graph, top *topology.Topology, req Request) error {
	return DecideInto(a, buf, top, avail.VertexBitset(), req)
}

// allocateSearch is the paper's per-decision pipeline (Fig. 7 /
// Algorithm 1) run from scratch on the availability graph — the
// subgraph of top.Graph induced by the usable GPUs: enumerate
// the pattern's deduplicated matches (capped at maxCandidates, with
// p.workers goroutines when more than one is configured — the parallel
// enumeration materializes the exact sequential candidate prefix),
// score them, select under the policy's total order. It is the only
// path below the table-served one, the decision a policy with nothing
// attached makes, and the reference every parity test compares
// against; its cost is what Fig. 19 measures.
func (p *mapaPolicy) allocateSearch(avail *graph.Graph, top *topology.Topology, req Request) (Allocation, error) {
	ms, keys := match.FindAllDedupedParallelKeys(req.Pattern, avail, p.workers, p.maxCandidates)
	if len(ms) == 0 {
		return Allocation{}, ErrNoAllocation
	}
	// One pooled bandwidth ledger prices Eq. 3 for the whole candidate
	// list: candidates share the availability graph, so each one costs
	// O(k²) arithmetic instead of an O(V+E) graph sweep.
	led := score.BorrowLedger(avail)
	defer led.Recycle()
	scores := make([]score.Scores, len(ms))
	scoreFrom := func(start, stride int) {
		for i := start; i < len(ms); i += stride {
			scores[i] = p.scorer.ScoreLedger(top, req.Pattern, avail, ms[i], led)
		}
	}
	// Scoring "is a data parallel problem" (Sec. 5.4): fan it out over
	// the same worker count.
	if workers := min(p.workers, len(ms)); workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scoreFrom(w, workers)
			}(w)
		}
		wg.Wait()
	} else {
		scoreFrom(0, 1)
	}
	var best Allocation
	bestKey := ""
	for i, m := range ms {
		cand := Allocation{GPUs: m.DataVertices(), Match: m, Scores: scores[i]}
		if i == 0 || p.beats(req, best, cand, bestKey, keys[i]) {
			best, bestKey = cand, keys[i]
		}
	}
	// The candidates' Data share one arena: copy the winner's so a
	// retained allocation does not pin the whole candidate list.
	best.Match = best.Match.Clone()
	return best, nil
}

// lexLess orders GPU sets for deterministic tie-breaking.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// NewGreedy returns MAPA with the Greedy selection policy: maximum
// Aggregated Bandwidth (Eq. 1), ignoring sensitivity. Both selection
// metrics are state-independent, so the table-served path answers
// Greedy decisions from a precomputed selection order alone.
func NewGreedy(s *score.Scorer) Allocator {
	sc := orDefault(s)
	return &mapaPolicy{
		name:          "greedy",
		scorer:        sc,
		maxCandidates: DefaultMaxCandidates,
		rank: func(Request) [2]metric {
			return [2]metric{metricAggBW, metricEffBW}
		},
	}
}

// NewPreserve returns MAPA with the Preserve selection policy
// (Algorithm 1): sensitive jobs maximize Predicted Effective
// Bandwidth; insensitive jobs maximize Preserved Bandwidth.
func NewPreserve(s *score.Scorer) Allocator {
	sc := orDefault(s)
	return &mapaPolicy{
		name:          "preserve",
		scorer:        sc,
		maxCandidates: DefaultMaxCandidates,
		rank: func(req Request) [2]metric {
			if req.Sensitive {
				return [2]metric{metricEffBW, metricPreservedBW}
			}
			return [2]metric{metricPreservedBW, metricEffBW}
		},
	}
}

// NewEffBWOnly returns an ablation policy that maximizes Predicted
// Effective Bandwidth for every job regardless of sensitivity —
// isolating the contribution of the preservation rule.
func NewEffBWOnly(s *score.Scorer) Allocator {
	sc := orDefault(s)
	return &mapaPolicy{
		name:          "effbw-only",
		scorer:        sc,
		maxCandidates: DefaultMaxCandidates,
		rank: func(Request) [2]metric {
			return [2]metric{metricEffBW, metricPreservedBW}
		},
	}
}

// NewPreserveAggBW returns an ablation of Preserve that scores
// sensitive jobs with Aggregated instead of Effective Bandwidth —
// quantifying how much the Eq. 2 model matters (the paper's Fig. 11
// argument).
func NewPreserveAggBW(s *score.Scorer) Allocator {
	sc := orDefault(s)
	return &mapaPolicy{
		name:          "preserve-aggbw",
		scorer:        sc,
		maxCandidates: DefaultMaxCandidates,
		rank: func(req Request) [2]metric {
			if req.Sensitive {
				return [2]metric{metricAggBW, metricPreservedBW}
			}
			return [2]metric{metricPreservedBW, metricAggBW}
		},
	}
}

func orDefault(s *score.Scorer) *score.Scorer {
	if s == nil {
		return score.NewScorer(nil)
	}
	return s
}

// ByName constructs a policy by its report name. A nil scorer uses the
// paper's Table 2 model.
func ByName(name string, s *score.Scorer) (Allocator, error) {
	switch name {
	case "baseline":
		return NewBaseline(s), nil
	case "topo-aware":
		return NewTopoAware(s), nil
	case "greedy":
		return NewGreedy(s), nil
	case "preserve":
		return NewPreserve(s), nil
	case "effbw-only":
		return NewEffBWOnly(s), nil
	case "preserve-aggbw":
		return NewPreserveAggBW(s), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// Names lists the policies accepted by ByName; the first four are the
// paper's evaluation set.
func Names() []string {
	return []string{"baseline", "topo-aware", "greedy", "preserve", "effbw-only", "preserve-aggbw"}
}
