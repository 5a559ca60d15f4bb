package policy

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

func ringReq(k int, sensitive bool) Request {
	return Request{Pattern: appgraph.Ring(k), Sensitive: sensitive}
}

// without returns g's induced subgraph after removing vs — the
// availability graph these tests describe machine states with; a
// decision takes its vertex set (VertexBitset) as the mask.
func without(g *graph.Graph, vs []int) *graph.Graph {
	c := g.Clone()
	for _, v := range vs {
		c.RemoveVertex(v)
	}
	return c
}

// The graph-walking Baseline and TopoAware, as they were before
// availability became a mask: they pick off and score on the induced
// availability graph. The mask implementations are property-tested
// against them below.

func refScoreAllocation(s *score.Scorer, avail *graph.Graph, top *topology.Topology, req Request, gpus []int) Allocation {
	data := append([]int(nil), gpus...)
	sort.Ints(data)
	m := match.Match{Pattern: req.Pattern.Vertices(), Data: data}
	return Allocation{
		GPUs:   m.DataVertices(),
		Match:  m,
		Scores: s.Score(top, req.Pattern, avail, m),
	}
}

func refValidate(avail *graph.Graph, req Request) error {
	if k := req.NumGPUs(); k < 1 || k > avail.NumVertices() {
		return ErrNoAllocation
	}
	return nil
}

func refBaseline(s *score.Scorer, avail *graph.Graph, top *topology.Topology, req Request) (Allocation, error) {
	if err := refValidate(avail, req); err != nil {
		return Allocation{}, err
	}
	return refScoreAllocation(s, avail, top, req, avail.Vertices()[:req.NumGPUs()]), nil
}

func refTopoAware(s *score.Scorer, avail *graph.Graph, top *topology.Topology, req Request) (Allocation, error) {
	if err := refValidate(avail, req); err != nil {
		return Allocation{}, err
	}
	k := req.NumGPUs()
	for _, part := range partitions(top) {
		var free []int
		for _, g := range part {
			if avail.HasVertex(g) {
				free = append(free, g)
			}
		}
		if len(free) >= k {
			sort.Ints(free)
			return refScoreAllocation(s, avail, top, req, free[:k]), nil
		}
	}
	return Allocation{}, ErrNoAllocation
}

// sameDecision reports whether two decisions agree on the GPU set, the
// embedding and every score field, bit for bit.
func sameDecision(a, b Allocation) bool {
	bitEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return reflect.DeepEqual(a.GPUs, b.GPUs) &&
		reflect.DeepEqual(a.Match, b.Match) &&
		bitEq(a.Scores.AggBW, b.Scores.AggBW) &&
		bitEq(a.Scores.EffBW, b.Scores.EffBW) &&
		bitEq(a.Scores.PreservedBW, b.Scores.PreservedBW) &&
		a.Scores.Mix == b.Scores.Mix
}

// TestMaskPoliciesMatchGraphReference: on every machine state the mask
// Baseline and TopoAware decide and score exactly as the graph-walking
// references do — full-capacity masks through a reused DecideInto
// buffer, and the shorter masks an availability graph with its
// highest-numbered GPUs busy yields through Allocate. The second leg
// runs after a DegradeLink-style weight edit: the pair table built
// during the first leg must not serve the old weight.
func TestMaskPoliciesMatchGraphReference(t *testing.T) {
	const masks = 500
	for _, name := range []string{"dgx-v100", "dgx-a100", "cluster-a100", "torus-2d", "cubemesh-16"} {
		t.Run(name, func(t *testing.T) {
			top, err := topology.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gpus := top.GPUs()
			reqs := []Request{ringReq(1, true)}
			for _, p := range appgraph.AllShapes(min(8, len(gpus))) {
				reqs = append(reqs, Request{Pattern: p, Sensitive: true})
			}
			scorer := score.NewScorer(nil)
			base, topo := NewBaseline(scorer), NewTopoAware(scorer)
			var baseBuf, topoBuf Allocation
			rng := rand.New(rand.NewSource(int64(len(name))))
			leg := func(leg string, n int) {
				evals := score.Evaluations()
				decisions := 0
				for i := 0; i < n; i++ {
					// Densities from nearly idle to nearly full; every
					// fourth state has the top of the ID range busy, so
					// the graph-cut mask is shorter than the machine.
					density := rng.Float64()
					keepBelow := len(gpus)
					if i%4 == 0 {
						keepBelow = rng.Intn(len(gpus))
					}
					var free []int
					for j, g := range gpus {
						if j < keepBelow && rng.Float64() < density {
							free = append(free, g)
						}
					}
					avail := top.Graph.InducedSubgraph(free)
					full := graph.NewBitset(graph.Capacity(top.Graph))
					for _, g := range free {
						full.Set(g)
					}
					for _, req := range reqs {
						for _, tc := range []struct {
							a   Allocator
							buf *Allocation
							ref func(*score.Scorer, *graph.Graph, *topology.Topology, Request) (Allocation, error)
						}{{base, &baseBuf, refBaseline}, {topo, &topoBuf, refTopoAware}} {
							before := score.Evaluations()
							want, wantErr := tc.ref(scorer, avail, top, req)
							evals += score.Evaluations() - before // the reference's own
							gotErr := DecideInto(tc.a, tc.buf, top, full, req)
							short, shortErr := tc.a.Allocate(top, avail.VertexBitset(), req)
							if wantErr != nil {
								if !errors.Is(wantErr, ErrNoAllocation) || !errors.Is(gotErr, ErrNoAllocation) || !errors.Is(shortErr, ErrNoAllocation) {
									t.Fatalf("%s %s free=%v k=%d: errors %v / %v / %v, want ErrNoAllocation",
										leg, tc.a.Name(), free, req.NumGPUs(), wantErr, gotErr, shortErr)
								}
								continue
							}
							if gotErr != nil || shortErr != nil {
								t.Fatalf("%s %s free=%v k=%d: %v / %v, reference placed %v",
									leg, tc.a.Name(), free, req.NumGPUs(), gotErr, shortErr, want.GPUs)
							}
							decisions += 2
							if !sameDecision(*tc.buf, want) || !sameDecision(short, want) {
								t.Fatalf("%s %s free=%v k=%d:\n mask   %+v\n short  %+v\n graph  %+v",
									leg, tc.a.Name(), free, req.NumGPUs(), *tc.buf, short, want)
							}
						}
					}
				}
				if got := score.Evaluations() - evals; got != uint64(decisions) {
					t.Fatalf("%s: %d score evaluations for %d mask decisions, want one each", leg, got, decisions)
				}
			}
			leg("pristine", masks)
			// Halve (to an integral weight) a link both policies price on
			// nearly every state: the one between the two lowest GPUs.
			e, ok := top.Graph.EdgeBetween(gpus[0], gpus[1])
			if !ok {
				t.Fatalf("no link (%d,%d)", gpus[0], gpus[1])
			}
			top.Graph.MustAddEdge(e.U, e.V, math.Floor(e.Weight/2), e.Label)
			if pe, ok := top.Physical.EdgeBetween(e.U, e.V); ok {
				top.Physical.MustAddEdge(e.U, e.V, math.Floor(e.Weight/2), pe.Label)
			}
			score.InvalidateMixes(top)
			leg("degraded", masks/5)
		})
	}
}

// TestRankedDecisionAllocations pins the cost class of a Baseline or
// TopoAware decision through a reused buffer: none. The pattern's
// vertices and edge positions are memoized on the pattern graph, the
// mix memo is looked up by a link signature built on the stack, Eq. 2
// expands its basis on the stack, and Eq. 1 and Eq. 3 are read off the
// pair table and the usable mask's words.
func TestRankedDecisionAllocations(t *testing.T) {
	top := topology.DGXV100()
	usable := top.Graph.VertexBitset()
	usable.Unset(1)
	usable.Unset(6)
	req := ringReq(4, true)
	for _, a := range []Allocator{NewBaseline(nil), NewTopoAware(nil)} {
		var buf Allocation
		decide := func() {
			if err := DecideInto(a, &buf, top, usable, req); err != nil {
				t.Fatal(err)
			}
		}
		decide()
		if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
			t.Errorf("%s: %v allocations per decision, want 0", a.Name(), allocs)
		}
	}
}

func allPolicies() []Allocator {
	var out []Allocator
	for _, name := range Names() {
		p, err := ByName(name, nil)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name, nil)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := ByName("random", nil); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestBaselinePicksLowestIDs(t *testing.T) {
	top := topology.DGXV100()
	b := NewBaseline(nil)
	alloc, err := b.Allocate(top, top.Graph.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alloc.GPUs, []int{0, 1, 2}) {
		t.Fatalf("baseline chose %v, want lowest IDs", alloc.GPUs)
	}
	// With 0 and 1 gone, it picks the next lowest.
	avail := without(top.Graph, []int{0, 1})
	alloc, err = b.Allocate(top, avail.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alloc.GPUs, []int{2, 3, 4}) {
		t.Fatalf("baseline chose %v, want {2,3,4}", alloc.GPUs)
	}
}

func TestTopoAwareStaysInSocket(t *testing.T) {
	top := topology.DGXV100()
	ta := NewTopoAware(nil)
	// With GPUs 0..2 busy, a 4-GPU job fits entirely in socket 1
	// {4..7}; baseline would fragment across {3,4,5,6}.
	avail := without(top.Graph, []int{0, 1, 2})
	alloc, err := ta.Allocate(top, avail.VertexBitset(), ringReq(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alloc.GPUs, []int{4, 5, 6, 7}) {
		t.Fatalf("topo-aware chose %v, want socket {4,5,6,7}", alloc.GPUs)
	}
}

func TestTopoAwarePrefersSmallestFittingPartition(t *testing.T) {
	top := topology.DGXV100()
	ta := NewTopoAware(nil)
	// A 2-GPU job on an idle machine should go to a half-socket
	// {0,1}, not spread out.
	alloc, err := ta.Allocate(top, top.Graph.VertexBitset(), ringReq(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alloc.GPUs, []int{0, 1}) {
		t.Fatalf("topo-aware chose %v, want {0,1}", alloc.GPUs)
	}
}

func TestTopoAwareSpansWhenNeeded(t *testing.T) {
	top := topology.DGXV100()
	ta := NewTopoAware(nil)
	// 3 free in socket 0, 2 free in socket 1; a 5-GPU job must span.
	avail := without(top.Graph, []int{3, 6, 7})
	alloc, err := ta.Allocate(top, avail.VertexBitset(), ringReq(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alloc.GPUs, []int{0, 1, 2, 4, 5}) {
		t.Fatalf("topo-aware chose %v", alloc.GPUs)
	}
}

func TestGreedyMaximizesAggBW(t *testing.T) {
	top := topology.DGXV100()
	g := NewGreedy(nil)
	alloc, err := g.Allocate(top, top.Graph.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	// The ideal 3-GPU triangle on an idle DGX-V aggregates 125 GB/s
	// (paper Sec. 2.2); greedy must find one of the equally-best sets.
	if alloc.Scores.AggBW != 125 {
		t.Fatalf("greedy AggBW = %g, want 125 (chose %v)", alloc.Scores.AggBW, alloc.GPUs)
	}
}

func TestPreserveSensitiveMaximizesEffBW(t *testing.T) {
	top := topology.DGXV100()
	p := NewPreserve(nil)
	alloc, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	// Verify no other deduped match predicts higher EffBW.
	s := score.NewScorer(nil)
	req := ringReq(3, true)
	for _, m := range match.FindAllDeduped(req.Pattern, top.Graph) {
		if got := s.EffectiveBandwidth(top, req.Pattern, top.Graph, m); got > alloc.Scores.EffBW+1e-9 {
			t.Fatalf("match %v has EffBW %g > chosen %g", m.DataVertices(), got, alloc.Scores.EffBW)
		}
	}
}

func TestPreserveInsensitiveMaximizesPreserved(t *testing.T) {
	top := topology.DGXV100()
	p := NewPreserve(nil)
	alloc, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(3, false))
	if err != nil {
		t.Fatal(err)
	}
	s := score.NewScorer(nil)
	req := ringReq(3, false)
	for _, m := range match.FindAllDeduped(req.Pattern, top.Graph) {
		if got := score.PreservedBandwidth(top.Graph, m.DataVertices()); got > alloc.Scores.PreservedBW+1e-9 {
			t.Fatalf("match %v preserves %g > chosen %g", m.DataVertices(), got, alloc.Scores.PreservedBW)
		}
	}
	_ = s
}

func TestPreserveLeavesRoomForSensitiveJobs(t *testing.T) {
	// The paper's headline mechanism: after an insensitive job,
	// Preserve leaves a better allocation for a following sensitive
	// job than Greedy does.
	top := topology.DGXV100()
	preserve := NewPreserve(nil)
	greedy := NewGreedy(nil)

	insens := ringReq(3, false)
	sens := ringReq(3, true)

	availP := top.Graph.Clone()
	a1, err := preserve.Allocate(top, availP.VertexBitset(), insens)
	if err != nil {
		t.Fatal(err)
	}
	availP = without(availP, a1.GPUs)
	p2, err := preserve.Allocate(top, availP.VertexBitset(), sens)
	if err != nil {
		t.Fatal(err)
	}

	availG := top.Graph.Clone()
	g1, err := greedy.Allocate(top, availG.VertexBitset(), insens)
	if err != nil {
		t.Fatal(err)
	}
	availG = without(availG, g1.GPUs)
	g2, err := greedy.Allocate(top, availG.VertexBitset(), sens)
	if err != nil {
		t.Fatal(err)
	}

	if p2.Scores.EffBW < g2.Scores.EffBW {
		t.Errorf("preserve left sensitive job EffBW %g < greedy's %g",
			p2.Scores.EffBW, g2.Scores.EffBW)
	}
}

func TestAllPoliciesRejectInfeasible(t *testing.T) {
	top := topology.DGXV100()
	for _, p := range allPolicies() {
		// More GPUs than the machine has.
		if _, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(9, true)); !errors.Is(err, ErrNoAllocation) {
			t.Errorf("%s: 9-GPU request on 8-GPU machine: err = %v", p.Name(), err)
		}
		// Not enough free GPUs.
		avail := without(top.Graph, []int{0, 1, 2, 3, 4, 5})
		if _, err := p.Allocate(top, avail.VertexBitset(), ringReq(3, true)); !errors.Is(err, ErrNoAllocation) {
			t.Errorf("%s: 3-GPU request with 2 free: err = %v", p.Name(), err)
		}
		// Degenerate request.
		empty := Request{Pattern: graph.New()}
		if _, err := p.Allocate(top, top.Graph.VertexBitset(), empty); !errors.Is(err, ErrNoAllocation) {
			t.Errorf("%s: empty request: err = %v", p.Name(), err)
		}
	}
}

func TestAllPoliciesSatisfyBasicContract(t *testing.T) {
	top := topology.DGXV100()
	for _, p := range allPolicies() {
		for k := 1; k <= 5; k++ {
			for _, sensitive := range []bool{true, false} {
				req := ringReq(k, sensitive)
				alloc, err := p.Allocate(top, top.Graph.VertexBitset(), req)
				if err != nil {
					t.Errorf("%s k=%d: %v", p.Name(), k, err)
					continue
				}
				if len(alloc.GPUs) != k {
					t.Errorf("%s k=%d: returned %d GPUs", p.Name(), k, len(alloc.GPUs))
				}
				seen := make(map[int]bool)
				for _, g := range alloc.GPUs {
					if seen[g] || !top.Graph.HasVertex(g) {
						t.Errorf("%s k=%d: invalid GPU set %v", p.Name(), k, alloc.GPUs)
					}
					seen[g] = true
				}
				if !match.IsEmbedding(req.Pattern, top.Graph, alloc.Match) {
					t.Errorf("%s k=%d: reported match is not an embedding", p.Name(), k)
				}
			}
		}
	}
}

func TestSingleGPURequests(t *testing.T) {
	top := topology.DGXV100()
	for _, p := range allPolicies() {
		alloc, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(1, false))
		if err != nil {
			t.Errorf("%s: 1-GPU request failed: %v", p.Name(), err)
			continue
		}
		if len(alloc.GPUs) != 1 {
			t.Errorf("%s: got %v", p.Name(), alloc.GPUs)
		}
	}
}

func TestMAPAPoliciesHonorNonRingPatterns(t *testing.T) {
	top := topology.DGXV100()
	p := NewPreserve(nil)
	for _, shape := range appgraph.Shapes() {
		g, err := appgraph.Build(shape, 4)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := p.Allocate(top, top.Graph.VertexBitset(), Request{Pattern: g, Sensitive: true})
		if err != nil {
			t.Errorf("shape %s: %v", shape, err)
			continue
		}
		if !match.IsEmbedding(g, top.Graph, alloc.Match) {
			t.Errorf("shape %s: invalid embedding", shape)
		}
	}
}

func TestGreedyBeatsBaselineOnFragmentedMachine(t *testing.T) {
	// Make low IDs a bad choice: free set {0, 1, 4, 6, 7} — baseline
	// takes {0,1,4} (AggBW 87), greedy should find something better or
	// equal among free triangles.
	top := topology.DGXV100()
	avail := without(top.Graph, []int{2, 3, 5})
	b, err := NewBaseline(nil).Allocate(top, avail.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGreedy(nil).Allocate(top, avail.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if g.Scores.AggBW < b.Scores.AggBW {
		t.Errorf("greedy AggBW %g < baseline %g", g.Scores.AggBW, b.Scores.AggBW)
	}
	if g.Scores.AggBW <= 87 {
		t.Errorf("greedy should beat the fragmented 87 GB/s, got %g (%v)", g.Scores.AggBW, g.GPUs)
	}
}

// Property: on a random available subgraph, every policy returns
// either ErrNoAllocation or a valid allocation drawn from free GPUs.
func TestPolicyContractProperty(t *testing.T) {
	top := topology.DGXV100()
	policies := allPolicies()
	f := func(seed int64, kRaw, polRaw uint8, sensitive bool) bool {
		r := rand.New(rand.NewSource(seed))
		busyCount := r.Intn(6)
		busy := r.Perm(8)[:busyCount]
		avail := without(top.Graph, busy)
		k := int(kRaw%5) + 1
		p := policies[int(polRaw)%len(policies)]
		alloc, err := p.Allocate(top, avail.VertexBitset(), ringReq(k, sensitive))
		if err != nil {
			return errors.Is(err, ErrNoAllocation) && k > avail.NumVertices() || errors.Is(err, ErrNoAllocation)
		}
		if len(alloc.GPUs) != k {
			return false
		}
		for _, g := range alloc.GPUs {
			if !avail.HasVertex(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionsCoverMachine(t *testing.T) {
	for _, name := range topology.Names() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		parts := partitions(top)
		if len(parts) == 0 {
			t.Fatalf("%s: no partitions", name)
		}
		last := parts[len(parts)-1]
		if len(last) != top.NumGPUs() {
			t.Errorf("%s: largest partition has %d GPUs, want %d", name, len(last), top.NumGPUs())
		}
		for i := 1; i < len(parts); i++ {
			if len(parts[i-1]) > len(parts[i]) {
				t.Errorf("%s: partitions not sorted by size", name)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Same inputs must give the same allocation (deterministic
	// tie-breaking).
	top := topology.DGXV100()
	for _, p := range allPolicies() {
		first, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(4, true))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(4, true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.GPUs, again.GPUs) {
				t.Errorf("%s: nondeterministic: %v vs %v", p.Name(), first.GPUs, again.GPUs)
			}
		}
	}
}
