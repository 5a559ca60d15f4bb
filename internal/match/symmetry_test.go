package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/mig"
	"mapa/internal/topology"
)

// TestSymmetryBreakingMatchesKeyedDedup is the byte-identity contract
// of the symmetry-broken enumeration: on every catalog machine and the
// 72-GPU cluster (hardware and physical-link graphs both), a
// MIG-composed DGX-A100 with sparse instance IDs, and random
// pattern/data pairs including disconnected and non-complete ones, the
// deduplicated enumerations return the keyed-dedup oracle's
// representatives, order and keys — at every cap —
// and a universe on a complete graph holds exactly the oracle's
// classes, in emission order (one on any other graph is incomplete). The matcher
// reads a graph's vertex IDs and adjacency only, so a machine whose
// graph repeats an earlier one's (dgx-2, torus-2d and cubemesh-16 are
// all K16 on IDs 0..15) is checked once.
func TestSymmetryBreakingMatchesKeyedDedup(t *testing.T) {
	type machine struct {
		name     string
		g        *graph.Graph
		maxShape int
	}
	var machines []machine
	add := func(top *topology.Topology, maxShape int) {
		machines = append(machines,
			machine{top.Name + "/graph", top.Graph, maxShape},
			machine{top.Name + "/physical", top.Physical, maxShape})
	}
	for _, name := range topology.Names() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(top, 5)
	}
	add(topology.ClusterA100(9), 3)
	vt, err := mig.Compose(topology.DGXA100(), map[int][]int{
		0: {0, 1, 2}, 1: {9}, 2: {20, 21}, 3: {33}, 4: {63, 64}, 5: {70, 71, 72, 73}, 6: {90}, 7: {128},
	})
	if err != nil {
		t.Fatal(err)
	}
	add(vt.Topology, 5)
	pairs := 0
	checked := make(map[string]bool)
	for _, m := range machines {
		shape := fmt.Sprint(m.g.Vertices(), m.g.EdgePositions())
		if checked[shape] {
			continue
		}
		checked[shape] = true
		for _, pattern := range appgraph.AllShapes(min(m.maxShape, m.g.NumVertices())) {
			checkKeyedDedupParity(t, fmt.Sprintf("%s/%dv%de", m.name, pattern.NumVertices(), pattern.NumEdges()), pattern, m.g)
			pairs++
		}
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 300; i++ {
		pattern := randomPairGraph(rng, 1+rng.Intn(5), rng.Float64())
		data := randomPairGraph(rng, 1+rng.Intn(9), 0.3+0.7*rng.Float64())
		checkKeyedDedupParity(t, fmt.Sprintf("random %d: %v in %v", i, pattern, data), pattern, data)
		pairs++
	}
	t.Logf("%d pattern/data pairs identical at caps 0, 1, 7, 997", pairs)
}

// checkKeyedDedupParity compares the deduplicated enumerations and a
// universe build of pattern on data against the keyed-dedup oracle.
func checkKeyedDedupParity(t *testing.T, name string, pattern, data *graph.Graph) {
	t.Helper()
	want, wantKeys := match.RefDedupedKeys(pattern, data, 0)
	for _, max := range []int{0, 1, 7, 997} {
		n := len(want)
		if max > 0 {
			n = min(n, max)
		}
		got, keys := match.FindAllDedupedCappedKeys(pattern, data, max)
		if err := sameClasses(got, keys, want[:n], wantKeys[:n]); err != nil {
			t.Fatalf("%s max=%d: %v", name, max, err)
		}
	}
	u := match.BuildUniverse(pattern, data, 0)
	if n := data.NumVertices(); !u.Complete() {
		if data.NumEdges() == n*(n-1)/2 {
			t.Fatalf("%s: the universe of a complete graph is incomplete", name)
		}
		return // no closed form off complete graphs
	}
	got, keys := make([]match.Match, u.Len()), make([]string, u.Len())
	for j, i := range u.Emission() {
		got[j], keys[j] = u.Match(i), u.Key(pattern, i)
	}
	if err := sameClasses(got, keys, want, wantKeys); err != nil {
		t.Fatalf("%s universe: %v", name, err)
	}
}

// sameClasses reports the first difference between two representative
// lists: count, Pattern, Data or key.
func sameClasses(got []match.Match, gotKeys []string, want []match.Match, wantKeys []string) error {
	if len(got) != len(want) || len(gotKeys) != len(wantKeys) {
		return fmt.Errorf("%d classes (%d keys), want %d", len(got), len(gotKeys), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Pattern, want[i].Pattern) || !slices.Equal(got[i].Data, want[i].Data) {
			return fmt.Errorf("class %d: %v->%v, want %v->%v", i, got[i].Pattern, got[i].Data, want[i].Pattern, want[i].Data)
		}
		if gotKeys[i] != wantKeys[i] {
			return fmt.Errorf("class %d: key %q, want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	return nil
}

// randomPairGraph builds an n-vertex graph on sparse IDs (spanning two
// bitset words) with independent edge probability p; low p yields
// disconnected graphs.
func randomPairGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	ids := rng.Perm(100)[:n]
	slices.Sort(ids)
	for _, v := range ids {
		g.AddVertex(v)
	}
	for i := range ids {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(ids[i], ids[j], 1, 0)
			}
		}
	}
	return g
}
