package match

import (
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/topology"
)

// TestClusterGoldenEmbeddingCounts pins embedding counts for small
// patterns on the synthetic 9-node (72-GPU) DGX-A100 cluster — the
// first topology whose vertex bitsets span multiple uint64 words. The
// hardware graph is complete (intra-node NVSwitch + inter-node PCIe
// fallback), so every count has a closed form on K_72:
//
//	Ring(2):  deduped = C(72,2),   raw = 2 per class (|Aut| = 2)
//	Ring(3):  deduped = C(72,3),   raw = 6 per class (|Aut| = 6)
//	Chain(3): deduped = 3*C(72,3), raw = 2 per class (|Aut| = 2)
func TestClusterGoldenEmbeddingCounts(t *testing.T) {
	top := topology.ClusterA100(9)
	if got := top.NumGPUs(); got != 72 {
		t.Fatalf("9-node cluster has %d GPUs, want 72", got)
	}
	const (
		c72x2 = 72 * 71 / 2
		c72x3 = 72 * 71 * 70 / 6
	)
	cases := []struct {
		name    string
		pattern *graph.Graph
		raw     int
		deduped int
	}{
		{"Ring(2)", appgraph.Ring(2), 2 * c72x2, c72x2},
		{"Ring(3)", appgraph.Ring(3), 6 * c72x3, c72x3},
		{"Chain(3)", appgraph.Chain(3), 2 * 3 * c72x3, 3 * c72x3},
	}
	for _, tc := range cases {
		if got := CountEmbeddings(tc.pattern, top.Graph); got != tc.raw {
			t.Errorf("%s raw count = %d, want %d", tc.name, got, tc.raw)
		}
		ms, _ := FindAllDedupedCappedKeys(tc.pattern, top.Graph, 0)
		if got := len(ms); got != tc.deduped {
			t.Errorf("%s deduped count = %d, want %d", tc.name, got, tc.deduped)
		}
		if aut := Automorphisms(tc.pattern); tc.raw != tc.deduped*aut {
			t.Errorf("%s closed-form cross-check: raw %d != deduped %d x |Aut| %d", tc.name, tc.raw, tc.deduped, aut)
		}
	}
}

// TestClusterUniverseFiltersAcrossWordBoundary builds the idle-state
// universe of the triangle on the 72-GPU cluster and filters it with
// free-GPU masks that live in the second bitset word, straddle the
// 64-bit boundary, and span both words — each must reproduce the
// sequential enumeration on the induced subgraph exactly.
func TestClusterUniverseFiltersAcrossWordBoundary(t *testing.T) {
	top := topology.ClusterA100(9)
	pattern := appgraph.Ring(3)
	u := BuildUniverse(pattern, top.Graph, 0)
	if !u.Complete() {
		t.Fatal("triangle universe on the cluster must be complete")
	}
	const c72x3 = 72 * 71 * 70 / 6
	if u.Len() != c72x3 {
		t.Fatalf("universe holds %d classes, want %d", u.Len(), c72x3)
	}

	choose3 := func(n int) int { return n * (n - 1) * (n - 2) / 6 }
	frees := []struct {
		name string
		gpus []int
		want int
	}{
		{"word1-only", intsRange(64, 72), choose3(8)},
		{"straddling", intsRange(56, 72), choose3(16)},
		{"both-words-sparse", []int{0, 1, 8, 40, 63, 64, 65, 71}, choose3(8)},
	}
	for _, tc := range frees {
		avail := top.Graph.InducedSubgraph(tc.gpus)
		idx, truncated := u.Filter(avail.VertexBitset(), 0)
		if truncated {
			t.Fatalf("%s: unlimited filter truncated", tc.name)
		}
		if len(idx) != tc.want {
			t.Fatalf("%s: filter kept %d classes, want %d", tc.name, len(idx), tc.want)
		}
		_, wantKeys := FindAllDedupedCappedKeys(pattern, avail, 0)
		if len(wantKeys) != len(idx) {
			t.Fatalf("%s: sequential enumeration found %d classes, filter %d", tc.name, len(wantKeys), len(idx))
		}
		for j, i := range idx {
			if u.Key(pattern, i) != wantKeys[j] {
				t.Fatalf("%s class %d: key %q, want %q", tc.name, j, u.Key(pattern, i), wantKeys[j])
			}
		}
	}
}

func intsRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// TestSymmetryBreakingVisitsOneTuplePerClass pins the work the
// symmetry-broken search saves: a deduplicated enumeration reaches one
// full tuple per class instead of |Aut(P)| — Ring(3) on the 72-GPU
// cluster visits 59,640 tuples instead of 357,840, Chain(3) half of
// its raw tuples, and AllToAll(5) on a DGX-V 1/120th — and the orbit
// computation behind the table runs no search.
func TestSymmetryBreakingVisitsOneTuplePerClass(t *testing.T) {
	cluster, dgxv := topology.ClusterA100(9).Graph, topology.DGXV100().Graph
	for _, tc := range []struct {
		name          string
		pattern, data *graph.Graph
		raw, classes  int
	}{
		{"Ring(3)/cluster", appgraph.Ring(3), cluster, 357840, 59640},
		{"Chain(3)/cluster", appgraph.Chain(3), cluster, 357840, 178920},
		{"AllToAll(5)/dgx-v100", appgraph.AllToAll(5), dgxv, 6720, 56},
	} {
		before := Searches()
		s := compileDeduped(tc.pattern, tc.data)
		if Searches() != before {
			t.Fatalf("%s: compiling the symmetry-breaking table counted a search", tc.name)
		}
		visited := 0
		s.run(func(Match) bool {
			visited++
			return true
		})
		if raw := CountEmbeddings(tc.pattern, tc.data); raw != tc.raw || visited != tc.classes {
			t.Fatalf("%s: %d tuples visited of %d raw, want %d of %d", tc.name, visited, raw, tc.classes, tc.raw)
		}
	}
}
