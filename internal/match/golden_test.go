package match

import (
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/topology"
)

// TestGoldenEmbeddingCounts pins CountEmbeddings and the deduplicated
// match counts for the canonical application patterns on the DGX-V
// (hardware and physical link graphs) and DGX-A100 topologies. The
// complete-graph rows have closed forms — raw = 8!/(8-k)! injective
// mappings, deduped = C(8,k) x (distinct pattern edge-sets per vertex
// set) — so any matcher refactor that silently changes semantics
// breaks loudly here.
func TestGoldenEmbeddingCounts(t *testing.T) {
	dgxv := topology.DGXV100()
	dgxa := topology.DGXA100()
	type pat struct {
		name string
		g    *graph.Graph
	}
	pats := []pat{
		{"Ring(3)", appgraph.Ring(3)},
		{"Ring(4)", appgraph.Ring(4)},
		{"Ring(5)", appgraph.Ring(5)},
		{"Chain(3)", appgraph.Chain(3)},
		{"Chain(4)", appgraph.Chain(4)},
		{"Star(4)", appgraph.Star(4)},
		{"AllToAll(4)", appgraph.AllToAll(4)},
		{"Tree(4)", appgraph.Tree(4)},
	}
	golden := []struct {
		topo    string
		data    *graph.Graph
		raw     []int
		deduped []int
	}{
		{
			// Complete 8-vertex hardware graph: raw counts are P(8,k).
			topo:    "DGX-V/hardware",
			data:    dgxv.Graph,
			raw:     []int{336, 1680, 6720, 336, 1680, 1680, 1680, 1680},
			deduped: []int{56, 210, 672, 168, 840, 280, 70, 840},
		},
		{
			// Sparse NVLink-only graph of the hybrid cube mesh: 8
			// triangles, 12 four-cycles, 24 five-cycles.
			topo:    "DGX-V/physical",
			data:    dgxv.Physical,
			raw:     []int{48, 96, 240, 96, 240, 192, 48, 240},
			deduped: []int{8, 12, 24, 48, 120, 32, 2, 120},
		},
		{
			// NVSwitch all-to-all fabric: complete graph, so counts
			// equal the DGX-V hardware-graph rows.
			topo:    "DGX-A100/hardware",
			data:    dgxa.Graph,
			raw:     []int{336, 1680, 6720, 336, 1680, 1680, 1680, 1680},
			deduped: []int{56, 210, 672, 168, 840, 280, 70, 840},
		},
	}
	for _, g := range golden {
		for i, p := range pats {
			if got := CountEmbeddings(p.g, g.data); got != g.raw[i] {
				t.Errorf("%s %s: CountEmbeddings=%d, golden %d", g.topo, p.name, got, g.raw[i])
			}
			if got := len(FindAllDeduped(p.g, g.data)); got != g.deduped[i] {
				t.Errorf("%s %s: deduped=%d, golden %d", g.topo, p.name, got, g.deduped[i])
			}
		}
	}
}

// TestGoldenAutomorphismConsistency cross-checks the golden rows'
// closed form: on a complete data graph every raw count equals
// deduped x |Aut(pattern)|.
func TestGoldenAutomorphismConsistency(t *testing.T) {
	data := topology.DGXA100().Graph
	for _, p := range []*graph.Graph{
		appgraph.Ring(3), appgraph.Ring(4), appgraph.Ring(5),
		appgraph.Chain(3), appgraph.Chain(4),
		appgraph.Star(4), appgraph.AllToAll(4), appgraph.Tree(4),
	} {
		raw := CountEmbeddings(p, data)
		ded := len(FindAllDeduped(p, data))
		aut := Automorphisms(p)
		if raw != ded*aut {
			t.Errorf("pattern %v: raw=%d deduped=%d aut=%d — raw != deduped*aut", p, raw, ded, aut)
		}
	}
}
