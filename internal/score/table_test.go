package score

import (
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// TestTableMatchesDynamicScorer pins the table's static columns against
// the dynamic evaluators, candidate by candidate, on the idle machine:
// AggBW, the ring-channel mix, the Eq. 2 prediction, and the Eq. 3
// decomposition (idle total − incident sum + internal == the dynamic
// PreservedBandwidth) must agree exactly.
func TestTableMatchesDynamicScorer(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringPattern(3)
	u := match.BuildUniverse(pattern, top.Graph, 0, 1)
	if !u.Complete() {
		t.Fatal("universe must be complete")
	}
	for _, workers := range []int{1, 4} {
		tbl := BuildTable(top, pattern, u, workers)
		if tbl.Len() != u.Len() {
			t.Fatalf("table holds %d rows, universe %d", tbl.Len(), u.Len())
		}
		s := NewScorer(nil)
		mt := tbl.ForModel(s.Model)
		idle := top.Graph.TotalWeight()
		for i := 0; i < u.Len(); i++ {
			m := u.Match(i)
			want := s.Score(top, pattern, top.Graph, m)
			if tbl.AggBW(i) != want.AggBW {
				t.Fatalf("candidate %d: AggBW %g, dynamic %g", i, tbl.AggBW(i), want.AggBW)
			}
			if tbl.Mix(i) != want.Mix {
				t.Fatalf("candidate %d: mix %+v, dynamic %+v", i, tbl.Mix(i), want.Mix)
			}
			if mt.EffBW(i) != want.EffBW {
				t.Fatalf("candidate %d: EffBW %g, dynamic %g", i, mt.EffBW(i), want.EffBW)
			}
			// Eq. 3 decomposition on the idle machine: the state terms
			// are the full graph's totals.
			var incident float64
			for _, g := range tbl.GPUs(i) {
				for _, e := range top.Graph.IncidentEdges(g) {
					incident += e.Weight
				}
			}
			if got := idle - incident + tbl.Internal(i); got != want.PreservedBW {
				t.Fatalf("candidate %d: delta-decomposed PreservedBW %g, dynamic %g", i, got, want.PreservedBW)
			}
		}
	}
}

// TestTableOrders pins the precomputed selection orders: AggOrder must
// be sorted under the full Greedy total order (AggBW desc, EffBW desc,
// GPU set, key — a strict total order), EffOrder by EffBW descending.
func TestTableOrders(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringPattern(3)
	u := match.BuildUniverse(pattern, top.Graph, 0, 1)
	tbl := BuildTable(top, pattern, u, 1)
	model := effbw.PaperModel()
	mt := tbl.ForModel(model)

	agg := mt.AggOrder()
	if len(agg) != tbl.Len() {
		t.Fatalf("AggOrder has %d entries, want %d", len(agg), tbl.Len())
	}
	for n := 1; n < len(agg); n++ {
		i, j := int(agg[n-1]), int(agg[n])
		switch {
		case tbl.AggBW(i) > tbl.AggBW(j):
		case tbl.AggBW(i) < tbl.AggBW(j):
			t.Fatalf("AggOrder[%d..]: AggBW ascends (%g < %g)", n-1, tbl.AggBW(i), tbl.AggBW(j))
		case mt.EffBW(i) > mt.EffBW(j):
		case mt.EffBW(i) < mt.EffBW(j):
			t.Fatalf("AggOrder[%d..]: EffBW tie-break ascends", n-1)
		case compareInts(tbl.GPUs(i), tbl.GPUs(j)) < 0:
		case compareInts(tbl.GPUs(i), tbl.GPUs(j)) > 0:
			t.Fatalf("AggOrder[%d..]: GPU tie-break out of order", n-1)
		case u.Key(i) >= u.Key(j):
			t.Fatalf("AggOrder[%d..]: key tie-break out of order (total order violated)", n-1)
		}
	}
	eff := mt.EffOrder()
	for n := 1; n < len(eff); n++ {
		if mt.EffBW(int(eff[n-1])) < mt.EffBW(int(eff[n])) {
			t.Fatalf("EffOrder[%d..]: EffBW ascends", n-1)
		}
	}
	// Per-model artifacts are memoized by model identity.
	if tbl.ForModel(model) != mt {
		t.Fatal("ForModel must memoize per model")
	}
	if tbl.ForModel(effbw.PaperModel()) == mt {
		t.Fatal("distinct model values must get distinct views")
	}
}

// TestMixMemoKeyedByTopologyInstance is the regression test for the
// process-wide mix memo's key: distinct topology values sharing a Name
// (e.g. different MIG splits of one machine both render as
// "name+MIG") must not serve each other's ring-channel decompositions.
func TestMixMemoKeyedByTopologyInstance(t *testing.T) {
	base := topology.DGXV100()
	a := topology.DGXV100()
	// Same name, different link structure: drop every NVLink so only
	// PCIe remains — any shared {0,1} decomposition would differ.
	pcie := graphAllPCIe(base)
	b := &topology.Topology{Name: a.Name, Graph: pcie, Physical: pcie, Sockets: base.Sockets}
	s := NewScorer(nil)
	mixA := s.AllocationMix(a, []int{0, 1})
	mixB := s.AllocationMix(b, []int{0, 1})
	if mixA == mixB {
		t.Fatalf("same-name topologies with different links got one memoized mix: %+v", mixA)
	}
	if mixA.Y != 1 || mixB.Z != 1 {
		t.Fatalf("mixes wrong: NVLink pair %+v, PCIe-only pair %+v", mixA, mixB)
	}
}

// graphAllPCIe rebuilds a topology's graph with every link demoted to
// PCIe.
func graphAllPCIe(top *topology.Topology) *graph.Graph {
	g := graph.New()
	for _, e := range top.Graph.Edges() {
		g.MustAddEdge(e.U, e.V, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
	}
	return g
}

// TestLedgerMatchesPreservedBandwidth pins the per-decision ledger
// against the reference Eq. 3 evaluator.
func TestLedgerMatchesPreservedBandwidth(t *testing.T) {
	top := topology.DGXV100()
	avail := top.Graph.InducedSubgraph([]int{0, 1, 3, 4, 6, 7})
	led := NewLedger(avail)
	for _, set := range [][]int{nil, {0}, {0, 1}, {0, 3, 4}, {1, 6, 7}} {
		if got, want := led.Preserved(set), PreservedBandwidth(avail, set); got != want {
			t.Fatalf("Preserved(%v) = %g, reference %g", set, got, want)
		}
	}
}
