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

// TestTableOrders pins the precomputed set orders and the per-set
// representatives, on a Ring(4) universe where every GPU set holds
// three embeddings of differing AggBW: KeyRep must be the set's
// minimum-key embedding and AggRep its maximum-AggBW one (ties to the
// minimum key); AggGroups must sort the sets under the full Greedy
// order of their AggRep (SetAggBW desc, EffBW desc, GPU set — a strict
// total order, since sets differ in their GPUs), EffGroups by EffBW
// descending; and both group-end indexes must delimit exactly the
// equal-primary runs.
func TestTableOrders(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringPattern(4)
	u := match.BuildUniverse(pattern, top.Graph, 0, 1)
	tbl := BuildTable(top, pattern, u, 1)
	model := effbw.PaperModel()
	mt := tbl.ForModel(model)

	if u.Sets() == u.Len() {
		t.Fatalf("Ring(4) universe has one embedding per set (%d)", u.Sets())
	}
	spread := false
	for s := 0; s < u.Sets(); s++ {
		kr, ar := tbl.KeyRep(s), tbl.AggRep(s)
		for i := 0; i < u.Len(); i++ {
			if u.SetOf(i) != s {
				continue
			}
			if u.Key(i) < u.Key(kr) {
				t.Fatalf("set %d: KeyRep %d, but candidate %d has a smaller key", s, kr, i)
			}
			if tbl.AggBW(i) > tbl.AggBW(ar) || (tbl.AggBW(i) == tbl.AggBW(ar) && u.Key(i) < u.Key(ar)) {
				t.Fatalf("set %d: AggRep %d, but candidate %d precedes it", s, ar, i)
			}
			spread = spread || tbl.AggBW(i) != tbl.AggBW(ar)
		}
		if u.SetOf(kr) != s || u.SetOf(ar) != s || tbl.SetAggBW(s) != tbl.AggBW(ar) {
			t.Fatalf("set %d: representatives %d/%d lie outside it", s, kr, ar)
		}
	}
	if !spread {
		t.Fatal("no set's embeddings differ in AggBW: AggRep is untested")
	}

	agg, aggEnds := mt.AggGroups()
	if len(agg) != u.Sets() {
		t.Fatalf("AggGroups has %d entries, want %d sets", len(agg), u.Sets())
	}
	for n := 1; n < len(agg); n++ {
		i, j := int(agg[n-1]), int(agg[n])
		switch {
		case tbl.SetAggBW(i) > tbl.SetAggBW(j):
		case tbl.SetAggBW(i) < tbl.SetAggBW(j):
			t.Fatalf("AggGroups[%d..]: AggBW ascends (%g < %g)", n-1, tbl.SetAggBW(i), tbl.SetAggBW(j))
		case mt.SetEffBW(i) > mt.SetEffBW(j):
		case mt.SetEffBW(i) < mt.SetEffBW(j):
			t.Fatalf("AggGroups[%d..]: EffBW tie-break ascends", n-1)
		case compareInts(tbl.SetGPUs(i), tbl.SetGPUs(j)) >= 0:
			t.Fatalf("AggGroups[%d..]: GPU tie-break out of order (total order violated)", n-1)
		}
	}
	eff, effEnds := mt.EffGroups()
	for n := 1; n < len(eff); n++ {
		if mt.SetEffBW(int(eff[n-1])) < mt.SetEffBW(int(eff[n])) {
			t.Fatalf("EffGroups[%d..]: EffBW ascends", n-1)
		}
	}
	for _, tc := range []struct {
		name      string
		ord, ends []int32
		val       func(s int) float64
	}{{"AggGroups", agg, aggEnds, tbl.SetAggBW}, {"EffGroups", eff, effEnds, mt.SetEffBW}} {
		for j := range tc.ord {
			e := int(tc.ends[j])
			if e <= j || e > len(tc.ord) || tc.val(int(tc.ord[e-1])) != tc.val(int(tc.ord[j])) ||
				(e < len(tc.ord) && tc.val(int(tc.ord[e])) == tc.val(int(tc.ord[j]))) {
				t.Fatalf("%s: ends[%d] = %d does not close the equal-primary run", tc.name, j, e)
			}
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
