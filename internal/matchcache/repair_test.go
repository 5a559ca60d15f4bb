package matchcache

import (
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// degrade mutates machine link (u,v) to weight w the way mapa.System
// does: both topology graphs plus the process-wide mix memo.
func degrade(t *testing.T, top *topology.Topology, u, v int, w float64) {
	t.Helper()
	e, ok := top.Graph.EdgeBetween(u, v)
	if !ok {
		t.Fatalf("topology %s has no edge (%d,%d)", top.Name, u, v)
	}
	top.Graph.MustAddEdge(u, v, w, e.Label)
	if pe, ok := top.Physical.EdgeBetween(u, v); ok {
		top.Physical.MustAddEdge(u, v, w, pe.Label)
	}
	score.InvalidateMixes(top)
}

// tableOf serves the warmed score table for a shape through the live
// path.
func tableOf(t *testing.T, s *Store, pattern *graph.Graph, top *topology.Topology) *score.Table {
	t.Helper()
	var out *score.Table
	ok := s.NewViews().SelectLive(pattern, top.Graph.VertexBitset(), 0, 1, func(_ *match.BandwidthAccounting, tbl *score.Table, _ []int, _ bool) {
		out = tbl
	})
	if !ok || out == nil {
		t.Fatalf("warmed shape %dv not table-served", pattern.NumVertices())
	}
	return out
}

// TestStoreRepairEdgeMatchesRebuild degrades a machine link, repairs
// the warmed store in place, and checks every candidate of every shape
// against a store rebuilt from scratch on the mutated topology: AggBW,
// the Eq. 3 internal constant, and the model predictions must be
// byte-identical — the repair is exact, not approximate.
func TestStoreRepairEdgeMatchesRebuild(t *testing.T) {
	top := topology.DGXV100()
	shapes := []*graph.Graph{tableRing(2), tableRing(3), tableRing(4)}
	s := NewStore(top, 0)
	s.Warm(2, shapes...)

	// Degrade NVLink (0,3) to PCIe-grade bandwidth, then repair.
	degrade(t, top, 0, 3, 10)
	repaired := s.RepairEdge(0, 3)
	if repaired == 0 {
		t.Fatal("RepairEdge repaired no candidates; ring universes contain {0,3} pairs")
	}
	st := s.Stats()
	if st.Repairs != 1 || st.RepairedCandidates != repaired || st.RepairTime <= 0 {
		t.Fatalf("repair stats %+v, want 1 repair, %d candidates, > 0 time", st, repaired)
	}

	// The oracle: a fresh store warmed on the already-mutated machine.
	oracle := NewStore(top, 0)
	oracle.Warm(2, shapes...)
	model := effbw.TrainedFor(top)
	for _, shape := range shapes {
		got := tableOf(t, s, shape, top)
		want := tableOf(t, oracle, shape, top)
		if got.Len() != want.Len() {
			t.Fatalf("%dv: repaired table has %d candidates, rebuilt %d", shape.NumVertices(), got.Len(), want.Len())
		}
		gm, wm := got.ForModel(model), want.ForModel(model)
		for i := 0; i < got.Len(); i++ {
			if got.AggBW(i) != want.AggBW(i) {
				t.Fatalf("%dv candidate %d %v: repaired AggBW %v, rebuilt %v", shape.NumVertices(), i, got.GPUs(i), got.AggBW(i), want.AggBW(i))
			}
			if got.Internal(i) != want.Internal(i) {
				t.Fatalf("%dv candidate %d %v: repaired Internal %v, rebuilt %v", shape.NumVertices(), i, got.GPUs(i), got.Internal(i), want.Internal(i))
			}
			if gm.EffBW(i) != wm.EffBW(i) {
				t.Fatalf("%dv candidate %d %v: repaired EffBW %v, rebuilt %v", shape.NumVertices(), i, got.GPUs(i), gm.EffBW(i), wm.EffBW(i))
			}
		}
	}
}

// TestRepairEdgeAffectedSetIsExact pins the targeting claim: repairing
// an edge re-derives exactly the candidates containing both endpoints,
// and a candidate holding one endpoint keeps its old values (they price
// identically on the old and new graph).
func TestRepairEdgeAffectedSetIsExact(t *testing.T) {
	top := topology.DGXV100()
	ring := tableRing(3)
	s := NewStore(top, 0)
	s.Warm(1, ring)
	tbl := tableOf(t, s, ring, top)
	want := 0
	for i := 0; i < tbl.Len(); i++ {
		set := tbl.Universe().Set(i)
		if set.Has(1) && set.Has(5) {
			want++
		}
	}
	degrade(t, top, 1, 5, 2)
	if got := s.RepairEdge(1, 5); got != want {
		t.Fatalf("RepairEdge(1,5) re-derived %d candidates, want exactly the %d containing both endpoints", got, want)
	}
}

// TestViewsUpdateEdgePreservedBW checks the view-stream half of a
// degradation event: after Views.UpdateEdge the stream's bandwidth
// accounting must price Eq. 3 exactly as a fresh accounting over the
// mutated graph.
func TestViewsUpdateEdgePreservedBW(t *testing.T) {
	top := topology.DGXV100()
	ring := tableRing(3)
	s := NewStore(top, 0)
	s.Warm(1, ring)
	v := s.NewViews()
	v.Allocate([]int{2, 6})

	degrade(t, top, 0, 3, 5)
	v.UpdateEdge(0, 3, 5)

	free := top.Graph.VertexBitset()
	free.Unset(2)
	free.Unset(6)
	fresh := match.NewBandwidthAccounting(top.Graph, free, graph.Capacity(top.Graph))
	served := v.SelectLive(ring, free, 0, 1, func(bw *match.BandwidthAccounting, _ *score.Table, _ []int, _ bool) {
		if bw.FreeWeight() != fresh.FreeWeight() {
			t.Errorf("FreeWeight %v after UpdateEdge, rebuilt %v", bw.FreeWeight(), fresh.FreeWeight())
		}
		for g := 0; g < graph.Capacity(top.Graph); g++ {
			if bw.FreeIncidentWeight(g) != fresh.FreeIncidentWeight(g) {
				t.Errorf("FreeIncidentWeight(%d) %v, rebuilt %v", g, bw.FreeIncidentWeight(g), fresh.FreeIncidentWeight(g))
			}
		}
	})
	if !served {
		t.Fatal("SelectLive declined the warmed shape after UpdateEdge")
	}
}
