package matchcache

import (
	"fmt"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// degrade mutates machine link (u,v) to weight w the way mapa.System
// does: both topology graphs, then the topology's pair table and the
// signature-keyed mix memo it carries.
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
	ok := s.NewViews().SelectLive(pattern, top.Graph.VertexBitset(), 0, 1, func(_ *match.BandwidthAccounting, tbl *score.Table, _ []int) {
		out = tbl
	})
	if !ok || out == nil {
		t.Fatalf("warmed shape %dv not table-served", pattern.NumVertices())
	}
	return out
}

// TestStoreRepairEdgeMatchesRebuild degrades a machine link, repairs
// the warmed store in place, and checks every GPU set of every shape
// against a score table built from scratch on the mutated topology:
// every column, both representatives, every embedding's AggBW, the
// model predictions and the column maxima must be byte-identical — the
// repair is exact, not approximate. It runs on every catalog machine of
// at most 16 GPUs with shapes up to 4, and on the 72-GPU cluster with
// shapes up to 3, for a flat store and for a fleet's class template
// store; RepairedCandidates must count the C(n−2, k−2) sets holding
// both endpoints times the embeddings per set.
func TestStoreRepairEdgeMatchesRebuild(t *testing.T) {
	type leg struct {
		name   string
		store  func(top *topology.Topology) *Store
		top    func() *topology.Topology
		shapes []*graph.Graph
	}
	flat := func(top *topology.Topology) *Store { return NewStore(top, 0) }
	template := func(top *topology.Topology) *Store {
		return NewFleetStore(topology.NewFleet(top, 2), 0).stores[0]
	}
	var legs []leg
	for _, name := range topology.Names() {
		mk := func() *topology.Topology {
			top, err := topology.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return top
		}
		if mk().NumGPUs() > 16 {
			continue
		}
		legs = append(legs,
			leg{name + "/flat", flat, mk, appgraph.AllShapes(4)},
			leg{name + "/template", template, mk, appgraph.AllShapes(4)})
	}
	cluster := func() *topology.Topology { return topology.ClusterA100(9) }
	legs = append(legs,
		leg{"cluster-a100/flat", flat, cluster, appgraph.AllShapes(3)},
		leg{"cluster-a100/template", template, cluster, appgraph.AllShapes(3)})
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			top := l.top()
			s := l.store(top)
			s.Warm(2, l.shapes...)
			gpus := top.GPUs()
			u, v := gpus[1], gpus[len(gpus)-1]
			e, _ := top.Graph.EdgeBetween(u, v)
			degrade(t, top, u, v, float64(int(e.Weight)/2))
			repaired := s.RepairEdge(u, v)
			want := 0
			for _, sl := range s.builtTables {
				want += match.Binomial(len(gpus)-2, len(sl.u.Order())-2) * sl.u.Perms()
			}
			if st := s.Stats(); repaired != want || st.Repairs != 1 || st.RepairedCandidates != repaired || st.RepairTime <= 0 {
				t.Fatalf("repaired %d candidates, want %d; stats %+v", repaired, want, st)
			}
			model := effbw.TrainedFor(top)
			for _, shape := range l.shapes {
				// Isomorphic shapes share one universe, derived for the
				// build that reached the store first.
				got, built := tableOf(t, s, shape, top), s.slot(canon.info(shape), shape).pattern
				sameTable(t, fmt.Sprintf("%v", shape.Edges()), got, score.BuildTable(top, built, got.Universe(), 1), model)
			}
		})
	}
}

// sameTable fails unless two score tables over one universe agree in
// every per-set column, representative, embedding AggBW, model
// prediction and column maximum.
func sameTable(t *testing.T, label string, got, want *score.Table, model *effbw.Model) {
	t.Helper()
	u := got.Universe()
	gm, wm := got.ForModel(model), want.ForModel(model)
	if got.MaxInternal() != want.MaxInternal() || got.MaxSetAggBW() != want.MaxSetAggBW() || gm.MaxSetEffBW() != wm.MaxSetEffBW() {
		t.Fatalf("%s: maxima differ from the rebuilt table's", label)
	}
	for s := 0; s < u.Sets(); s++ {
		if got.SetInternal(s) != want.SetInternal(s) || got.SetMix(s) != want.SetMix(s) ||
			got.SetAggBW(s) != want.SetAggBW(s) || gm.SetEffBW(s) != wm.SetEffBW(s) {
			t.Fatalf("%s set %d %v: repaired columns differ from the rebuilt table's", label, s, got.SetGPUs(s))
		}
		if got.KeyRep(s) != want.KeyRep(s) || got.AggRep(s) != want.AggRep(s) {
			t.Fatalf("%s set %d %v: representatives %d/%d, rebuilt %d/%d", label, s, got.SetGPUs(s), got.KeyRep(s), got.AggRep(s), want.KeyRep(s), want.AggRep(s))
		}
		for p := 0; p < u.Perms(); p++ {
			if got.AggBW(s, p) != want.AggBW(s, p) {
				t.Fatalf("%s set %d %v embedding %d: AggBW %v, rebuilt %v", label, s, got.SetGPUs(s), p, got.AggBW(s, p), want.AggBW(s, p))
			}
		}
	}
}

// TestRepairEdgeAffectedSetIsExact pins the targeting claim: repairing
// an edge re-derives exactly the candidates on sets containing both
// endpoints, and a set holding one endpoint keeps its old values (they
// price identically on the old and new graph).
func TestRepairEdgeAffectedSetIsExact(t *testing.T) {
	top := topology.DGXV100()
	ring := tableRing(3)
	s := NewStore(top, 0)
	s.Warm(1, ring)
	tbl := tableOf(t, s, ring, top)
	want := 0
	for set := 0; set < tbl.Universe().Sets(); set++ {
		gpus := tbl.SetGPUs(set)
		if slices.Contains(gpus, 1) && slices.Contains(gpus, 5) {
			want += tbl.Universe().Perms()
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
	served := v.SelectLive(ring, free, 0, 1, func(bw *match.BandwidthAccounting, _ *score.Table, _ []int) {
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
