package mapa

import (
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/matchcache"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// BenchmarkTopologyRepair pins the cost model of topology deltas on a
// warmed 72-GPU cluster-a100 store: a health event (MarkUnhealthy +
// Restore, every view consulted after each so neither cancels) is an
// O(posting list) walk per live view, a link degradation repairs
// exactly the candidates containing both endpoints,
// and both must sit orders of magnitude under the full rebuild
// (universe enumeration + score-table fill) they replace. CI exports
// this through cmd/benchjson into BENCH_matcher.json next to the build
// and decision benchmarks.
func BenchmarkTopologyRepair(b *testing.B) {
	top := topology.ClusterA100(9)
	shapes := []*graph.Graph{appgraph.Ring(2), appgraph.Ring(3)}
	warmed := matchcache.NewStore(top, 0)
	warmed.Warm(8, shapes...)
	views := warmed.NewViews()
	// consult serves each warmed shape once, the way a real decision
	// would: the first round instantiates the live views, later rounds
	// make them catch up with the deltas published since.
	consult := func(avail graph.Bitset) {
		for _, shape := range shapes {
			ok := views.SelectLive(shape, avail, 0, 1, func(*match.BandwidthAccounting, *score.Table, []int) {})
			if !ok {
				b.Fatalf("warmed %d-GPU shape not view-served", shape.NumVertices())
			}
		}
	}
	idle := top.Graph.VertexBitset()
	consult(idle)

	b.Run("health-event", func(b *testing.B) {
		degraded := usableWithout(top, []int{0})
		for i := 0; i < b.N; i++ {
			views.MarkUnhealthy([]int{0})
			consult(degraded)
			views.RestoreHealth([]int{0})
			consult(idle)
		}
	})

	b.Run("link-repair", func(b *testing.B) {
		e, ok := top.Graph.EdgeBetween(0, 1)
		if !ok {
			b.Fatal("cluster-a100 has no (0,1) link")
		}
		repaired := 0
		for i := 0; i < b.N; i++ {
			w := e.Weight / 2
			if i%2 == 1 {
				w = e.Weight // restore on odd iterations; state stays bounded
			}
			top.Graph.MustAddEdge(0, 1, w, e.Label)
			if pe, ok := top.Physical.EdgeBetween(0, 1); ok {
				top.Physical.MustAddEdge(0, 1, w, pe.Label)
			}
			score.InvalidateMixes(top)
			repaired = warmed.RepairEdge(0, 1)
			views.UpdateEdge(0, 1, w)
		}
		b.ReportMetric(float64(repaired), "repaired-candidates")
	})

	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := matchcache.NewStore(top, 0)
			fresh.Warm(8, shapes...)
		}
	})
}
