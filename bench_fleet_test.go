// Fleet scaling benchmarks: template-store build cost and the
// hierarchical decision against the flat path. The headline curves:
// template build time is flat in node count (one class build serves
// 9 or 1,000 nodes), and the warmed hierarchical decision stays
// table-served at any fleet size.
package mapa

import (
	"fmt"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// BenchmarkFleetTemplateBuild compares building the full warm set on
// the flattened 9-node machine against the fleet template store at 9,
// 100, and 1,000 nodes. The three template curves should be
// indistinguishable: the build is per node class, not per node.
func BenchmarkFleetTemplateBuild(b *testing.B) {
	shapes := appgraph.AllShapes(4)
	b.Run("flat-9", func(b *testing.B) {
		top := topology.ClusterA100(9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := matchcache.NewStore(top, 0)
			st.Warm(0, shapes...)
		}
	})
	for _, nodes := range []int{9, 100, 1000} {
		b.Run(fmt.Sprintf("template-%d", nodes), func(b *testing.B) {
			fleet := topology.NewFleet(topology.DGXA100(), nodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := matchcache.NewFleetStore(fleet, 0)
				st.Warm(shapes...)
			}
		})
	}
}

// BenchmarkHierarchicalDecision compares one warmed ring-3 decision on
// the flat table-served path (9-node flattened machine) against the
// hierarchical template path at 9, 100, and 1,000 nodes, with a few
// GPUs allocated so the accounting does real work.
func BenchmarkHierarchicalDecision(b *testing.B) {
	pattern := appgraph.Ring(3)
	busy := []int{1, 9, 40}
	b.Run("flat-9", func(b *testing.B) {
		top := topology.ClusterA100(9)
		scorer := score.NewScorer(effbw.TrainedFor(top))
		p := policy.NewPreserve(scorer)
		store := matchcache.NewStore(top, 0)
		store.Warm(0, pattern)
		views := store.NewViews()
		views.Allocate(busy)
		avail := usableWithout(top, busy)
		policy.AttachViews(p, views)
		req := policy.Request{Pattern: pattern}
		var buf policy.Allocation
		if err := policy.DecideInto(p, &buf, top, avail, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := policy.DecideInto(p, &buf, top, avail, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, nodes := range []int{9, 100, 1000} {
		b.Run(fmt.Sprintf("template-%d", nodes), func(b *testing.B) {
			fleet := topology.NewFleet(topology.DGXA100(), nodes)
			scorer := score.NewScorer(effbw.PaperModel())
			p := policy.NewPreserve(scorer)
			fstore := matchcache.NewFleetStore(fleet, 0)
			fstore.Warm(pattern)
			fviews := fstore.NewFleetViews()
			fviews.Allocate(busy)
			usable := fleetUsable(fleet, busy)
			policy.AttachFleet(p, fviews)
			req := policy.Request{Pattern: pattern}
			var buf policy.Allocation
			if err := policy.DecideInto(p, &buf, nil, usable, req); err != nil || fviews.Stats().TableServed != 1 {
				b.Fatalf("warm decision: fleet stats %+v, err %v", fviews.Stats(), err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := policy.DecideInto(p, &buf, nil, usable, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
