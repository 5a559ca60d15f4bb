package policy

import (
	"reflect"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/matchcache"
	"mapa/internal/topology"
)

// TestAllocationMatchRepresentativeDeterministic pins the full
// Allocation — including the Match's exact pattern-to-GPU assignment,
// which rank-placement consumers read — across the sequential search,
// the parallel search, and the table-served path (built sequentially
// and with four workers). Equivalence classes with identical GPU sets
// and scores differ only in their representative embedding, so this
// catches any strategy that claims a class at a different raw
// occurrence than the sequential scan.
func TestAllocationMatchRepresentativeDeterministic(t *testing.T) {
	tops := []*topology.Topology{topology.DGXV100(), topology.Torus2D()}
	for _, top := range tops {
		for _, k := range []int{3, 4} {
			req := Request{Pattern: appgraph.Ring(k), Sensitive: true}
			avail := without(top.Graph, []int{1})

			seq := NewPreserve(nil)
			ref, err := seq.Allocate(top, avail.VertexBitset(), req)
			if err != nil {
				t.Fatal(err)
			}

			for name, mk := range map[string]func() Allocator{
				"parallel": func() Allocator {
					p := NewPreserve(nil)
					SetParallelism(p, 4)
					return p
				},
				"table-served": func() Allocator {
					p := NewPreserve(nil)
					served(p, matchcache.NewStore(top, 0), top, []int{1})
					return p
				},
				"table-served+parallel": func() Allocator {
					p := NewPreserve(nil)
					SetParallelism(p, 4)
					served(p, matchcache.NewStore(top, 0), top, []int{1})
					return p
				},
			} {
				p := mk()
				for rep := 0; rep < 3; rep++ {
					got, err := p.Allocate(top, avail.VertexBitset(), req)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.GPUs, ref.GPUs) ||
						!reflect.DeepEqual(got.Match.Pattern, ref.Match.Pattern) ||
						!reflect.DeepEqual(got.Match.Data, ref.Match.Data) ||
						got.Scores != ref.Scores {
						t.Fatalf("%s %s Ring(%d) rep %d: allocation diverged from sequential\n seq: %+v\n got: %+v",
							top.Name, name, k, rep, ref, got)
					}
				}
			}
		}
	}
}
