package policy

import (
	"errors"
	"reflect"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/score"
	"mapa/internal/topology"
)

func TestParallelMatchesSequential(t *testing.T) {
	// The parallel scorer must pick exactly the same allocation as the
	// sequential path on every machine, size, and sensitivity.
	for _, topoName := range []string{"dgx-v100", "summit", "torus-2d"} {
		top, err := topology.ByName(topoName)
		if err != nil {
			t.Fatal(err)
		}
		scorer := score.NewScorer(effbw.TrainedFor(top))
		for _, policyName := range []string{"greedy", "preserve"} {
			for k := 2; k <= 4; k++ {
				for _, sensitive := range []bool{true, false} {
					req := Request{Pattern: appgraph.Ring(k), Sensitive: sensitive}

					seq, err := ByName(policyName, scorer)
					if err != nil {
						t.Fatal(err)
					}
					par, err := ByName(policyName, scorer)
					if err != nil {
						t.Fatal(err)
					}
					SetParallelism(par, 4)

					a, err := seq.Allocate(top, top.Graph.VertexBitset(), req)
					if err != nil {
						t.Fatal(err)
					}
					b, err := par.Allocate(top, top.Graph.VertexBitset(), req)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a.GPUs, b.GPUs) {
						t.Errorf("%s/%s k=%d sensitive=%v: sequential %v vs parallel %v",
							topoName, policyName, k, sensitive, a.GPUs, b.GPUs)
					}
				}
			}
		}
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	top := topology.DGXV100()
	p := NewPreserve(nil)
	SetParallelism(p, 8)
	req := ringReq(4, true)
	first, err := p.Allocate(top, top.Graph.VertexBitset(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := p.Allocate(top, top.Graph.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.GPUs, again.GPUs) {
			t.Fatalf("run %d: %v vs %v", i, again.GPUs, first.GPUs)
		}
	}
}

func TestParallelNoAllocation(t *testing.T) {
	top := topology.DGXV100()
	p := NewPreserve(nil)
	SetParallelism(p, 4)
	avail := without(top.Graph, []int{0, 1, 2, 3, 4, 5, 6})
	if _, err := p.Allocate(top, avail.VertexBitset(), ringReq(3, true)); !errors.Is(err, ErrNoAllocation) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetParallelismIgnoredByBaselines(t *testing.T) {
	b := NewBaseline(nil)
	ta := NewTopoAware(nil)
	SetParallelism(b, 8) // must not panic or change behaviour
	SetParallelism(ta, 8)
	top := topology.DGXV100()
	if _, err := b.Allocate(top, top.Graph.VertexBitset(), ringReq(2, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Allocate(top, top.Graph.VertexBitset(), ringReq(2, true)); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultParallelismPositive(t *testing.T) {
	if DefaultParallelism() < 1 {
		t.Fatal("DefaultParallelism must be positive")
	}
}

func TestParallelismBelowTwoIsSequential(t *testing.T) {
	top := topology.DGXV100()
	p := NewGreedy(nil)
	SetParallelism(p, 1)
	a, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(p, 0)
	b, err := p.Allocate(top, top.Graph.VertexBitset(), ringReq(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.GPUs, b.GPUs) {
		t.Fatal("n<2 should behave sequentially")
	}
}
