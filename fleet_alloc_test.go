// Allocation-discipline gate for the hierarchical fleet decision: like
// the flat table-served path, a warmed two-level decision must stay
// exactly 0 allocs/op — the node sweep reuses the view set's scratch,
// the intra-node selection is the ordinary table-served argmax, and
// the winner lands in a caller-supplied buffer by in-place appends.
package mapa

import (
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// fleetUsable returns a fleet's availability mask with the busy GPUs
// cleared.
func fleetUsable(f *topology.Fleet, busy []int) graph.Bitset {
	usable := graph.NewBitset(f.NumGPUs())
	usable.Fill(f.NumGPUs())
	for _, g := range busy {
		usable.Unset(g)
	}
	return usable
}

// TestFleetDecisionZeroAllocs pins the warmed hierarchical decision at
// 0 allocs/op for all four selection-order variants on a churned
// 9-node fleet, and proves the path is table-served (zero dynamic
// score evaluations). The decision runs through DecideInto with no
// flat topology, as on a fleet too large to flatten.
func TestFleetDecisionZeroAllocs(t *testing.T) {
	fleet := topology.NewFleet(topology.DGXA100(), 9)
	pattern := appgraph.Ring(3)
	fstore := matchcache.NewFleetStore(fleet, 0)
	fstore.Warm(pattern)
	fviews := fstore.NewFleetViews()
	// Churn a few nodes so incident sums and usable counts differ
	// across nodes — the sweep does real comparison work.
	busy := []int{1, 9, 10, 40}
	fviews.Allocate(busy)
	usable := fleetUsable(fleet, busy)
	scorer := score.NewScorer(effbw.PaperModel())
	for _, v := range allocPolicies(scorer) {
		t.Run(v.name, func(t *testing.T) {
			policy.AttachFleet(v.p, fviews)
			req := policy.Request{Pattern: pattern, Sensitive: v.sensitive}
			var buf policy.Allocation
			// Warm the lazy memos (per-model tables, sorted orders, remap
			// cache, per-node view slots) and prove the fast path serves.
			evals := score.Evaluations()
			served := fviews.Stats().TableServed
			if err := policy.DecideInto(v.p, &buf, nil, usable, req); err != nil {
				t.Fatal(err)
			}
			if fviews.Stats().TableServed != served+1 {
				t.Fatal("fleet layer declined a warmed decision")
			}
			if d := score.Evaluations() - evals; d != 0 {
				t.Fatalf("decision ran %d dynamic score evaluations, want 0 (not table-served)", d)
			}
			got := testing.AllocsPerRun(100, func() {
				if err := policy.DecideInto(v.p, &buf, nil, usable, req); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Fatalf("hierarchical decision: %v allocs/op, want 0", got)
			}
		})
	}
}

// TestFleetViewDeltaAllocBudget pins the fleet view delta path at 0
// allocs, like the flat stream's: a global-ID allocate/release delta
// pair splits into node-local single-GPU deltas through a reused buffer
// and lands in the touched nodes' Views in place.
func TestFleetViewDeltaAllocBudget(t *testing.T) {
	fleet := topology.NewFleet(topology.DGXA100(), 9)
	pattern := appgraph.Ring(3)
	fstore := matchcache.NewFleetStore(fleet, 0)
	fstore.Warm(pattern)
	fviews := fstore.NewFleetViews()
	scorer := score.NewScorer(effbw.PaperModel())
	p := policy.NewPreserve(scorer)
	policy.AttachFleet(p, fviews)
	// One decision materializes the touched nodes' view slots, so the
	// deltas leave materialized views behind.
	var buf policy.Allocation
	if err := policy.DecideInto(p, &buf, nil, fleetUsable(fleet, nil), policy.Request{Pattern: pattern}); err != nil {
		t.Fatal(err)
	}
	gpus := []int{3, 10, 40}
	got := testing.AllocsPerRun(100, func() {
		fviews.Allocate(gpus)
		fviews.Release(gpus)
	})
	if got != 0 {
		t.Fatalf("fleet view allocate+release delta: %v allocs/op, want 0", got)
	}
}
