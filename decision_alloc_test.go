// Allocation-discipline regression gates: the table-served decision
// path must stay 0 allocs/op, and the live-view delta path must
// stay within a small fixed budget. These are tests, not benchmarks —
// a regression fails CI outright instead of silently shifting a curve.
package mapa

import (
	"fmt"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// allocPolicies builds the four MAPA selection-order variants — all
// four table-served strategies (fully static order, EffBW-primary
// group, PreservedBW-primary streaming argmax, AggBW-primary group).
func allocPolicies(scorer *score.Scorer) []struct {
	name      string
	p         policy.Allocator
	sensitive bool
} {
	return []struct {
		name      string
		p         policy.Allocator
		sensitive bool
	}{
		{"greedy", policy.NewGreedy(scorer), true},
		{"preserve-sensitive", policy.NewPreserve(scorer), true},
		{"preserve-insensitive", policy.NewPreserve(scorer), false},
		{"preserve-aggbw-sensitive", policy.NewPreserveAggBW(scorer), true},
	}
}

// usableWithout returns top's availability mask with the busy GPUs
// cleared.
func usableWithout(top *topology.Topology, busy []int) graph.Bitset {
	usable := top.Graph.VertexBitset()
	for _, g := range busy {
		usable.Unset(g)
	}
	return usable
}

// TestTableServedDecisionZeroAllocs pins the post-warm table-served
// decision at exactly 0 allocs/op for all four policies on both the
// single-node DGX-A100 and the 72-GPU cluster. The decision runs
// through DecideInto with a reused result buffer — the serving-loop
// discipline — so any regression (an escaping closure, a method value,
// a fresh slice on the hot path) fails here, not in a benchmark graph.
func TestTableServedDecisionZeroAllocs(t *testing.T) {
	tops := []struct {
		name string
		top  *topology.Topology
		busy []int
	}{
		{"dgx-a100", topology.DGXA100(), []int{1}},
		{"cluster-a100", topology.ClusterA100(9), []int{1, 6}},
	}
	pattern := appgraph.Ring(3)
	for _, tc := range tops {
		t.Run(tc.name, func(t *testing.T) {
			scorer := score.NewScorer(effbw.TrainedFor(tc.top))
			store := matchcache.NewStore(tc.top, 0)
			store.Warm(1, pattern)
			views := store.NewViews()
			views.Allocate(tc.busy)
			avail := usableWithout(tc.top, tc.busy)
			for _, v := range allocPolicies(scorer) {
				t.Run(v.name, func(t *testing.T) {
					policy.AttachUniverses(v.p, store)
					policy.AttachViews(v.p, views)
					req := policy.Request{Pattern: pattern, Sensitive: v.sensitive}
					var buf policy.Allocation
					// Warm the per-(table, model) sorted orders and every
					// lazy memo, and prove the fast path actually serves:
					// a decision that fell through to an entry tier would
					// trivially allocate and mask a fast-path regression.
					evals := score.Evaluations()
					if err := policy.DecideInto(v.p, &buf, tc.top, avail, req); err != nil {
						t.Fatal(err)
					}
					if d := score.Evaluations() - evals; d != 0 {
						t.Fatalf("decision ran %d dynamic score evaluations, want 0 (not table-served)", d)
					}
					got := testing.AllocsPerRun(100, func() {
						if err := policy.DecideInto(v.p, &buf, tc.top, avail, req); err != nil {
							t.Fatal(err)
						}
					})
					if got != 0 {
						t.Fatalf("table-served decision: %v allocs/op, want 0", got)
					}
				})
			}
		})
	}
}

// TestLiveViewDeltaAllocBudget pins the view delta path at 0 allocs:
// publishing an allocate/release GPU-set delta to a warmed view set
// updates its usable mask and Eq. 3 accounting in place.
func TestLiveViewDeltaAllocBudget(t *testing.T) {
	top := topology.ClusterA100(9)
	pattern := appgraph.Ring(3)
	store := matchcache.NewStore(top, 0)
	store.Warm(1, pattern)
	views := store.NewViews()
	scorer := score.NewScorer(effbw.TrainedFor(top))
	p := policy.NewPreserve(scorer)
	policy.AttachUniverses(p, store)
	policy.AttachViews(p, views)
	// One decision resolves the shape's slot first.
	req := policy.Request{Pattern: pattern, Sensitive: false}
	var buf policy.Allocation
	if err := policy.DecideInto(p, &buf, top, top.Graph.VertexBitset(), req); err != nil {
		t.Fatal(err)
	}
	gpus := []int{3, 10, 40}
	got := testing.AllocsPerRun(100, func() {
		views.Allocate(gpus)
		views.Release(gpus)
	})
	if got != 0 {
		t.Fatalf("live-view allocate+release delta: %v allocs/op, want 0", got)
	}
}

// TestAllocateIntoMatchesAllocate cross-checks the buffer-reuse entry
// point against the allocating one on a churned state: same GPUs, same
// scores, same match, decision after decision, for every policy — the
// byte-identity contract AllocateInto must uphold while reusing buf.
func TestAllocateIntoMatchesAllocate(t *testing.T) {
	top := topology.ClusterA100(3)
	pattern := appgraph.Ring(3)
	scorer := score.NewScorer(effbw.TrainedFor(top))
	for _, v := range allocPolicies(scorer) {
		t.Run(v.name, func(t *testing.T) {
			store := matchcache.NewStore(top, 0)
			store.Warm(1, pattern)
			viewsA := store.NewViews()
			viewsB := store.NewViews()
			pa := v.p
			pb, err := policy.ByName(pa.Name(), scorer)
			if err != nil {
				t.Fatal(err)
			}
			policy.AttachUniverses(pa, store)
			policy.AttachViews(pa, viewsA)
			policy.AttachUniverses(pb, store)
			policy.AttachViews(pb, viewsB)
			req := policy.Request{Pattern: pattern, Sensitive: v.sensitive}
			avail := top.Graph.VertexBitset()
			var buf policy.Allocation
			for step := 0; step < 8; step++ {
				want, errA := pa.Allocate(top, avail, req)
				errB := policy.DecideInto(pb, &buf, top, avail, req)
				if (errA != nil) != (errB != nil) {
					t.Fatalf("step %d: Allocate err=%v, AllocateInto err=%v", step, errA, errB)
				}
				if errA != nil {
					break
				}
				if fmt.Sprint(want.GPUs) != fmt.Sprint(buf.GPUs) ||
					want.Scores != buf.Scores ||
					fmt.Sprint(want.Match) != fmt.Sprint(buf.Match) {
					t.Fatalf("step %d: AllocateInto diverged:\n got %v %+v\nwant %v %+v",
						step, buf.GPUs, buf.Scores, want.GPUs, want.Scores)
				}
				viewsA.Allocate(want.GPUs)
				viewsB.Allocate(want.GPUs)
				for _, g := range want.GPUs {
					avail.Unset(g)
				}
			}
		})
	}
}

// tenantSink keeps a handle NewTenant returns on the heap, as a real
// caller's would be, so the allocation pin counts it.
var tenantSink *Tenant

// TestSystemCycleAllocations gates a warmed System allocate+release
// cycle on dgx-a100 and cluster-a100 at its measured cost, 5
// allocations: the decision's result, the lease record and the Lease.
// The request's pattern graph comes from the System's pattern memo —
// built and fingerprinted per request, it cost 21 more. None of it
// scales with the free set. A cycle through a tenant handle, with 8
// handles open, costs the same: a tenant is a handle on the System's
// one allocator and view stream, and NewTenant allocates the handle
// and nothing else, on a flat cluster and a 1,000-node fleet alike.
func TestSystemCycleAllocations(t *testing.T) {
	const pinned = 5
	newTenant := func(s *System) func() {
		return func() {
			var err error
			if tenantSink, err = s.NewTenant(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, top := range []string{"dgx-a100", "cluster-a100"} {
		s, err := NewSystem(top, "preserve", WithWarmShapes(3))
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*Tenant, 8)
		for i := range handles {
			if handles[i], err = s.NewTenant(); err != nil {
				t.Fatal(err)
			}
		}
		for _, sensitive := range []bool{true, false} {
			for _, via := range []struct {
				name     string
				allocate func(JobRequest) (*Lease, error)
			}{{"system", s.Allocate}, {"tenant", handles[len(handles)-1].Allocate}} {
				req := JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: sensitive}
				got := testing.AllocsPerRun(100, func() {
					l, err := via.allocate(req)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Release(l); err != nil {
						t.Fatal(err)
					}
				})
				if got > pinned {
					t.Errorf("%s sensitive=%v via %s: %v allocations per allocate+release cycle, want <= %d", top, sensitive, via.name, got, pinned)
				}
			}
		}
		if got := testing.AllocsPerRun(100, newTenant(s)); got != 1 {
			t.Errorf("%s: NewTenant costs %v allocations, want 1", top, got)
		}
	}
	fleet, err := NewFleetSystem("dgx-a100", 1000, "preserve")
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, newTenant(fleet)); got != 1 {
		t.Errorf("1,000-node fleet: NewTenant costs %v allocations, want 1", got)
	}
}
