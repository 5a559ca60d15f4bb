package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/matchcache"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// fourPolicies builds the four MAPA selection orders — greedy (fully
// static), preserve (EffBW-primary sensitive / PreservedBW-primary
// insensitive), effbw-only, preserve-aggbw (AggBW-primary sensitive) —
// so together they exercise every table-served selection strategy.
func fourPolicies(s *score.Scorer) map[string]func() Allocator {
	return map[string]func() Allocator{
		"greedy":         func() Allocator { return NewGreedy(s) },
		"preserve":       func() Allocator { return NewPreserve(s) },
		"effbw-only":     func() Allocator { return NewEffBWOnly(s) },
		"preserve-aggbw": func() Allocator { return NewPreserveAggBW(s) },
	}
}

// fullAllocString renders every decision field that must match byte for
// byte between the table-served path and the search, including the
// representative embedding.
func fullAllocString(a Allocation) string {
	return fmt.Sprintf("gpus=%v agg=%v eff=%v pres=%v mix=%+v match=%v->%v",
		a.GPUs, a.Scores.AggBW, a.Scores.EffBW, a.Scores.PreservedBW, a.Scores.Mix,
		a.Match.Pattern, a.Match.Data)
}

// TestTableServedChurnParityAllPolicies is the acceptance suite for the
// score-annotated universes: on the DGX-A100 and the 72-GPU
// cluster-a100 (multi-word masks, 59,640-class Ring(3) universe), all
// four MAPA selection orders run a seeded allocate/release churn, every
// decision made twice — table-served, and by a bare policy's fresh
// search that scores every candidate dynamically — and the two must
// agree byte for byte while the table-served side performs ZERO dynamic
// score evaluations, zero searches, and zero full-universe scans.
func TestTableServedChurnParityAllPolicies(t *testing.T) {
	cases := []struct {
		name              string
		top               *topology.Topology
		steps             int
		freeLow, freeHigh int
	}{
		// The DGX churns across its whole range; the cluster churns in a
		// mostly-busy window so the search oracle stays tractable while
		// masks straddle the 64-bit word boundary.
		{"dgx-a100", topology.DGXA100(), 120, 3, 8},
		{"cluster-a100", topology.ClusterA100(9), 60, 8, 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pattern := appgraph.Ring(3)
			scorer := score.NewScorer(nil)

			// One warmed store shared across the four policies.
			tabledStore := matchcache.NewStore(tc.top, 0)
			tabledStore.Warm(0, pattern)

			for name, mk := range fourPolicies(scorer) {
				t.Run(name, func(t *testing.T) {
					fast := mk()
					fastViews := tabledStore.NewViews()
					AttachViews(fast, fastViews)

					slow := mk() // nothing attached: a fresh search per decision

					rng := rand.New(rand.NewSource(321))
					avail := tc.top.Graph.Clone()
					free := func() []int { return avail.Vertices() }
					release := func(gpus []int) {
						for _, g := range gpus {
							avail.AddVertex(g)
							for _, v := range avail.Vertices() {
								if v != g {
									e, _ := tc.top.Graph.EdgeBetween(g, v)
									avail.MustAddEdge(g, v, e.Weight, e.Label)
								}
							}
						}
						fastViews.Release(gpus)
					}
					var leases [][]int
					// Drain into the churn window first.
					for len(free()) > tc.freeHigh {
						k := 1 + rng.Intn(4)
						if len(free())-k < tc.freeLow {
							k = len(free()) - tc.freeLow
						}
						fs := free()
						take := make([]int, 0, k)
						for len(take) < k {
							i := rng.Intn(len(fs))
							take = append(take, fs[i])
							fs[i] = fs[len(fs)-1]
							fs = fs[:len(fs)-1]
						}
						for _, g := range take {
							avail.RemoveVertex(g)
						}
						fastViews.Allocate(take)
						leases = append(leases, take)
					}

					decisions := 0
					for step := 0; step < tc.steps; step++ {
						if len(leases) > 0 && (len(free()) < 3 || rng.Intn(2) == 0) {
							i := rng.Intn(len(leases))
							release(leases[i])
							leases[i] = leases[len(leases)-1]
							leases = leases[:len(leases)-1]
							continue
						}
						req := Request{Pattern: pattern, Sensitive: rng.Intn(2) == 0}
						evals, searches, filters := score.Evaluations(), match.Searches(), match.Filters()
						got, err := fast.Allocate(tc.top, avail.VertexBitset(), req)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if d := score.Evaluations() - evals; d != 0 {
							t.Fatalf("step %d: table-served decision ran %d dynamic score evaluations, want 0", step, d)
						}
						if d := match.Searches() - searches; d != 0 {
							t.Fatalf("step %d: table-served decision ran %d searches, want 0", step, d)
						}
						if d := match.Filters() - filters; d != 0 {
							t.Fatalf("step %d: table-served decision ran %d universe scans, want 0", step, d)
						}
						want, err := slow.Allocate(tc.top, avail.VertexBitset(), req)
						if err != nil {
							t.Fatal(err)
						}
						if fullAllocString(got) != fullAllocString(want) {
							t.Fatalf("step %d (sensitive=%v): table-served decision diverged from the search:\n got %s\nwant %s",
								step, req.Sensitive, fullAllocString(got), fullAllocString(want))
						}
						if !match.IsEmbedding(pattern, avail, got.Match) {
							t.Fatalf("step %d: invalid embedding", step)
						}
						for _, g := range got.GPUs {
							avail.RemoveVertex(g)
						}
						fastViews.Allocate(got.GPUs)
						leases = append(leases, got.GPUs)
						decisions++
					}
					vs := fastViews.Stats()
					if decisions == 0 || vs.TableServed != uint64(decisions) || vs.Rejected != 0 {
						t.Fatalf("%d decisions but fast view stats %+v — every decision must be table-served", decisions, vs)
					}
				})
			}
			if st := tabledStore.Stats(); st.Tables == 0 || st.TableTime <= 0 {
				t.Fatalf("warmed store built no score tables: %+v", st)
			}
		})
	}
}

// TestScoredTruncationParity pins the capped regime: with a binding
// candidate cap only the first maxCandidates live candidates in the
// search's emission order compete — a prefix the table does not keep —
// so every capped decision is declined to the search and must match
// the plain sequential capped decision.
func TestScoredTruncationParity(t *testing.T) {
	top := topology.DGXA100()
	pattern := appgraph.Ring(3)
	store := matchcache.NewStore(top, 0)
	store.Warm(0, pattern)

	fast := NewPreserve(nil)
	SetMaxCandidates(fast, 5)
	views := store.NewViews()
	AttachViews(fast, views)

	vanilla := NewPreserve(nil)
	SetMaxCandidates(vanilla, 5)

	for _, busy := range [][]int{nil, {0}, {1, 6}, {2, 3, 7}} {
		avail := top.Graph.Clone()
		var delta []int
		for _, g := range busy {
			avail.RemoveVertex(g)
			delta = append(delta, g)
		}
		views.Allocate(delta)
		for _, sensitive := range []bool{true, false} {
			req := Request{Pattern: pattern, Sensitive: sensitive}
			got, err := fast.Allocate(top, avail.VertexBitset(), req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := vanilla.Allocate(top, avail.VertexBitset(), req)
			if err != nil {
				t.Fatal(err)
			}
			if fullAllocString(got) != fullAllocString(want) {
				t.Fatalf("busy=%v sensitive=%v: capped table decision diverged:\n got %s\nwant %s",
					busy, sensitive, fullAllocString(got), fullAllocString(want))
			}
		}
		views.Release(delta)
	}
	if vs := views.Stats(); vs.TableServed != 0 || vs.Rejected != 8 {
		t.Fatalf("all 8 capped decisions must decline to the search: %+v", vs)
	}
}

// TestScoredIsomorphicBuild: a structurally different build of a warmed
// ring must be table-served through the canonical order remap — and
// with a binding cap it must decline to a search that enumerates its
// own order.
func TestScoredIsomorphicBuild(t *testing.T) {
	top := topology.DGXV100()
	ringA := appgraph.Ring(4) // 0-1-2-3-0
	ringB := graph.New()      // 0-2-1-3-0: isomorphic, different fingerprint
	ringB.MustAddEdge(0, 2, 1, 0)
	ringB.MustAddEdge(2, 1, 1, 0)
	ringB.MustAddEdge(1, 3, 1, 0)
	ringB.MustAddEdge(3, 0, 1, 0)

	store := matchcache.NewStore(top, 0)
	store.Warm(0, ringA)
	p := NewPreserve(nil)
	views := store.NewViews()
	AttachViews(p, views)

	avail := top.Graph.Clone()
	got, err := p.Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if vs := views.Stats(); vs.TableServed != 1 {
		t.Fatalf("isomorphic build was not table-served: %+v", vs)
	}
	want, err := NewPreserve(nil).Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if fullAllocString(got) != fullAllocString(want) {
		t.Fatalf("isomorphic table-served decision diverged:\n got %s\nwant %s",
			fullAllocString(got), fullAllocString(want))
	}
	if !match.IsEmbedding(ringB, avail, got.Match) {
		t.Fatal("table-served embedding not valid in the requester's vertex IDs")
	}

	// With a binding cap, ringB must be declined by the table path and
	// still match its own sequential decision.
	capped := NewPreserve(nil)
	SetMaxCandidates(capped, 2)
	cviews := store.NewViews()
	AttachViews(capped, cviews)
	got, err = capped.Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if vs := cviews.Stats(); vs.TableServed != 0 || vs.Rejected != 1 {
		t.Fatalf("foreign truncated prefix was table-served: %+v", vs)
	}
	cv := NewPreserve(nil)
	SetMaxCandidates(cv, 2)
	want, err = cv.Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if fullAllocString(got) != fullAllocString(want) {
		t.Fatalf("capped isomorphic decision diverged:\n got %s\nwant %s",
			fullAllocString(got), fullAllocString(want))
	}
}

// TestScoredPathExhaustion: undersized availability is rejected by
// validation before either path runs — the view layer never sees the
// request and its counters stay clean. (An empty live set with k ≤
// free cannot occur on the paper's topologies: their hardware graphs
// are fully connected, so pickScored's no-candidate branch is purely
// defensive.)
func TestScoredPathExhaustion(t *testing.T) {
	top := topology.DGXV100()
	pattern := appgraph.Ring(3)
	store := matchcache.NewStore(top, 0)
	store.Warm(0, pattern)
	p := NewPreserve(nil)
	views := store.NewViews()
	AttachViews(p, views)

	avail := top.Graph.Clone()
	busy := []int{0, 1, 2, 3, 4, 5}
	for _, g := range busy {
		avail.RemoveVertex(g)
	}
	views.Allocate(busy)
	if _, err := p.Allocate(top, avail.VertexBitset(), Request{Pattern: pattern, Sensitive: true}); err == nil {
		t.Fatal("expected ErrNoAllocation with only 2 free GPUs")
	}
	if vs := views.Stats(); vs.TableServed != 0 || vs.Rejected != 0 {
		t.Fatalf("undersized request must not reach the view layer: %+v", vs)
	}
}
