package policy

import (
	"fmt"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/matchcache"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// allocString renders the decision fields that must be invariant
// between the table-served path and the search.
func allocString(a Allocation) string {
	return fmt.Sprintf("gpus=%v agg=%.6f eff=%.6f pres=%.6f", a.GPUs, a.Scores.AggBW, a.Scores.EffBW, a.Scores.PreservedBW)
}

// served attaches store and a fresh view stream over it, advanced to
// the state with the given GPUs busy, to p — the pipeline a System or
// Engine wires — and returns the stream and the matching availability
// graph.
func served(p Allocator, store *matchcache.Store, top *topology.Topology, busy []int) (*matchcache.Views, *graph.Graph) {
	views := store.NewViews()
	views.Allocate(busy)
	AttachViews(p, views)
	return views, without(top.Graph, busy)
}

// TestWarmedShapeAllocatesNewStateWithoutSearch is the acceptance
// check for the precomputed pipeline: with a warmed idle-state
// universe, a Preserve decision on a previously-unseen availability
// state must be table-served — zero calls into the match package's
// backtracking search — and still equal the plain search's decision.
func TestWarmedShapeAllocatesNewStateWithoutSearch(t *testing.T) {
	top := topology.DGXV100()
	pattern := appgraph.Ring(3)
	store := matchcache.NewStore(top, 0)
	store.Warm(0, pattern)
	vanilla := NewPreserve(score.NewScorer(nil))

	for _, busy := range [][]int{{0, 5}, {1, 6}, {2, 3, 7}} {
		warmed := NewPreserve(score.NewScorer(nil))
		views, avail := served(warmed, store, top, busy)
		req := Request{Pattern: pattern, Sensitive: true}

		before := match.Searches()
		got, err := warmed.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		if after := match.Searches(); after != before {
			t.Fatalf("busy=%v: unseen availability state ran %d searches, want 0 (table-served)", busy, after-before)
		}
		if vs := views.Stats(); vs.TableServed != 1 || vs.Rejected != 0 {
			t.Fatalf("busy=%v: view stats %+v, want the decision table-served", busy, vs)
		}
		want, err := vanilla.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		if allocString(got) != allocString(want) {
			t.Fatalf("busy=%v: table-served decision diverged:\n got %s\nwant %s", busy, allocString(got), allocString(want))
		}
		if !match.IsEmbedding(pattern, avail, got.Match) {
			t.Fatalf("busy=%v: table-served decision returned an invalid embedding", busy)
		}
	}
}

// TestStoreOnlyPathMatchesSequential: a cold store (nothing warmed, the
// universe and table built by the first decision) on the 16-GPU torus
// must decide like the search on every state.
func TestStoreOnlyPathMatchesSequential(t *testing.T) {
	top := topology.Torus2D()
	pattern := appgraph.Ring(4)
	store := matchcache.NewStore(top, 0)
	vanilla := NewGreedy(score.NewScorer(nil))

	for _, busy := range [][]int{nil, {0, 1}, {3, 7, 11, 15}, {2, 5, 8}} {
		viewed := NewGreedy(score.NewScorer(nil))
		_, avail := served(viewed, store, top, busy)
		req := Request{Pattern: pattern, Sensitive: false}
		got, err := viewed.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vanilla.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		if allocString(got) != allocString(want) {
			t.Fatalf("busy=%v: store-backed decision diverged:\n got %s\nwant %s", busy, allocString(got), allocString(want))
		}
	}
}

// TestIsomorphicRequestSharesPipeline: a structurally different build
// of the same ring must reuse the first build's universe, table and
// live view, and still produce the same decision as its own search,
// with a valid embedding in its own vertex IDs.
func TestIsomorphicRequestSharesPipeline(t *testing.T) {
	top := topology.DGXV100()
	ringA := appgraph.Ring(4) // 0-1-2-3-0
	ringB := graph.New()      // 0-2-1-3-0
	ringB.MustAddEdge(0, 2, 1, 0)
	ringB.MustAddEdge(2, 1, 1, 0)
	ringB.MustAddEdge(1, 3, 1, 0)
	ringB.MustAddEdge(3, 0, 1, 0)

	p := NewPreserve(score.NewScorer(nil))
	store := matchcache.NewStore(top, 0)
	store.Warm(0, ringA)
	views, avail := served(p, store, top, []int{1})

	if _, err := p.Allocate(top, avail.VertexBitset(), Request{Pattern: ringA, Sensitive: true}); err != nil {
		t.Fatal(err)
	}
	before := match.Searches()
	got, err := p.Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if match.Searches() != before {
		t.Fatal("isomorphic request ran a search despite the shared pipeline")
	}
	if vs, st := views.Stats(), store.Stats(); vs.TableServed != 2 || st.Universes != 1 {
		t.Fatalf("isomorphic request must share the first build's universe: views %+v store %+v", vs, st)
	}
	vanilla := NewPreserve(score.NewScorer(nil))
	want, err := vanilla.Allocate(top, avail.VertexBitset(), Request{Pattern: ringB, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if allocString(got) != allocString(want) {
		t.Fatalf("isomorphic decision diverged:\n got %s\nwant %s", allocString(got), allocString(want))
	}
	if !match.IsEmbedding(ringB, avail, got.Match) {
		t.Fatal("isomorphic decision returned an embedding not valid for the requester's pattern")
	}
}

// TestSearchFallbackByDeclineReason reaches allocateSearch through each
// reason the view layer declines for: the decision must equal the bare
// policy's (nothing attached), the decline must be counted, and exactly
// one search must run. A table-served control decision on the same kind
// of store runs none. Each case runs at two worker counts passed to
// Store.Warm, whose workers argument is kept only for a linked signature
// and must change neither the build nor the decision.
func TestSearchFallbackByDeclineReason(t *testing.T) {
	top := topology.DGXV100()
	ring := appgraph.Ring(3)
	// A weighted tree and its 2<->3 relabeling: isomorphic, different
	// structural fingerprint — and the leaf-ID swap flips the match
	// order's tie-break, so B's enumeration emits classes in a genuinely
	// different order than A's. Under a binding cap A's truncated prefix
	// is not B's.
	patA := graph.New()
	patA.MustAddEdge(0, 1, 1, 0)
	patA.MustAddEdge(0, 2, 2, 0)
	patA.MustAddEdge(1, 3, 1, 0)
	patB := graph.New()
	patB.MustAddEdge(0, 1, 1, 0)
	patB.MustAddEdge(0, 3, 2, 0)
	patB.MustAddEdge(1, 2, 1, 0)

	cases := []struct {
		name     string
		capacity int          // store capacity
		warm     *graph.Graph // shape resident before the decision
		pattern  *graph.Graph // shape requested
		cap      int          // SetMaxCandidates; 0 keeps the default
		busy     []int        // GPUs out of avail
		behind   []int        // of those, the deltas the stream never saw
		wantView bool         // table-served control
	}{
		{name: "universe overflowed the store capacity", capacity: 8, warm: ring, pattern: ring, busy: []int{1, 6}},
		{name: "foreign build under a binding cap", warm: patA, pattern: patB, cap: 2, busy: []int{1, 6}},
		{name: "stream one delta behind", warm: ring, pattern: ring, busy: []int{1, 6}, behind: []int{6}},
		{name: "own build under a binding cap", warm: patA, pattern: patA, cap: 2, busy: []int{1, 6}},
		{name: "control: in sync, complete, own build", warm: patA, pattern: patA, busy: []int{1, 6}, wantView: true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				store := matchcache.NewStore(top, tc.capacity)
				store.Warm(workers, tc.warm) // the build's own searches happen here
				mk := func() Allocator {
					p := NewPreserve(score.NewScorer(nil))
					if tc.cap > 0 {
						SetMaxCandidates(p, tc.cap)
					}
					return p
				}
				p := mk()
				views, avail := served(p, store, top, tc.busy)
				views.Release(tc.behind)
				req := Request{Pattern: tc.pattern, Sensitive: true}

				before := match.Searches()
				got, err := p.Allocate(top, avail.VertexBitset(), req)
				if err != nil {
					t.Fatal(err)
				}
				ran := match.Searches() - before
				vs := views.Stats()
				if tc.wantView {
					if ran != 0 || vs.TableServed != 1 || vs.Rejected != 0 {
						t.Fatalf("control ran %d searches with view stats %+v, want table-served", ran, vs)
					}
				} else {
					if vs.TableServed != 0 || vs.Rejected != 1 {
						t.Fatalf("view stats %+v, want one counted decline", vs)
					}
					if ran != 1 {
						t.Fatalf("declined decision ran %d searches, want exactly one", ran)
					}
				}
				want, err := mk().Allocate(top, avail.VertexBitset(), req)
				if err != nil {
					t.Fatal(err)
				}
				if fullAllocString(got) != fullAllocString(want) {
					t.Fatalf("decision diverged from the bare policy's:\n got %s\nwant %s", fullAllocString(got), fullAllocString(want))
				}
				if !match.IsEmbedding(tc.pattern, avail, got.Match) {
					t.Fatal("decision is not an embedding of the requested build")
				}
			})
		}
	}
}
