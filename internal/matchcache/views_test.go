package matchcache

import (
	"reflect"
	"testing"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// ringN builds a k-cycle pattern 0-1-...-k-1-0.
func ringN(k int) *graph.Graph {
	g := graph.New()
	for v := 0; v < k; v++ {
		g.MustAddEdge(v, (v+1)%k, 1, 0)
	}
	return g
}

// TestViewsMatchFilterUnderChurn drives allocate/release deltas
// through a view set and checks every served candidate list — keys and
// representative embeddings, in emission order — against a fresh
// search on the same state.
func TestViewsMatchFilterUnderChurn(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringN(3)
	store := NewStore(top, 0)
	views := store.NewViews()

	free := append([]int(nil), top.GPUs()...)
	remove := func(gpus ...int) {
		views.Allocate(gpus)
		next := free[:0]
		for _, g := range free {
			busy := false
			for _, b := range gpus {
				busy = busy || b == g
			}
			if !busy {
				next = append(next, g)
			}
		}
		free = next
	}
	check := func(step string) {
		t.Helper()
		avail := top.Graph.InducedSubgraph(free)
		got, ok := selectLive(views, pattern, avail, 0)
		if !ok {
			t.Fatalf("%s: view declined", step)
		}
		if got.order != nil {
			t.Fatalf("%s: identical shape needs no remap, got %v", step, got.order)
		}
		wantMs, wantKeys := match.FindAllDedupedCappedKeys(pattern, avail, 0)
		sameKeys(t, step, got.keys, wantKeys)
		if !reflect.DeepEqual(got.matches, wantMs) {
			t.Fatalf("%s: served representatives differ from the search's", step)
		}
	}

	check("idle")
	remove(0, 3)
	check("allocate {0,3}")
	remove(5)
	check("allocate {5}")
	views.Release([]int{3})
	free = append(free, 3)
	check("release {3}")
	if vs := views.Stats(); vs.TableServed != 4 || vs.Rejected != 0 {
		t.Fatalf("view stats = %+v, want 4 served, 0 rejected", vs)
	}
}

// TestViewsRejectsOutOfSyncStream pins the stream cross-check: an
// availability graph whose free mask differs from the published deltas
// must be declined, not served stale candidates.
func TestViewsRejectsOutOfSyncStream(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringN(3)
	views := NewStore(top, 0).NewViews()
	views.Allocate([]int{0, 1})
	// Caller presents the idle machine although the stream says 0 and 1
	// are busy.
	if _, ok := selectLive(views, pattern, top.Graph, 0); ok {
		t.Fatal("out-of-sync avail was served from the live view")
	}
	if vs := views.Stats(); vs.Rejected != 1 || vs.TableServed != 0 {
		t.Fatalf("view stats = %+v, want the mismatch rejected", vs)
	}
	// The matching state must serve.
	if _, ok := selectLive(views, pattern, without(top.Graph, []int{0, 1}), 0); !ok {
		t.Fatal("in-sync avail was rejected")
	}
}

// TestViewsRejectsIncompleteUniverse: a shape whose idle enumeration
// overflows the store capacity can never be viewed.
func TestViewsRejectsIncompleteUniverse(t *testing.T) {
	top := topology.DGXV100()
	store := NewStore(top, 2) // triangle universe on a DGX-V is far larger
	views := store.NewViews()
	if _, ok := selectLive(views, ringN(3), top.Graph, 0); ok {
		t.Fatal("incomplete universe was served from a live view")
	}
	if vs := views.Stats(); len(views.slots) != 0 || vs.Rejected != 1 {
		t.Fatalf("view stats = %+v, want no slot kept and 1 rejection", vs)
	}
}

// TestViewsTruncatedNotServedToIsomorphicBuild: a cap-truncated
// candidate list is the emission-order prefix of one build's search,
// which the table does not keep, so a binding cap is declined (and
// counted) for the build the universe was derived for and for a
// structurally different isomorphic build alike.
func TestViewsTruncatedNotServedToIsomorphicBuild(t *testing.T) {
	top := topology.DGXV100()
	ringA := ringN(4) // 0-1-2-3-0
	ringB := ring0213()
	views := NewStore(top, 0).NewViews()

	if _, ok := selectLive(views, ringA, top.Graph, 2); ok {
		t.Fatal("a truncated prefix was served to the universe's own build")
	}
	if _, ok := selectLive(views, ringB, top.Graph, 2); ok {
		t.Fatal("foreign truncated prefix was served to an isomorphic build")
	}
	if vs := views.Stats(); vs.Rejected != 2 {
		t.Fatalf("view stats = %+v, want both truncated lists counted rejected", vs)
	}
	// Untruncated serves cross builds fine, remapped.
	gotB, ok := selectLive(views, ringB, top.Graph, 0)
	if !ok {
		t.Fatal("untruncated view must serve the isomorphic build")
	}
	if gotB.order == nil {
		t.Fatal("isomorphic build must receive an order remap")
	}
	m := match.Match{Pattern: gotB.order, Data: gotB.matches[0].Data}
	if !match.IsEmbedding(ringB, top.Graph, m) {
		t.Fatal("remapped live-view match is not an embedding of the requester's build")
	}
}

// TestCanonicalKeysShareEntriesAcrossIsomorphicBuilds: two structurally
// different builds of the 4-ring land on one view slot, one universe
// and one score table, and each is served every candidate as a valid
// embedding of its own pattern.
func TestCanonicalKeysShareEntriesAcrossIsomorphicBuilds(t *testing.T) {
	top := topology.DGXV100()
	store := NewStore(top, 0)
	views := store.NewViews()
	for _, ring := range []*graph.Graph{ringN(4), ring0213()} {
		got, ok := selectLive(views, ring, top.Graph, 0)
		if !ok {
			t.Fatal("view declined an uncapped build of the ring")
		}
		for i, m := range got.matches {
			if got.order != nil {
				m = match.Match{Pattern: got.order, Data: m.Data}
			}
			if !match.IsEmbedding(ring, top.Graph, m) {
				t.Fatalf("candidate %d (%v->%v) is not an embedding of the requester's build", i, m.Pattern, m.Data)
			}
		}
	}
	if st := store.Stats(); len(views.slots) != 1 || st.Universes != 1 || st.Tables != 1 {
		t.Fatalf("isomorphic builds must share one slot, universe and table: %d slots, store %+v", len(views.slots), st)
	}
}

// TestBound: policies consult Views.Bound before every decision, on
// whatever view set is attached — including none.
func TestBound(t *testing.T) {
	top := topology.DGXV100()
	v := NewStore(top, 0).NewViews()
	if !v.Bound(top) {
		t.Fatal("view set not bound to its own topology")
	}
	if v.Bound(topology.DGXV100()) {
		t.Fatal("view set bound to a different topology value")
	}
	var none *Views
	if none.Bound(top) {
		t.Fatal("nil view set reported bound")
	}
}

// TestViewsBuildsMidStream pins the late-warm case: a shape first
// requested after deltas have been published initializes its view from
// the current mask, not the idle machine.
func TestViewsBuildsMidStream(t *testing.T) {
	top := topology.DGXV100()
	views := NewStore(top, 0).NewViews()
	views.Allocate([]int{2, 6, 7})
	views.MarkUnhealthy([]int{4})
	avail := without(top.Graph, []int{2, 4, 6, 7})
	got, ok := selectLive(views, ringN(3), avail, 0)
	if !ok {
		t.Fatal("mid-stream first request was rejected")
	}
	_, wantKeys := match.FindAllDedupedCappedKeys(ringN(3), avail, 0)
	sameKeys(t, "mid-stream build", got.keys, wantKeys)
}

// deltaStream is the publisher-facing delta API that Views and
// FleetViews share.
type deltaStream interface {
	Allocate(gpus []int)
	Release(gpus []int)
	MarkUnhealthy(gpus []int)
	RestoreHealth(gpus []int)
}

// TestViewsInconsistentDeltaPanics pins the stream-divergence guard at
// the Views level, where it must live now that deltas no longer reach
// the per-shape views: a delta contradicting the tracked masks fails
// loudly — on a flat machine and on a fleet, whose deltas land in its
// nodes' Views.
func TestViewsInconsistentDeltaPanics(t *testing.T) {
	store := NewStore(topology.DGXV100(), 0)
	fleet := NewFleetStore(topology.NewFleet(topology.DGXA100(), 2), 0)
	for _, s := range []struct {
		kind string
		new  func() deltaStream
	}{
		{"flat", func() deltaStream { return store.NewViews() }},
		{"fleet", func() deltaStream { return fleet.NewFleetViews() }},
	} {
		for _, tc := range []struct {
			name string
			do   func(v deltaStream)
		}{
			{"allocate a busy GPU", func(v deltaStream) { v.Allocate([]int{2}); v.Allocate([]int{1, 2}) }},
			{"release a free GPU", func(v deltaStream) { v.Release([]int{4}) }},
			{"mark an unhealthy GPU", func(v deltaStream) { v.MarkUnhealthy([]int{6}); v.MarkUnhealthy([]int{6}) }},
			{"restore a healthy GPU", func(v deltaStream) { v.RestoreHealth([]int{6}) }},
			{"allocate an unknown GPU", func(v deltaStream) { v.Allocate([]int{64}) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s must panic", s.kind, tc.name)
					}
				}()
				tc.do(s.new())
			}()
		}
		// The legal orders of the same events do not.
		v := s.new()
		v.Allocate([]int{1, 2})
		v.MarkUnhealthy([]int{2, 6})
		v.Release([]int{1, 2})
		v.RestoreHealth([]int{2, 6})
	}
}
