package match

import (
	"fmt"
	"math/rand"
	"testing"

	"mapa/internal/graph"
)

// sameViewState asserts two views over one universe hold identical
// state: masks, per-set blocked counters, live sets and count.
func sameViewState(t *testing.T, step string, got, want *LiveView) {
	t.Helper()
	if !got.avail.Equal(want.avail) || !got.healthy.Equal(want.healthy) {
		t.Fatalf("%s: masks differ: avail %v/%v healthy %v/%v", step, got.avail, want.avail, got.healthy, want.healthy)
	}
	for s := range want.blocked {
		if got.blocked[s] != want.blocked[s] {
			t.Fatalf("%s: set %d blocked %d times, want %d", step, s, got.blocked[s], want.blocked[s])
		}
	}
	if !got.live.Equal(want.live) || got.Len() != want.Len() {
		t.Fatalf("%s: live set differs (%d live, want %d)", step, got.Len(), want.Len())
	}
}

// setPostings derives from the embeddings alone what a change of each
// data vertex's usability must cost a view: the number of distinct
// vertex sets among the embeddings containing it.
func setPostings(u *Universe) []int {
	sets := make([]map[string]bool, u.Capacity())
	for i := 0; i < u.Len(); i++ {
		members := u.Set(i).Members()
		key := fmt.Sprint(members)
		for _, v := range members {
			if sets[v] == nil {
				sets[v] = make(map[string]bool)
			}
			sets[v][key] = true
		}
	}
	out := make([]int, u.Capacity())
	for v, s := range sets {
		out[v] = len(s)
	}
	return out
}

// changedPostings is the Sync cost of moving from usable mask was to
// is: the set postings of every vertex whose usability differs.
func changedPostings(perVertex []int, was, is graph.Bitset) int {
	n := 0
	for g, p := range perVertex {
		if was.Has(g) != is.Has(g) {
			n += p
		}
	}
	return n
}

// TestLiveViewSyncMatchesEagerReplay is the Sync oracle: random
// interleavings of allocate, release, mark-unhealthy and restore are
// replayed delta by delta into one view and only accumulated as masks
// for another, which syncs at random intervals. After every sync the
// two — and a view rebuilt from scratch on the masks — must be
// state-identical, and Sync must have walked exactly the set postings
// of the vertices whose usability changed since its previous call. The
// pattern is Ring(4), three embeddings per vertex set, so a walk over
// embeddings instead of sets would be caught.
func TestLiveViewSyncMatchesEagerReplay(t *testing.T) {
	// Sparse IDs spanning two mask words.
	const n, stride = 10, 9
	data := graph.New()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			data.MustAddEdge(i*stride, j*stride, 1, 0)
		}
	}
	data.RemoveEdge(0, 4*stride)
	u := BuildUniverse(ringPattern(4), data, 0, 1)
	perVertex := setPostings(u)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		free := data.VertexBitset()
		unhealthy := graph.NewBitset(u.Capacity())
		eager := NewLiveView(u, free)
		synced := NewLiveView(u, free)
		usableAtSync := free.Clone()
		for step := 0; step < 300; step++ {
			v := rng.Intn(n) * stride
			if rng.Intn(3) > 0 {
				if free.Has(v) {
					free.Unset(v)
					eager.Allocate([]int{v})
				} else {
					free.Set(v)
					eager.Release([]int{v})
				}
			} else {
				if unhealthy.Has(v) {
					unhealthy.Unset(v)
					eager.RestoreHealth([]int{v})
				} else {
					unhealthy.Set(v)
					eager.MarkUnhealthy([]int{v})
				}
			}
			if rng.Intn(4) > 0 {
				continue
			}
			usable := free.Clone()
			usable.AndNot(unhealthy)
			wantWalked := changedPostings(perVertex, usableAtSync, usable)
			usableAtSync = usable
			if walked := synced.Sync(free, unhealthy); walked != wantWalked {
				t.Fatalf("seed %d step %d: Sync walked %d postings, the changed vertices hold %d", seed, step, walked, wantWalked)
			}
			sameViewState(t, "synced vs eager", synced, eager)
			healthy := graph.NewBitset(u.Capacity())
			healthy.Fill(u.Capacity())
			healthy.AndNot(unhealthy)
			sameViewState(t, "synced vs rebuilt", synced, rebuildOracle(u, free, healthy))
		}
	}
}

// TestLiveViewSyncIgnoresOutOfCapacityBits: mask bits at or beyond the
// universe's capacity name no vertex of any embedding — even inside the
// last mask word — and must not reach the view's masks.
func TestLiveViewSyncIgnoresOutOfCapacityBits(t *testing.T) {
	data := completeData(6)
	u := BuildUniverse(ringPattern(3), data, 0, 1)
	lv := NewLiveView(u, data.VertexBitset())
	free := graph.NewBitset(128)
	free.Fill(128)
	unhealthy := graph.NewBitset(128)
	unhealthy.Set(40)
	if walked := lv.Sync(free, unhealthy); walked != 0 {
		t.Fatalf("Sync walked %d postings for out-of-capacity bits", walked)
	}
	sameViewState(t, "out-of-capacity bits", lv, NewLiveView(u, data.VertexBitset()))
	// A short mask reads as empty beyond its words.
	lv.Sync(graph.Bitset{}, graph.Bitset{})
	if lv.Len() != 0 {
		t.Fatalf("%d embeddings live on an empty free mask", lv.Len())
	}
}

// TestLiveViewSyncDoesNotAllocate pins the hot-path property: catching
// a view up is posting-list arithmetic on memory the view already owns.
func TestLiveViewSyncDoesNotAllocate(t *testing.T) {
	data := completeData(8)
	u := BuildUniverse(ringPattern(4), data, 0, 1)
	lv := NewLiveView(u, data.VertexBitset())
	idle, busy := data.VertexBitset(), data.VertexBitset()
	for _, g := range []int{1, 2, 6} {
		busy.Unset(g)
	}
	none, down := graph.NewBitset(8), graph.NewBitset(8)
	down.Set(4)
	if allocs := testing.AllocsPerRun(100, func() {
		lv.Sync(busy, down)
		lv.Sync(idle, none)
	}); allocs != 0 {
		t.Fatalf("Sync allocates %v times per call pair, want 0", allocs)
	}
}
