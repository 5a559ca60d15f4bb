package match

import (
	"math"
	"math/rand"
	"testing"

	"mapa/internal/graph"
)

// rebuildOracle constructs the state a LiveView should be in from
// scratch: a fresh view on the free mask, then the unhealthy set
// replayed as one health event.
func rebuildOracle(u *Universe, free, healthy graph.Bitset) *LiveView {
	lv := NewLiveView(u, free)
	var down []int
	for v := 0; v < u.Capacity(); v++ {
		if !healthy.Has(v) {
			down = append(down, v)
		}
	}
	lv.MarkUnhealthy(down)
	return lv
}

// TestLiveViewHealthMatchesFilterUsable drives a random interleaving of
// allocation and health deltas through one live view and checks, after
// every event, that the live candidate list equals both
// Universe.FilterUsable on the tracked masks and a view rebuilt from
// scratch — the delta machinery must be history-independent.
func TestLiveViewHealthMatchesFilterUsable(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(10)
	data.RemoveEdge(1, 6)
	data.RemoveEdge(3, 8)
	u := BuildUniverse(pattern, data, 0, 1)
	free := data.VertexBitset()
	healthy := graph.NewBitset(u.Capacity())
	healthy.Fill(u.Capacity())
	lv := NewLiveView(u, free)

	check := func(step string) {
		t.Helper()
		for _, max := range []int{0, 1, 5} {
			want, wantTrunc := u.FilterUsable(free, healthy, max)
			got, gotTrunc := lv.Candidates(max)
			if gotTrunc != wantTrunc || len(got) != len(want) {
				t.Fatalf("%s max=%d: live %d/%v, FilterUsable %d/%v", step, max, len(got), gotTrunc, len(want), wantTrunc)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s max=%d index %d: live %d, FilterUsable %d", step, max, j, got[j], want[j])
				}
			}
		}
		oracle := rebuildOracle(u, free, healthy)
		if oracle.Len() != lv.Len() {
			t.Fatalf("%s: live view has %d embeddings, rebuilt oracle %d", step, lv.Len(), oracle.Len())
		}
	}

	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		v := rng.Intn(10)
		switch rng.Intn(4) {
		case 0: // flip allocation state
			if free.Has(v) {
				lv.Allocate([]int{v})
				free.Unset(v)
			} else {
				lv.Release([]int{v})
				free.Set(v)
			}
			check("allocation delta")
		case 1: // flip health state
			if healthy.Has(v) {
				lv.MarkUnhealthy([]int{v})
				healthy.Unset(v)
			} else {
				lv.RestoreHealth([]int{v})
				healthy.Set(v)
			}
			check("health delta")
		case 2: // multi-GPU health event
			var down []int
			for g := 0; g < 10 && len(down) < 3; g++ {
				if healthy.Has(g) && rng.Intn(2) == 0 {
					down = append(down, g)
				}
			}
			lv.MarkUnhealthy(down)
			for _, g := range down {
				healthy.Unset(g)
			}
			check("multi-GPU failure")
		case 3: // full recovery
			var down []int
			for g := 0; g < 10; g++ {
				if !healthy.Has(g) {
					down = append(down, g)
				}
			}
			lv.RestoreHealth(down)
			for _, g := range down {
				healthy.Set(g)
			}
			check("full recovery")
		}
	}
}

// TestLiveViewHealthCommutes pins the mask-commutation property: the
// four interleavings of (allocate, fail) then (release, recover) on one
// vertex all pass through consistent states and land back at idle.
func TestLiveViewHealthCommutes(t *testing.T) {
	u := BuildUniverse(ringPattern(3), completeData(6), 0, 1)
	idle := u.Len()
	// Each delta goes to the view and to the accounting kept beside it,
	// as matchcache.Views publishes them.
	type stream struct {
		lv *LiveView
		bw *BandwidthAccounting
	}
	alloc := func(s stream) { s.lv.Allocate([]int{2}); s.bw.Allocate([]int{2}) }
	release := func(s stream) { s.lv.Release([]int{2}); s.bw.Release([]int{2}) }
	fail := func(s stream) { s.lv.MarkUnhealthy([]int{2}); s.bw.MarkUnhealthy([]int{2}) }
	recov := func(s stream) { s.lv.RestoreHealth([]int{2}); s.bw.RestoreHealth([]int{2}) }
	orders := [][]func(stream){
		{alloc, fail, release, recov},
		{alloc, fail, recov, release},
		{fail, alloc, release, recov},
		{fail, alloc, recov, release},
	}
	for oi, ops := range orders {
		data := completeData(6)
		s := stream{NewLiveView(u, data.VertexBitset()), NewBandwidthAccounting(data, data.VertexBitset(), u.Capacity())}
		want := s.bw.FreeWeight()
		for _, op := range ops {
			op(s)
		}
		if s.lv.Len() != idle {
			t.Fatalf("order %d: %d live embeddings after round trip, want %d", oi, s.lv.Len(), idle)
		}
		if got := s.bw.FreeWeight(); got != want {
			t.Fatalf("order %d: free weight %v after round trip, want %v", oi, got, want)
		}
	}
}

// TestBandwidthAccountingHealthOracle drives random allocation and
// health deltas through one accounting and checks every maintained sum
// against an accounting rebuilt from scratch on the equivalent state.
func TestBandwidthAccountingHealthOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := graph.New()
	const n = 9
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) > 0 {
				data.MustAddEdge(i, j, float64(1+rng.Intn(50)), 0)
			}
		}
	}
	capacity := graph.Capacity(data)
	free := data.VertexBitset()
	healthy := graph.NewBitset(capacity)
	healthy.Fill(capacity)
	a := NewBandwidthAccounting(data, free, capacity)

	check := func(step int) {
		t.Helper()
		// The oracle: a fresh accounting whose free set is the usable
		// set (free AND healthy) — health folded in at construction.
		usable := free.Clone()
		usable.And(healthy)
		fresh := NewBandwidthAccounting(data, usable, capacity)
		if got, want := a.FreeWeight(), fresh.FreeWeight(); got != want {
			t.Fatalf("step %d: FreeWeight %v, rebuilt %v", step, got, want)
		}
		for v := 0; v < capacity; v++ {
			if got, want := a.FreeIncidentWeight(v), fresh.FreeIncidentWeight(v); got != want {
				t.Fatalf("step %d: FreeIncidentWeight(%d) %v, rebuilt %v", step, v, got, want)
			}
		}
	}

	for step := 0; step < 500; step++ {
		v := rng.Intn(n)
		if rng.Intn(2) == 0 {
			if free.Has(v) {
				a.Allocate([]int{v})
				free.Unset(v)
			} else {
				a.Release([]int{v})
				free.Set(v)
			}
		} else {
			if healthy.Has(v) {
				a.MarkUnhealthy([]int{v})
				healthy.Unset(v)
			} else {
				a.RestoreHealth([]int{v})
				healthy.Set(v)
			}
		}
		check(step)
	}
}

// TestBandwidthAccountingUpdateEdge degrades link weights under mixed
// allocation/health state and checks the absorbed deltas against an
// accounting rebuilt from the mutated graph.
func TestBandwidthAccountingUpdateEdge(t *testing.T) {
	data := completeData(7)
	capacity := graph.Capacity(data)
	free := data.VertexBitset()
	a := NewBandwidthAccounting(data, free, capacity)
	a.Allocate([]int{1, 4})
	free.Unset(1)
	free.Unset(4)
	a.MarkUnhealthy([]int{2})
	healthyDown := []int{2}

	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 100; step++ {
		u := rng.Intn(7)
		v := rng.Intn(7)
		if u == v {
			continue
		}
		w := float64(rng.Intn(40))   // degradation to zero is legal
		data.MustAddEdge(u, v, w, 0) // overwrite weight in the graph
		a.UpdateEdge(u, v, w)

		usable := free.Clone()
		for _, g := range healthyDown {
			usable.Unset(g)
		}
		fresh := NewBandwidthAccounting(data, usable, capacity)
		if got, want := a.FreeWeight(), fresh.FreeWeight(); math.Abs(got-want) != 0 {
			t.Fatalf("step %d: FreeWeight %v after UpdateEdge(%d,%d,%v), rebuilt %v", step, got, u, v, w, want)
		}
		for g := 0; g < capacity; g++ {
			if got, want := a.FreeIncidentWeight(g), fresh.FreeIncidentWeight(g); got != want {
				t.Fatalf("step %d: FreeIncidentWeight(%d) %v, rebuilt %v", step, g, got, want)
			}
		}
	}
}

// TestHealthDivergencePanics pins the stream-divergence guards of the
// health mask: double failures, double recoveries, and edge updates the
// accounting does not track must fail loudly, never corrupt sums.
func TestHealthDivergencePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		fn()
	}
	u := BuildUniverse(ringPattern(3), completeData(6), 0, 1)
	mustPanic("LiveView double MarkUnhealthy", func() {
		lv := NewLiveView(u, completeData(6).VertexBitset())
		lv.MarkUnhealthy([]int{3})
		lv.MarkUnhealthy([]int{3})
	})
	mustPanic("LiveView RestoreHealth of healthy vertex", func() {
		lv := NewLiveView(u, completeData(6).VertexBitset())
		lv.RestoreHealth([]int{0})
	})
	mustPanic("BandwidthAccounting double MarkUnhealthy", func() {
		a := NewBandwidthAccounting(completeData(6), completeData(6).VertexBitset(), 6)
		a.MarkUnhealthy([]int{5})
		a.MarkUnhealthy([]int{5})
	})
	mustPanic("BandwidthAccounting UpdateEdge of untracked edge", func() {
		data := completeData(6)
		data.RemoveEdge(0, 1)
		a := NewBandwidthAccounting(data, data.VertexBitset(), 6)
		a.UpdateEdge(0, 1, 10)
	})
}
