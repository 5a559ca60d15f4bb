package match

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/graph"
)

// maskLive is the liveness the decision path reads off a stream: the
// embeddings whose vertex set lies in the accounting's usable mask, in
// emission order, truncated to the first max (max <= 0: unlimited)
// like Filter.
func maskLive(u *Universe, a *BandwidthAccounting, max int) (idx []int, truncated bool) {
	for _, i := range u.Emission() {
		if !u.Set(i).SubsetOf(a.Usable()) {
			continue
		}
		if max > 0 && len(idx) == max {
			return idx, true
		}
		idx = append(idx, i)
	}
	return idx, false
}

// liveViewEqualsFilter asserts the liveness contract: the embeddings
// live on the accounting's usable mask equal Universe.Filter on the
// equivalent mask — indices, order, and truncation behavior — for
// unlimited and capped serves, and the usable count is the mask's.
func liveViewEqualsFilter(t *testing.T, a *BandwidthAccounting, u *Universe, mask graph.Bitset, step string) {
	t.Helper()
	if a.UsableCount() != mask.Count() {
		t.Fatalf("%s: %d usable, mask holds %d", step, a.UsableCount(), mask.Count())
	}
	for _, max := range []int{0, 1, 7} {
		want, wantTrunc := u.Filter(mask, max)
		got, gotTrunc := maskLive(u, a, max)
		if gotTrunc != wantTrunc || !slices.Equal(got, want) {
			t.Fatalf("%s max=%d: mask liveness %v (truncated %v), Filter %v (%v)", step, max, got, gotTrunc, want, wantTrunc)
		}
	}
}

// sameAccounting asserts two accountings are in the same state: usable
// mask, sums, and the incident order ByIncident serves.
func sameAccounting(t *testing.T, step string, got, want *BandwidthAccounting) {
	t.Helper()
	if !got.Usable().Equal(want.Usable()) || got.UsableCount() != want.UsableCount() {
		t.Fatalf("%s: usable %v (%d), want %v (%d)", step, got.Usable(), got.UsableCount(), want.Usable(), want.UsableCount())
	}
	if got.FreeWeight() != want.FreeWeight() {
		t.Fatalf("%s: FreeWeight %v, want %v", step, got.FreeWeight(), want.FreeWeight())
	}
	if !slices.Equal(got.IncidentView(), want.IncidentView()) {
		t.Fatalf("%s: incident sums %v, want %v", step, got.IncidentView(), want.IncidentView())
	}
	gotOrd, gotPre := got.ByIncident()
	wantOrd, wantPre := want.ByIncident()
	if !slices.Equal(gotOrd, wantOrd) || !slices.Equal(gotPre, wantPre) {
		t.Fatalf("%s: ByIncident %v %v, want %v %v", step, gotOrd, gotPre, wantOrd, wantPre)
	}
}

// checkByIncident asserts ByIncident against its definition: the usable
// vertices ascending by incident weight, ties by ID, with running sums.
func checkByIncident(t *testing.T, step string, a *BandwidthAccounting) {
	t.Helper()
	inc := a.IncidentView()
	want := a.Usable().Members()
	slices.SortStableFunc(want, func(x, y int) int {
		switch {
		case inc[x] < inc[y]:
			return -1
		case inc[x] > inc[y]:
			return 1
		}
		return 0
	})
	order, prefix := a.ByIncident()
	if len(order) != len(want) || len(prefix) != len(want)+1 || prefix[0] != 0 {
		t.Fatalf("%s: ByIncident %v %v, want order %v", step, order, prefix, want)
	}
	for i, v := range want {
		if int(order[i]) != v || prefix[i+1] != prefix[i]+inc[v] {
			t.Fatalf("%s: ByIncident %v %v, want order %v", step, order, prefix, want)
		}
	}
}

// rebuildOracle constructs the state an accounting should be in from
// scratch: a fresh accounting on the free mask, then the unhealthy set
// replayed as one health event.
func rebuildOracle(data *graph.Graph, free, healthy graph.Bitset) *BandwidthAccounting {
	a := NewBandwidthAccounting(data, free, graph.Capacity(data))
	var down []int
	for _, v := range data.Vertices() {
		if !healthy.Has(v) {
			down = append(down, v)
		}
	}
	a.MarkUnhealthy(down)
	return a
}

// TestLiveViewMatchesFilterUnderDeltas drives multi-GPU allocate and
// release deltas through a stream's accounting and checks mask
// liveness against Filter after every operation, including full drain
// back to idle.
func TestLiveViewMatchesFilterUnderDeltas(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(10)
	u := BuildUniverse(pattern, data, 0)
	free := data.VertexBitset()
	a := NewBandwidthAccounting(data, free, graph.Capacity(data))
	liveViewEqualsFilter(t, a, u, free, "idle")

	deltas := [][]int{{0, 3}, {7}, {1, 8, 9}}
	for _, d := range deltas {
		a.Allocate(d)
		for _, g := range d {
			free.Unset(g)
		}
		liveViewEqualsFilter(t, a, u, free, "allocate")
	}
	// Release out of allocation order.
	for _, d := range [][]int{{7}, {1, 8, 9}, {0, 3}} {
		a.Release(d)
		for _, g := range d {
			free.Set(g)
		}
		liveViewEqualsFilter(t, a, u, free, "release")
	}
	sameAccounting(t, "drained", a, NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data)))
}

// TestLiveViewInitialMask checks mid-stream construction: an
// accounting built over a partially allocated machine must answer
// liveness like Filter immediately — the "stream started mid-trace"
// case.
func TestLiveViewInitialMask(t *testing.T) {
	pattern := ringPattern(4)
	data := completeData(9)
	u := BuildUniverse(pattern, data, 0)
	free := data.VertexBitset()
	for _, g := range []int{2, 5, 6} {
		free.Unset(g)
	}
	a := NewBandwidthAccounting(data, free, graph.Capacity(data))
	liveViewEqualsFilter(t, a, u, free, "mid-stream build")
	checkByIncident(t, "mid-stream build", a)
}

// TestLiveViewInconsistentDeltaPanics pins the stream-divergence
// guard: double-allocating or double-releasing a vertex, or naming one
// outside the graph, means the publisher's availability stream drifted
// and must fail loudly.
func TestLiveViewInconsistentDeltaPanics(t *testing.T) {
	data := completeData(6)
	for _, tc := range []struct {
		name string
		do   func(a *BandwidthAccounting)
	}{
		{"double-allocate", func(a *BandwidthAccounting) { a.Allocate([]int{1}); a.Allocate([]int{1}) }},
		{"double-release", func(a *BandwidthAccounting) { a.Release([]int{0}) }},
		{"allocate-outside", func(a *BandwidthAccounting) { a.Allocate([]int{6}) }},
		{"release-outside", func(a *BandwidthAccounting) { a.Release([]int{99}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", tc.name)
				}
			}()
			tc.do(NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data)))
		})
	}
}

// TestLiveViewSparseVertexIDs is the regression test for sparse and
// non-contiguous data-vertex IDs (graph.Capacity): the usable mask,
// the sums and the incident order must be keyed by ID, not by dense
// position, and IDs that name no vertex must be refused.
func TestLiveViewSparseVertexIDs(t *testing.T) {
	pattern := ringPattern(3)
	data := graph.New()
	// A sparse clique spanning three bitset words: IDs 3, 40, 63, 64, 70, 130.
	ids := []int{3, 40, 63, 64, 70, 130}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			data.MustAddEdge(ids[i], ids[j], float64(1+i+j), 0)
		}
	}
	if got, want := graph.Capacity(data), 131; got != want {
		t.Fatalf("graph.Capacity = %d, want %d", got, want)
	}
	u := BuildUniverse(pattern, data, 0)
	if want := 6 * 5 * 4 / 6; u.Len() != want {
		t.Fatalf("universe holds %d classes, want %d", u.Len(), want)
	}
	free := data.VertexBitset()
	a := NewBandwidthAccounting(data, free, graph.Capacity(data))
	liveViewEqualsFilter(t, a, u, free, "sparse idle")
	for _, g := range []int{63, 130} {
		a.Allocate([]int{g})
		free.Unset(g)
		liveViewEqualsFilter(t, a, u, free, "sparse allocate")
		checkByIncident(t, "sparse allocate", a)
	}
	for _, g := range []int{4, 500} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a delta on non-vertex %d must panic", g)
				}
			}()
			a.Release([]int{g})
		}()
	}
	a.Release([]int{130})
	free.Set(130)
	liveViewEqualsFilter(t, a, u, free, "sparse release")
	checkByIncident(t, "sparse release", a)
	// Cross-check against the enumeration on the induced subgraph.
	avail := data.InducedSubgraph(free.Members())
	_, wantKeys := FindAllDedupedCappedKeys(pattern, avail, 0)
	idx, _ := maskLive(u, a, 0)
	if len(idx) != len(wantKeys) {
		t.Fatalf("mask liveness kept %d classes, sequential %d", len(idx), len(wantKeys))
	}
	for j, i := range idx {
		if u.Key(pattern, i) != wantKeys[j] {
			t.Fatalf("class %d: key %q, want %q", j, u.Key(pattern, i), wantKeys[j])
		}
	}
}

// FuzzLiveViewDelta fuzzes arbitrary single-vertex apply/revert delta
// sequences on random graphs with sparse IDs against two oracles: an
// accounting rebuilt from scratch at the current mask, and the
// reference Filter. After every delta the maintained state — usable
// mask, sums, incident order — must equal the rebuilt one, and on a
// complete graph mask liveness must equal Filter, unlimited and capped. A second accounting
// receives the same deltas but reads ByIncident only at input-chosen
// points: its lazily re-sorted order must equal the eagerly read one.
func FuzzLiveViewDelta(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(200), uint8(1), []byte{0, 3, 5, 0, 3})
	f.Add(int64(2), uint8(4), uint8(9), uint8(255), uint8(2), []byte{1, 1, 2, 2, 7, 7})
	f.Add(int64(3), uint8(2), uint8(6), uint8(128), uint8(1), []byte{5, 4, 3, 2, 1, 0})
	f.Add(int64(4), uint8(5), uint8(10), uint8(230), uint8(3), []byte{9, 9, 8, 0, 8, 9})
	// Ring(4) on K5 (seed 149 draws a 4-cycle): three embeddings share
	// each of the five vertex sets.
	f.Add(int64(149), uint8(2), uint8(1), uint8(255), uint8(0), []byte{0, 11, 1, 2, 13, 0, 1, 12, 2, 4})
	f.Fuzz(func(t *testing.T, seed int64, pn, dn, dp, stride uint8, ops []byte) {
		patternN := 2 + int(pn)%4 // 2..5
		dataN := 4 + int(dn)%8    // 4..11
		step := 1 + int(stride)%3 // vertex IDs 0, step, 2*step, ... (sparse when > 1)
		rng := rand.New(rand.NewSource(seed))
		pattern := fuzzGraph(rng, patternN, 0.9)
		data := graph.New()
		for i := 0; i < dataN; i++ {
			data.AddVertex(i * step)
			for j := 0; j < i; j++ {
				if rng.Float64() < float64(dp)/255 {
					data.MustAddEdge(i*step, j*step, float64(1+rng.Intn(40)), 0)
				}
			}
		}
		u := BuildUniverse(pattern, data, 0)
		free := data.VertexBitset()
		healthy := data.VertexBitset()
		a := NewBandwidthAccounting(data, free, graph.Capacity(data))
		lazy := NewBandwidthAccounting(data, free, graph.Capacity(data))
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			v := (int(op) % dataN) * step
			d := []int{v}
			switch {
			case (int(op)/dataN)%3 == 2 && healthy.Has(v):
				healthy.Unset(v)
				a.MarkUnhealthy(d)
				lazy.MarkUnhealthy(d)
			case (int(op)/dataN)%3 == 2:
				healthy.Set(v)
				a.RestoreHealth(d)
				lazy.RestoreHealth(d)
			case free.Has(v):
				free.Unset(v)
				a.Allocate(d)
				lazy.Allocate(d)
			default:
				free.Set(v)
				a.Release(d)
				lazy.Release(d)
			}
			checkByIncident(t, "after delta", a)
			if (int(op)/dataN)%2 == 0 {
				sameAccounting(t, "lazy leg", lazy, a)
			}
			sameAccounting(t, "rebuilt", a, rebuildOracle(data, free, healthy))
			usable := free.Clone()
			usable.And(healthy)
			for _, max := range []int{0, u.Len() / 2} {
				if !u.Complete() {
					break // a graph that is not complete has no closed form
				}
				got, gotTrunc := maskLive(u, a, max)
				want, wantTrunc := u.Filter(usable, max)
				if gotTrunc != wantTrunc || !slices.Equal(got, want) {
					t.Fatalf("max=%d: mask liveness %v (%v), Filter %v (%v)", max, got, gotTrunc, want, wantTrunc)
				}
			}
		}
		// Reverting every outstanding delta must restore the idle state.
		for _, v := range data.Vertices() {
			if !free.Has(v) {
				a.Release([]int{v})
			}
			if !healthy.Has(v) {
				a.RestoreHealth([]int{v})
			}
		}
		sameAccounting(t, "drained", a, NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data)))
	})
}

// TestLiveViewSyncMatchesEagerReplay is the oracle of the one lazily
// maintained piece of a stream's state, the incident order: random
// interleavings of allocate, release, mark-unhealthy and restore are
// applied to two accountings, one read after every delta and one read
// only at random intervals. Whenever the lazy one is read it must be
// state-identical to the eager one and to an accounting rebuilt from
// scratch on the masks.
func TestLiveViewSyncMatchesEagerReplay(t *testing.T) {
	// Sparse IDs spanning two mask words, irregular integral weights.
	const n, stride = 10, 9
	data := graph.New()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			data.MustAddEdge(i*stride, j*stride, float64(1+(i*j)%7), 0)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		free, healthy := data.VertexBitset(), data.VertexBitset()
		eager := NewBandwidthAccounting(data, free, graph.Capacity(data))
		lazy := NewBandwidthAccounting(data, free, graph.Capacity(data))
		for step := 0; step < 300; step++ {
			v := rng.Intn(n) * stride
			d := []int{v}
			if rng.Intn(3) > 0 {
				if free.Has(v) {
					free.Unset(v)
					eager.Allocate(d)
					lazy.Allocate(d)
				} else {
					free.Set(v)
					eager.Release(d)
					lazy.Release(d)
				}
			} else {
				if healthy.Has(v) {
					healthy.Unset(v)
					eager.MarkUnhealthy(d)
					lazy.MarkUnhealthy(d)
				} else {
					healthy.Set(v)
					eager.RestoreHealth(d)
					lazy.RestoreHealth(d)
				}
			}
			checkByIncident(t, "eager", eager)
			if rng.Intn(4) > 0 {
				continue
			}
			sameAccounting(t, "lazy vs eager", lazy, eager)
			sameAccounting(t, "lazy vs rebuilt", lazy, rebuildOracle(data, free, healthy))
		}
	}
}

// TestLiveViewSyncDoesNotAllocate pins the hot-path property: deltas
// and the lazy re-sort behind ByIncident are arithmetic on memory the
// accounting already owns.
func TestLiveViewSyncDoesNotAllocate(t *testing.T) {
	data := completeData(8)
	a := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))
	busy, down := []int{1, 2, 6}, []int{4}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Allocate(busy)
		a.MarkUnhealthy(down)
		a.ByIncident()
		a.Release(busy)
		a.RestoreHealth(down)
		a.ByIncident()
	}); allocs != 0 {
		t.Fatalf("deltas and ByIncident allocate %v times per round, want 0", allocs)
	}
}

// TestLiveViewHealthMatchesFilterUsable drives a random interleaving of
// allocation and health deltas through one accounting and checks, after
// every event, that mask liveness equals the reference FilterUsable on the
// tracked masks and that the state equals an accounting rebuilt from
// scratch — the delta machinery must be history-independent.
func TestLiveViewHealthMatchesFilterUsable(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(10)
	u := BuildUniverse(pattern, data, 0)
	free := data.VertexBitset()
	healthy := graph.NewBitset(graph.Capacity(data))
	healthy.Fill(graph.Capacity(data))
	a := NewBandwidthAccounting(data, free, graph.Capacity(data))

	check := func(step string) {
		t.Helper()
		for _, max := range []int{0, 1, 5} {
			want, wantTrunc := u.FilterUsable(free, healthy, max)
			got, gotTrunc := maskLive(u, a, max)
			if gotTrunc != wantTrunc || !slices.Equal(got, want) {
				t.Fatalf("%s max=%d: mask liveness %v/%v, FilterUsable %v/%v", step, max, got, gotTrunc, want, wantTrunc)
			}
		}
		sameAccounting(t, step, a, rebuildOracle(data, free, healthy))
	}

	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		v := rng.Intn(10)
		switch rng.Intn(4) {
		case 0: // flip allocation state
			if free.Has(v) {
				a.Allocate([]int{v})
				free.Unset(v)
			} else {
				a.Release([]int{v})
				free.Set(v)
			}
			check("allocation delta")
		case 1: // flip health state
			if healthy.Has(v) {
				a.MarkUnhealthy([]int{v})
				healthy.Unset(v)
			} else {
				a.RestoreHealth([]int{v})
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
			a.MarkUnhealthy(down)
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
			a.RestoreHealth(down)
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
	alloc := func(a *BandwidthAccounting) { a.Allocate([]int{2}) }
	release := func(a *BandwidthAccounting) { a.Release([]int{2}) }
	fail := func(a *BandwidthAccounting) { a.MarkUnhealthy([]int{2}) }
	recov := func(a *BandwidthAccounting) { a.RestoreHealth([]int{2}) }
	orders := [][]func(*BandwidthAccounting){
		{alloc, fail, release, recov},
		{alloc, fail, recov, release},
		{fail, alloc, release, recov},
		{fail, alloc, recov, release},
	}
	data := completeData(6)
	idle := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))
	for _, ops := range orders {
		a := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))
		for i, op := range ops {
			op(a)
			if i < 3 && a.Usable().Has(2) {
				t.Fatal("vertex 2 usable while allocated or unhealthy")
			}
		}
		sameAccounting(t, "round trip", a, idle)
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
	healthy := data.VertexBitset()
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
			for h := 0; h < capacity; h++ {
				if a.Weight(g, h) != fresh.Weight(g, h) {
					t.Fatalf("step %d: Weight(%d,%d) %v, rebuilt %v", step, g, h, a.Weight(g, h), fresh.Weight(g, h))
				}
			}
		}
		checkByIncident(t, "after UpdateEdge", a)
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
	fresh := func() *BandwidthAccounting {
		return NewBandwidthAccounting(completeData(6), completeData(6).VertexBitset(), 6)
	}
	mustPanic("double MarkUnhealthy", func() {
		a := fresh()
		a.MarkUnhealthy([]int{5})
		a.MarkUnhealthy([]int{5})
	})
	mustPanic("RestoreHealth of healthy vertex", func() {
		fresh().RestoreHealth([]int{0})
	})
	mustPanic("MarkUnhealthy of a non-vertex", func() {
		fresh().MarkUnhealthy([]int{6})
	})
	mustPanic("UpdateEdge of untracked edge", func() {
		data := completeData(6)
		data.RemoveEdge(0, 1)
		a := NewBandwidthAccounting(data, data.VertexBitset(), 6)
		a.UpdateEdge(0, 1, 10)
	})
}
