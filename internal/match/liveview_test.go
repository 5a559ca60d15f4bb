package match

import (
	"math/rand"
	"testing"

	"mapa/internal/graph"
)

// liveViewEqualsFilter asserts the core LiveView contract: the live
// candidate list equals Universe.Filter on the equivalent mask —
// indices, order, and truncation behavior — for unlimited and capped
// serves.
func liveViewEqualsFilter(t *testing.T, lv *LiveView, u *Universe, mask graph.Bitset, step string) {
	t.Helper()
	for _, max := range []int{0, 1, 7} {
		want, wantTrunc := u.Filter(mask, max)
		got, gotTrunc := lv.Candidates(max)
		if gotTrunc != wantTrunc {
			t.Fatalf("%s max=%d: truncated=%v, Filter %v", step, max, gotTrunc, wantTrunc)
		}
		if len(got) != len(want) {
			t.Fatalf("%s max=%d: live view kept %d, Filter %d", step, max, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s max=%d index %d: live view %d, Filter %d", step, max, j, got[j], want[j])
			}
		}
	}
}

// TestLiveViewMatchesFilterUnderDeltas drives multi-GPU allocate and
// release deltas through a live view and checks equality with Filter
// after every operation, including full drain back to idle.
func TestLiveViewMatchesFilterUnderDeltas(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(10)
	data.RemoveEdge(0, 4)
	data.RemoveEdge(2, 9)
	u := BuildUniverse(pattern, data, 0, 1)
	free := data.VertexBitset()
	lv := NewLiveView(u, free)
	liveViewEqualsFilter(t, lv, u, free, "idle")
	if lv.Len() != u.Len() {
		t.Fatalf("idle view has %d live embeddings, universe %d", lv.Len(), u.Len())
	}

	deltas := [][]int{{0, 3}, {7}, {1, 8, 9}}
	for _, d := range deltas {
		lv.Allocate(d)
		for _, g := range d {
			free.Unset(g)
		}
		liveViewEqualsFilter(t, lv, u, free, "allocate")
	}
	// Release out of allocation order.
	for _, d := range [][]int{{7}, {1, 8, 9}, {0, 3}} {
		lv.Release(d)
		for _, g := range d {
			free.Set(g)
		}
		liveViewEqualsFilter(t, lv, u, free, "release")
	}
	if lv.Len() != u.Len() {
		t.Fatalf("drained view has %d live embeddings, universe %d", lv.Len(), u.Len())
	}
}

// TestLiveViewInitialMask checks mid-stream construction: a view built
// over a partially allocated machine must equal Filter immediately —
// the "shape first warmed mid-trace" case.
func TestLiveViewInitialMask(t *testing.T) {
	pattern := ringPattern(4)
	data := completeData(9)
	u := BuildUniverse(pattern, data, 0, 1)
	free := data.VertexBitset()
	for _, g := range []int{2, 5, 6} {
		free.Unset(g)
	}
	lv := NewLiveView(u, free)
	liveViewEqualsFilter(t, lv, u, free, "mid-stream build")
}

// TestLiveViewIncompleteUniversePanics pins the soundness rule: an
// incomplete universe cannot back a live view, exactly as it cannot
// serve Filter.
func TestLiveViewIncompleteUniversePanics(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(8)
	full := BuildUniverse(pattern, data, 0, 1)
	capped := BuildUniverse(pattern, data, full.Len()-1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewLiveView over an incomplete universe must panic")
		}
	}()
	NewLiveView(capped, data.VertexBitset())
}

// TestLiveViewInconsistentDeltaPanics pins the stream-divergence
// guard: double-allocating or double-releasing a vertex means the
// publisher's availability stream drifted and must fail loudly.
func TestLiveViewInconsistentDeltaPanics(t *testing.T) {
	u := BuildUniverse(ringPattern(3), completeData(6), 0, 1)
	lv := NewLiveView(u, u.Set(0).Clone()) // only match 0's vertices free
	t.Run("double-allocate", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("allocating an unavailable vertex must panic")
			}
		}()
		lv2 := NewLiveView(u, completeData(6).VertexBitset())
		lv2.Allocate([]int{1})
		lv2.Allocate([]int{1})
	})
	t.Run("double-release", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("releasing an available vertex must panic")
			}
		}()
		lv.Release([]int{u.Set(0).Members()[0]})
	})
}

// TestLiveViewSparseVertexIDs is the regression test for sparse and
// non-contiguous data-vertex IDs (graph.Capacity): posting lists,
// blocked counters, and candidate lists must be keyed by ID, not by
// dense position, and IDs beyond the universe's capacity must be
// ignored by deltas.
func TestLiveViewSparseVertexIDs(t *testing.T) {
	pattern := ringPattern(3)
	data := graph.New()
	// A sparse clique spanning two bitset words: IDs 3, 40, 63, 64, 70, 130.
	ids := []int{3, 40, 63, 64, 70, 130}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			data.MustAddEdge(ids[i], ids[j], 1, 0)
		}
	}
	if got, want := graph.Capacity(data), 131; got != want {
		t.Fatalf("graph.Capacity = %d, want %d", got, want)
	}
	u := BuildUniverse(pattern, data, 0, 1)
	if u.Capacity() != 131 {
		t.Fatalf("universe capacity = %d, want 131", u.Capacity())
	}
	if want := 6 * 5 * 4 / 6; u.Len() != want {
		t.Fatalf("universe holds %d classes, want %d", u.Len(), want)
	}
	free := data.VertexBitset()
	lv := NewLiveView(u, free)
	liveViewEqualsFilter(t, lv, u, free, "sparse idle")
	for _, g := range []int{63, 130} {
		lv.Allocate([]int{g})
		free.Unset(g)
		liveViewEqualsFilter(t, lv, u, free, "sparse allocate")
	}
	// Out-of-capacity IDs cannot be in any embedding and are ignored.
	lv.Allocate([]int{500})
	liveViewEqualsFilter(t, lv, u, free, "out-of-capacity delta")
	lv.Release([]int{130})
	free.Set(130)
	liveViewEqualsFilter(t, lv, u, free, "sparse release")
	// Cross-check against the enumeration on the induced subgraph.
	avail := data.InducedSubgraph(free.Members())
	_, wantKeys := FindAllDedupedCappedKeys(pattern, avail, 0)
	idx, _ := lv.Candidates(0)
	if len(idx) != len(wantKeys) {
		t.Fatalf("live view kept %d classes, sequential %d", len(idx), len(wantKeys))
	}
	for j, i := range idx {
		if u.Key(i) != wantKeys[j] {
			t.Fatalf("class %d: key %q, want %q", j, u.Key(i), wantKeys[j])
		}
	}
}

// FuzzLiveViewDelta fuzzes arbitrary single-vertex apply/revert delta
// sequences against two oracles: a LiveView recomputed from scratch at
// the current mask, and Universe.Filter. After every delta the
// incrementally maintained candidate list must equal both, unlimited
// and capped. A third view sees none of the deltas and catches up by
// Sync at input-chosen points; whenever it does it must equal the
// delta-maintained view, having walked exactly the set postings of the
// vertices whose usability changed since its previous Sync.
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
					data.MustAddEdge(i*step, j*step, 1, 0)
				}
			}
		}
		u := BuildUniverse(pattern, data, 0, 1)
		perVertex := setPostings(u)
		free := data.VertexBitset()
		lv := NewLiveView(u, free)
		synced := NewLiveView(u, free)
		freeAtSync := free.Clone()
		unhealthy := graph.NewBitset(u.Capacity())
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, op := range ops {
			v := (int(op) % dataN) * step
			if free.Has(v) {
				free.Unset(v)
				lv.Allocate([]int{v})
			} else {
				free.Set(v)
				lv.Release([]int{v})
			}
			if (int(op)/dataN)%2 == 0 {
				want := changedPostings(perVertex, freeAtSync, free)
				if walked := synced.Sync(free, unhealthy); walked != want {
					t.Fatalf("Sync walked %d postings, the changed vertices hold %d", walked, want)
				}
				freeAtSync = free.Clone()
				sameViewState(t, "sync leg", synced, lv)
			}
			oracle := NewLiveView(u, free)
			for _, max := range []int{0, u.Len() / 2} {
				got, gotTrunc := lv.Candidates(max)
				want, wantTrunc := oracle.Candidates(max)
				fwant, fTrunc := u.Filter(free, max)
				if gotTrunc != wantTrunc || gotTrunc != fTrunc {
					t.Fatalf("truncated: delta=%v oracle=%v filter=%v (max=%d)", gotTrunc, wantTrunc, fTrunc, max)
				}
				if len(got) != len(want) || len(got) != len(fwant) {
					t.Fatalf("lengths: delta=%d oracle=%d filter=%d (max=%d)", len(got), len(want), len(fwant), max)
				}
				for j := range got {
					if got[j] != want[j] || got[j] != fwant[j] {
						t.Fatalf("index %d: delta=%d oracle=%d filter=%d (max=%d)", j, got[j], want[j], fwant[j], max)
					}
				}
			}
		}
		// Reverting every outstanding delta must restore the idle view.
		for _, v := range data.Vertices() {
			if !free.Has(v) {
				lv.Release([]int{v})
				free.Set(v)
			}
		}
		if lv.Len() != u.Len() {
			t.Fatalf("drained view has %d live embeddings, universe %d", lv.Len(), u.Len())
		}
	})
}
