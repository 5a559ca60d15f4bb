package match

import (
	"math/rand"
	"testing"

	"mapa/internal/graph"
)

// ringPatternBW builds a k-ring pattern for the bandwidth tests.
func ringPatternBW(k int) *graph.Graph {
	g := graph.New()
	for v := 0; v < k; v++ {
		g.MustAddEdge(v, (v+1)%k, 1, 0)
	}
	return g
}

// checkBWOracle asserts a stream's delta-maintained accounting (as
// matchcache.Views keeps one per stream) against a from-scratch
// recomputation on the induced free subgraph:
// FreeWeight must equal the induced subgraph's total weight, every
// vertex's FreeIncidentWeight its summed edges into the free set, and
// PreservedBW the exact remainder weight after removing a candidate.
// All weights are integral, so every comparison is exact equality.
func checkBWOracle(t *testing.T, u *Universe, bw *BandwidthAccounting, data *graph.Graph, free []int, step string) {
	t.Helper()
	avail := data.InducedSubgraph(free)
	if got, want := bw.FreeWeight(), avail.TotalWeight(); got != want {
		t.Fatalf("%s: FreeWeight = %g, induced subgraph weighs %g", step, got, want)
	}
	inFree := make(map[int]bool, len(free))
	for _, g := range free {
		inFree[g] = true
	}
	for _, v := range data.Vertices() {
		var want float64
		for _, e := range data.IncidentEdges(v) {
			if inFree[e.Other(v)] {
				want += e.Weight
			}
		}
		if got := bw.FreeIncidentWeight(v); got != want {
			t.Fatalf("%s: FreeIncidentWeight(%d) = %g, want %g", step, v, got, want)
		}
	}
	// Every live candidate's Eq. 3 must equal the remainder weight.
	live, _ := maskLive(u, bw, 0)
	for _, i := range live {
		gpus := u.Match(i).DataVertices()
		var internal float64
		for a, g := range gpus {
			for _, h := range gpus[a+1:] {
				internal += data.Weight(g, h)
			}
		}
		if got, want := bw.PreservedBW(internal, gpus), avail.WeightWithout(gpus); got != want {
			t.Fatalf("%s: PreservedBW(%v) = %g, want %g", step, gpus, got, want)
		}
	}
}

// TestWeightedLiveViewChurnOracle churns a stream's bandwidth
// accounting through seeded allocate/release interleavings and
// cross-checks it against the from-scratch oracle after every step,
// finishing with a drain that must restore the idle sums bit for bit.
func TestWeightedLiveViewChurnOracle(t *testing.T) {
	data := graph.New()
	// An irregular weighted graph: ring + chords with mixed integral
	// weights.
	for v := 0; v < 10; v++ {
		data.MustAddEdge(v, (v+1)%10, float64(12+(v%3)*13), 0)
	}
	data.MustAddEdge(0, 5, 50, 0)
	data.MustAddEdge(2, 7, 25, 0)
	data.MustAddEdge(3, 8, 20, 0)
	pattern := ringPatternBW(3)
	u := BuildUniverse(pattern, data, 0)
	bw := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))

	idleTotal := bw.FreeWeight()
	if idleTotal != data.TotalWeight() {
		t.Fatalf("idle FreeWeight = %g, want %g", idleTotal, data.TotalWeight())
	}
	rng := rand.New(rand.NewSource(17))
	free := append([]int(nil), data.Vertices()...)
	var deltas [][]int
	for step := 0; step < 300; step++ {
		if len(free) >= 3 && (len(deltas) == 0 || rng.Intn(2) == 0) {
			k := 1 + rng.Intn(3)
			d := make([]int, 0, k)
			for len(d) < k && len(free) > 0 {
				i := rng.Intn(len(free))
				d = append(d, free[i])
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
			}
			deltas = append(deltas, d)
			bw.Allocate(d)
		} else if len(deltas) > 0 {
			i := rng.Intn(len(deltas))
			d := deltas[i]
			deltas[i] = deltas[len(deltas)-1]
			deltas = deltas[:len(deltas)-1]
			bw.Release(d)
			free = append(free, d...)
		}
		checkBWOracle(t, u, bw, data, free, "churn step")
	}
	for _, d := range deltas {
		bw.Release(d)
		free = append(free, d...)
	}
	if bw.FreeWeight() != idleTotal {
		t.Fatalf("drained FreeWeight = %g, want idle %g (delta accounting must invert exactly)",
			bw.FreeWeight(), idleTotal)
	}
	checkBWOracle(t, u, bw, data, free, "after drain")
}

// FuzzLiveViewBandwidth fuzzes the freeIncidentWeight delta accounting
// against the recompute-from-scratch oracle: a random sparse-ID
// weighted graph, a random allocate/revert/release stream, and after
// every operation the maintained totals must equal the induced
// subgraph's, exactly (integral weights).
func FuzzLiveViewBandwidth(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{1, 2, 3, 4, 5, 6})
	f.Add(int64(7), uint8(4), []byte{0, 0, 1, 9, 200, 3, 17})
	f.Add(int64(42), uint8(2), []byte{255, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		// Sparse vertex IDs with random integral weights.
		data := graph.New()
		ids := rng.Perm(40)[:12]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if rng.Intn(3) == 0 {
					data.MustAddEdge(ids[i], ids[j], float64(1+rng.Intn(50)), 0)
				}
			}
		}
		if data.NumVertices() < 4 {
			t.Skip("too sparse")
		}
		k := int(kRaw%3) + 2
		u := BuildUniverse(ringPatternBW(k), data, 0)
		bw := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))

		verts := data.Vertices()
		freeSet := make(map[int]bool, len(verts))
		for _, v := range verts {
			freeSet[v] = true
		}
		freeList := func() []int {
			var out []int
			for _, v := range verts {
				if freeSet[v] {
					out = append(out, v)
				}
			}
			return out
		}
		for _, op := range ops {
			v := []int{verts[int(op)%len(verts)]}
			if freeSet[v[0]] {
				bw.Allocate(v)
			} else {
				bw.Release(v)
			}
			freeSet[v[0]] = !freeSet[v[0]]
			checkBWOracle(t, u, bw, data, freeList(), "after op")
		}
	})
}
