package score

import (
	"fmt"
	"strings"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/ncclsim"
	"mapa/internal/topology"
)

// forEachSet calls fn with every ascending k-subset of the topology's
// GPUs, for k = 2..maxK. fn must not retain the slice.
func forEachSet(top *topology.Topology, maxK int, fn func([]int)) {
	verts := top.GPUs()
	for k := 2; k <= min(maxK, len(verts)); k++ {
		pos := make([]int, k)
		for i := range pos {
			pos[i] = i
		}
		set := make([]int, k)
		for {
			for i, p := range pos {
				set[i] = verts[p]
			}
			fn(set)
			if !match.NextSubset(pos, len(verts)) {
				break
			}
		}
	}
}

// signatures is the number of link signatures the topology's mix memo
// holds.
func signatures(top *topology.Topology) int {
	pt := mixesOf(top).pairsOf()
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.mixes)
}

// directMix is the reference the memo must reproduce bit for bit.
func directMix(top *topology.Topology, gpus []int) effbw.LinkCounts {
	return effbw.MixFromDecomposition(top, ncclsim.Decompose(top, gpus))
}

// TestMixMemoSignatureCounts pins the memo's cost class: a warm of
// every GPU set decomposes once per distinct link signature, not once
// per set. The 62,196 sets of up to 3 of cluster-a100's GPUs carry 6
// signatures (a pair inside or across nodes; a triple inside one node,
// across three, or with the in-node pair first or last), and dgx-a100's
// all-NVSwitch sets carry one per size.
func TestMixMemoSignatureCounts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxK, sets int
		want       int
	}{
		{"cluster-a100", 3, 62196, 6},
		{"dgx-a100", 5, 210, 4},
		{"torus-2d", 5, 6868, 710},
		{"cubemesh-16", 5, 6868, 1233},
	} {
		top, err := topology.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		tm, sets := mixesOf(top), 0
		forEachSet(top, tc.maxK, func(gpus []int) {
			tm.mix(gpus)
			sets++
		})
		if sets != tc.sets {
			t.Fatalf("%s: walked %d sets, want %d", tc.name, sets, tc.sets)
		}
		if got := signatures(top); got != tc.want {
			t.Errorf("%s, sets of up to %d GPUs: memo holds %d signatures, want %d", tc.name, tc.maxK, got, tc.want)
		}
	}
}

// distinctWeights is a complete machine of n GPUs whose every link has
// its own weight, so every GPU set is its own link signature.
func distinctWeights(n int) *topology.Topology {
	g := graph.New()
	w := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w++
			g.MustAddEdge(u, v, float64(w), int(topology.LinkNVLink2))
		}
	}
	return &topology.Topology{Name: "distinct-weights", Graph: g, Physical: g}
}

// forEachSetOf4 calls fn with every ascending 4-subset of the
// topology's GPUs. fn must not retain the slice.
func forEachSetOf4(top *topology.Topology, fn func([]int)) {
	forEachSet(top, 4, func(gpus []int) {
		if len(gpus) == 4 {
			fn(gpus)
		}
	})
}

// churnGPUs is the size of the distinct-weights machine the bound
// tests churn: C(24,4) = 10,626 sets of 4, each a distinct signature,
// well over twice maxMixSignatures.
const churnGPUs = 24

// TestMixShardBoundHoldsMemoryFlat churns far more distinct link
// signatures through one topology instance's memo — its shard of the
// package's mix memo — than its bound admits, and checks the memo
// never exceeds the bound and sits exactly at it in steady state: memory
// stays flat under sustained churn (long-running daemons, adversarial
// request mixes) instead of growing without bound.
func TestMixShardBoundHoldsMemoryFlat(t *testing.T) {
	top := distinctWeights(churnGPUs)
	tm := mixesOf(top)
	sets := 0
	forEachSetOf4(top, func(gpus []int) {
		tm.mix(gpus)
		if sets++; sets%512 == 0 {
			if got := signatures(top); got > maxMixSignatures {
				t.Fatalf("after %d sets: memo holds %d signatures, bound %d", sets, got, maxMixSignatures)
			}
		}
	})
	if sets < 2*maxMixSignatures {
		t.Fatalf("churned %d sets, want at least twice the bound %d", sets, maxMixSignatures)
	}
	if got := signatures(top); got != maxMixSignatures {
		t.Fatalf("steady-state memo holds %d signatures, want exactly the bound %d", got, maxMixSignatures)
	}
}

// TestMixShardEvictionRecomputes checks an evicted mix is merely
// recomputed, not lost. After a churn of distinct signatures through a
// full memo, all but maxMixSignatures of them have been evicted;
// re-requesting every set, evicted or resident, must return the direct
// decomposition, and the first set churned must come back as it was.
func TestMixShardEvictionRecomputes(t *testing.T) {
	top := distinctWeights(churnGPUs)
	tm := mixesOf(top)
	first := []int{0, 1, 2, 3}
	want := tm.mix(first)
	sets := 0
	forEachSetOf4(top, func(gpus []int) {
		tm.mix(gpus)
		sets++
	})
	if got := signatures(top); got != maxMixSignatures || sets <= maxMixSignatures {
		t.Fatalf("churned %d sets into a memo of %d signatures, want more than the bound %d in a full memo", sets, got, maxMixSignatures)
	}
	forEachSetOf4(top, func(gpus []int) {
		if got, direct := tm.mix(gpus), directMix(top, gpus); got != direct {
			t.Fatalf("mix(%v) after churn = %+v, direct decomposition %+v", gpus, got, direct)
		}
	})
	if got := tm.mix(first); got != want {
		t.Fatalf("recomputed mix %+v differs from original %+v", got, want)
	}
}

// TestMixMemoRejectsAbsentGPU checks a GPU ID the topology does not
// hold — beyond its largest ID, negative, or a gap in a sparse
// numbering — panics with the ring decomposition's own message instead
// of indexing the pair table out of range or reading a "no link"
// signature that an earlier set already memoized, and leaves the memo
// untouched. A GPU named twice bypasses the memo too and gets the
// direct decomposition.
func TestMixMemoRejectsAbsentGPU(t *testing.T) {
	g := graph.New()
	for _, v := range []int{0, 2, 3} {
		g.AddVertex(v)
	}
	g.MustAddEdge(0, 2, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
	g.MustAddEdge(0, 3, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
	g.MustAddEdge(2, 3, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
	physical := graph.New()
	for _, v := range []int{0, 2, 3} {
		physical.AddVertex(v)
	}
	top := &topology.Topology{Name: "sparse", Graph: g, Physical: physical}
	tm := mixesOf(top)
	// Every pair of this machine signs as "no physical link", as would a
	// pair naming an absent GPU if it were looked up.
	tm.mix([]int{2, 3})
	tm.mix([]int{0, 2, 3})
	held := signatures(top)
	for _, gpus := range [][]int{{1, 2}, {2, 4}, {-1, 3}, {0, 2, 1000}, {3, 1}} {
		var bad int
		for _, v := range gpus {
			if !g.HasVertex(v) {
				bad = v
			}
		}
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if want := fmt.Sprintf("GPU %d not in topology", bad); !strings.Contains(msg, want) {
					t.Errorf("mix(%v) panicked with %v, want a message containing %q", gpus, r, want)
				}
			}()
			tm.mix(gpus)
		}()
	}
	if got := signatures(top); got != held {
		t.Fatalf("absent GPUs changed the memo: %d signatures, was %d", got, held)
	}

	dgx := topology.DGXV100()
	for _, gpus := range [][]int{{0, 0, 1}, {3, 1, 3, 2}, {5, 5}} {
		if got, want := mixesOf(dgx).mix(gpus), directMix(dgx, gpus); got != want {
			t.Errorf("mix(%v) = %+v, direct decomposition %+v", gpus, got, want)
		}
	}
	if got := signatures(dgx); got != 0 {
		t.Fatalf("sets naming a GPU twice entered the memo: %d signatures", got)
	}
}
