package score_test

import (
	"slices"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/match"
	"mapa/internal/mig"
	"mapa/internal/ncclsim"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// walk calls fn with every ascending set of 2..maxK of the topology's
// GPUs, in a fresh slice each, and returns how many sets it walked.
func walk(top *topology.Topology, maxK int, fn func([]int)) int {
	verts, sets := top.GPUs(), 0
	for k := 2; k <= min(maxK, len(verts)); k++ {
		pos := make([]int, k)
		for i := range pos {
			pos[i] = i
		}
		for {
			set := make([]int, k)
			for i, p := range pos {
				set[i] = verts[p]
			}
			fn(set)
			sets++
			if !match.NextSubset(pos, len(verts)) {
				break
			}
		}
	}
	return sets
}

// checkMixParity compares the memoized mix of every GPU set of 2..maxK
// of the topology's GPUs — ascending, reversed, and rotated by one —
// with the direct ring decomposition of that order, and returns how
// many sets it walked. It fails the test at the first difference.
func checkMixParity(t *testing.T, top *topology.Topology, maxK int) int {
	t.Helper()
	s := score.NewScorer(nil)
	return walk(top, maxK, func(set []int) {
		rev := slices.Clone(set)
		slices.Reverse(rev)
		rot := append(slices.Clone(set[1:]), set[0])
		for _, order := range [][]int{set, rev, rot} {
			want := effbw.MixFromDecomposition(top, ncclsim.Decompose(top, order))
			if got := s.AllocationMix(top, order); got != want {
				t.Fatalf("%s %v: memoized mix %+v, direct decomposition %+v", top.Name, order, got, want)
			}
		}
	})
}

// TestMixMemoMatchesDecomposition pins the signature-keyed memo against
// the direct decomposition on every GPU set of up to 5 GPUs of each
// catalog machine, of up to 3 of the 72-GPU cluster, and of up to 5 of
// a MIG-composed machine with a sparse instance numbering, each on a
// cold topology instance so the sets of one signature share an entry.
func TestMixMemoMatchesDecomposition(t *testing.T) {
	for _, name := range topology.Names() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checkMixParity(t, top, 5)
	}
	if sets := checkMixParity(t, topology.ClusterA100(9), 3); sets != 62196 {
		t.Fatalf("cluster-a100: %d sets, want 62196", sets)
	}
	vt, err := mig.Compose(topology.DGXV100(), map[int][]int{
		0: {0, 20, 21}, 1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5, 30}, 6: {6}, 7: {7, 40, 41, 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMixParity(t, vt.Topology, 5)
}

// TestMixMemoAfterInPlaceDegrade edits a warmed topology's link weight
// in place the way DegradeLink does — both graphs, label kept — and
// invalidates its mixes: every set must then price the new weight, and
// some set's mix must actually move, or the check proves nothing.
func TestMixMemoAfterInPlaceDegrade(t *testing.T) {
	top := topology.DGXV100()
	s := score.NewScorer(nil)
	checkMixParity(t, top, 5)
	var before []effbw.LinkCounts
	walk(top, 5, func(gpus []int) { before = append(before, s.AllocationMix(top, gpus)) })

	const u, v = 0, 3
	e, ok := top.Physical.EdgeBetween(u, v)
	if !ok {
		t.Fatalf("dgx-v100 has no physical link (%d,%d)", u, v)
	}
	top.Graph.MustAddEdge(u, v, 0, e.Label)
	top.Physical.MustAddEdge(u, v, 0, e.Label)
	score.InvalidateMixes(top)

	checkMixParity(t, top, 5)
	moved, i := 0, 0
	walk(top, 5, func(gpus []int) {
		if s.AllocationMix(top, gpus) != before[i] {
			moved++
		}
		i++
	})
	if moved == 0 {
		t.Fatal("degrading link (0,3) to 0 GB/s moved no set's mix")
	}
}
