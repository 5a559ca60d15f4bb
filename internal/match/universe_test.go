package match

import (
	"fmt"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/topology"
)

// ringPattern builds a k-cycle pattern 0-1-...-k-1-0.
func ringPattern(k int) *graph.Graph {
	g := graph.New()
	for v := 0; v < k; v++ {
		g.MustAddEdge(v, (v+1)%k, 1, 0)
	}
	return g
}

// completeData builds a complete data graph on n vertices.
func completeData(n int) *graph.Graph {
	g := graph.New()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, 1, 0)
		}
	}
	return g
}

// TestUniverseBuildAllocationsPerClass pins the cost class of a
// universe build: a closed form lists the pattern's permutations on
// K_k and nothing per class, so its allocations are a fixed compile
// cost that does not grow with the machine. AllToAll(5) holds 56
// classes on a DGX-V (behind 6,720 raw embeddings) and 13,991,544 on
// the 72-GPU cluster; both builds must stay within one small budget.
func TestUniverseBuildAllocationsPerClass(t *testing.T) {
	pattern := appgraph.AllToAll(5)
	if raw := CountEmbeddings(pattern, topology.DGXV100().Graph); raw != 56*120 {
		t.Fatalf("AllToAll(5) on dgx-v100: %d raw embeddings, want 6720", raw)
	}
	const budget = 200
	var sizes []float64
	for _, tc := range []struct {
		data    *graph.Graph
		classes int
	}{{topology.DGXV100().Graph, 56}, {topology.ClusterA100(9).Graph, 13991544}} {
		var u *Universe
		allocs := testing.AllocsPerRun(5, func() { u = BuildUniverse(pattern, tc.data, 0) })
		if u.Len() != tc.classes || u.Perms() != 1 {
			t.Fatalf("AllToAll(5) on %d GPUs: %d classes (%d per set), want %d (1)", tc.data.NumVertices(), u.Len(), u.Perms(), tc.classes)
		}
		t.Logf("%d GPUs: %.0f allocations for %d classes", tc.data.NumVertices(), allocs, u.Len())
		if allocs > budget {
			t.Errorf("%d GPUs: %.0f allocations for %d classes, want at most %d per build", tc.data.NumVertices(), allocs, u.Len(), budget)
		}
		sizes = append(sizes, allocs)
	}
	if sizes[0] != sizes[1] {
		t.Errorf("allocations grow with the machine: %v", sizes)
	}
}

func TestUniverseFullMaskEqualsSequential(t *testing.T) {
	pattern := ringPattern(4)
	data := completeData(8)
	u := BuildUniverse(pattern, data, 0)
	if !u.Complete() {
		t.Fatal("uncapped universe must be complete")
	}
	wantMs, wantKeys := FindAllDedupedCappedKeys(pattern, data, 0)
	idx, truncated := u.Filter(data.VertexBitset(), 0)
	if truncated {
		t.Fatal("unlimited filter cannot truncate")
	}
	if len(idx) != len(wantMs) {
		t.Fatalf("full-mask filter kept %d matches, sequential found %d", len(idx), len(wantMs))
	}
	for j, i := range idx {
		if u.Key(pattern, i) != wantKeys[j] {
			t.Fatalf("match %d: key %q, want %q", j, u.Key(pattern, i), wantKeys[j])
		}
	}
}

// TestUniverseFilterEqualsInducedEnumeration is the order-preservation
// contract: filtering the idle-state universe by a free-vertex mask in
// emission order must reproduce the sequential deduplicated
// enumeration on the induced subgraph byte-for-byte — matches, keys,
// order, and cap behavior included. A data graph that is not complete
// has no closed form: its universe is incomplete.
func TestUniverseFilterEqualsInducedEnumeration(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(9)
	perturbed := completeData(9)
	perturbed.RemoveEdge(0, 5)
	if BuildUniverse(pattern, perturbed, 0).Complete() {
		t.Fatal("a universe of an incomplete graph must be incomplete")
	}
	u := BuildUniverse(pattern, data, 0)

	frees := [][]int{
		{0, 1, 2, 3, 4},
		{1, 3, 5, 7, 8},
		{0, 2, 4, 6, 8},
		{4, 5, 6, 7, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, free := range frees {
		avail := data.InducedSubgraph(free)
		for _, max := range []int{0, 3} {
			wantMs, wantKeys := FindAllDedupedCappedKeys(pattern, avail, max)
			idx, _ := u.Filter(avail.VertexBitset(), max)
			if len(idx) != len(wantMs) {
				t.Fatalf("free=%v max=%d: filter kept %d, sequential %d", free, max, len(idx), len(wantMs))
			}
			for j, i := range idx {
				if u.Key(pattern, i) != wantKeys[j] {
					t.Fatalf("free=%v max=%d match %d: key %q, want %q", free, max, j, u.Key(pattern, i), wantKeys[j])
				}
				got := u.Match(i)
				want := wantMs[j]
				for d := range want.Data {
					if got.Data[d] != want.Data[d] || got.Pattern[d] != want.Pattern[d] {
						t.Fatalf("free=%v max=%d match %d: representative differs:\n got %v->%v\nwant %v->%v",
							free, max, j, got.Pattern, got.Data, want.Pattern, want.Data)
					}
				}
			}
		}
	}
}

func TestUniverseIncompleteWhenCapped(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(8)
	full := BuildUniverse(pattern, data, 0)
	capped := BuildUniverse(pattern, data, full.Len()-1)
	if capped.Complete() {
		t.Fatal("capped below the class count must be incomplete")
	}
	if capped.Len() != 0 {
		t.Fatalf("incomplete universe should retain no matches, has %d", capped.Len())
	}
	exact := BuildUniverse(pattern, data, full.Len())
	if !exact.Complete() || exact.Len() != full.Len() {
		t.Fatalf("cap equal to the class count must stay complete: complete=%v len=%d want %d",
			exact.Complete(), exact.Len(), full.Len())
	}
}

// TestUniverseFilterIncompletePanics pins the documented contract that
// callers must check Complete before filtering: an incomplete universe
// holds no matches and silently returning nothing would masquerade as
// "no feasible allocation".
func TestUniverseFilterIncompletePanics(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(8)
	full := BuildUniverse(pattern, data, 0)
	capped := BuildUniverse(pattern, data, full.Len()-1)
	defer func() {
		if recover() == nil {
			t.Fatal("Filter on an incomplete universe must panic")
		}
	}()
	capped.Filter(data.VertexBitset(), 0)
}

// TestUniverseFilterTruncationBoundary pins the cap semantics at the
// boundary: a cap equal to the surviving count returns everything with
// truncated=false; one below returns the exact prefix with
// truncated=true; and the truncation decision must account only for
// *surviving* representatives, not universe positions.
func TestUniverseFilterTruncationBoundary(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(9)
	u := BuildUniverse(pattern, data, 0)
	free := []int{0, 2, 3, 5, 8}
	mask := data.InducedSubgraph(free).VertexBitset()
	all, truncated := u.Filter(mask, 0)
	if truncated {
		t.Fatal("unlimited filter cannot truncate")
	}
	if want := 5 * 4 * 3 / 6; len(all) != want {
		t.Fatalf("mask keeps %d classes, want %d", len(all), want)
	}
	n := len(all)
	for _, tc := range []struct {
		max       int
		wantLen   int
		wantTrunc bool
	}{
		{n + 1, n, false},
		{n, n, false},
		{n - 1, n - 1, true},
		{1, 1, true},
	} {
		idx, trunc := u.Filter(mask, tc.max)
		if trunc != tc.wantTrunc || len(idx) != tc.wantLen {
			t.Fatalf("max=%d: got %d classes truncated=%v, want %d truncated=%v",
				tc.max, len(idx), trunc, tc.wantLen, tc.wantTrunc)
		}
		for j := range idx {
			if idx[j] != all[j] {
				t.Fatalf("max=%d: capped filter is not a prefix at %d", tc.max, j)
			}
		}
	}
}

// TestUniverseParallelBuildIdentical pins the closed form against the
// search that used to build universes: the symmetry-broken embeddings, grouped by vertex set in lexicographic
// order with each set's embeddings in emission order, must be the
// closed form's candidates one for one — on every catalog machine at
// shapes up to 5 GPUs, on the 72-GPU cluster (two bitset words) up to
// 3, and on a flattened two-node fleet.
func TestUniverseParallelBuildIdentical(t *testing.T) {
	type machine struct {
		top      *topology.Topology
		maxShape int
	}
	var machines []machine
	for _, name := range topology.Names() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, machine{top, 5})
	}
	machines = append(machines,
		machine{topology.ClusterA100(9), 3},
		machine{topology.NewFleet(topology.DGXA100(), 2).Flatten(), 5})
	for _, m := range machines {
		for _, pattern := range appgraph.AllShapes(min(m.maxShape, m.top.NumGPUs())) {
			name := fmt.Sprintf("%s/%dv%de", m.top.Name, pattern.NumVertices(), pattern.NumEdges())
			u := BuildUniverse(pattern, m.top.Graph, 0)
			if err := sameAsSearch(u, FindAllDeduped(pattern, m.top.Graph)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// sameAsSearch reports the first difference between a closed form and
// a search's embeddings grouped set-major (see searchUniverse).
func sameAsSearch(u *Universe, ms []Match) error {
	want := groupSetMajor(ms)
	if u.Len() != len(want) {
		return fmt.Errorf("%d classes, the search finds %d", u.Len(), len(want))
	}
	for i, w := range want {
		got := u.Match(i)
		if !slices.Equal(got.Pattern, w.Pattern) || !slices.Equal(got.Data, w.Data) {
			return fmt.Errorf("class %d: %v->%v, the search's %v->%v", i, got.Pattern, got.Data, w.Pattern, w.Data)
		}
	}
	return nil
}

func TestSearchesCounterAdvancesOnEnumerationOnly(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(6)
	before := Searches()
	FindAllDeduped(pattern, data)
	mid := Searches()
	if mid == before {
		t.Fatal("an enumeration must advance the Searches counter")
	}
	u := BuildUniverse(pattern, data, 0)
	after := Searches()
	if after != mid+1 {
		t.Fatalf("building a universe lists its permutations in one search on K_k; the counter advanced by %d", after-mid)
	}
	u.Filter(data.VertexBitset(), 0)
	if Searches() != after {
		t.Fatal("mask filtering must not enter the search")
	}
}

// TestFiltersCounterAdvancesOnFullScansOnly pins the Filters telemetry
// the decision-path tests build on: the reference Filter is a
// full-universe scan and counts; maintaining a stream's accounting does
// not.
func TestFiltersCounterAdvancesOnFullScansOnly(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(6)
	u := BuildUniverse(pattern, data, 0)
	before := Filters()
	u.Filter(data.VertexBitset(), 0)
	mid := Filters()
	if mid == before {
		t.Fatal("a mask filter must advance the Filters counter")
	}
	a := NewBandwidthAccounting(data, data.VertexBitset(), graph.Capacity(data))
	a.Allocate([]int{1})
	a.ByIncident()
	if Filters() != mid {
		t.Fatal("stream maintenance must not scan the universe")
	}
}

// TestUniverseGroupsEmbeddingsBySet pins the set-major numbering the
// score tables rely on: candidates s·P … s·P+P−1 occupy set s, distinct
// sets have distinct vertices, and sets ascend lexicographically — on
// Ring(4) over K6 (three embeddings per set) and on a complete graph
// with sparse IDs spanning two bitset words.
func TestUniverseGroupsEmbeddingsBySet(t *testing.T) {
	sparse := graph.New()
	ids := []int{3, 40, 63, 64, 70, 130}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			sparse.MustAddEdge(ids[i], ids[j], 1, 0)
		}
	}
	for _, tc := range []struct {
		name    string
		u       *Universe
		perSet  int
		setsNum int
	}{
		{"ring4/K6", BuildUniverse(ringPattern(4), completeData(6), 0), 3, 15},
		{"ring3/sparse", BuildUniverse(ringPattern(3), sparse, 0), 1, 20},
	} {
		u := tc.u
		if u.Sets() != tc.setsNum || u.Perms() != tc.perSet || u.Len() != tc.setsNum*tc.perSet {
			t.Fatalf("%s: %d embeddings on %d sets, want %d on %d", tc.name, u.Len(), u.Sets(), tc.setsNum*tc.perSet, tc.setsNum)
		}
		var prev []int
		for s := 0; s < u.Sets(); s++ {
			set := u.Match(s * u.Perms()).DataVertices()
			if prev != nil && slices.Compare(prev, set) >= 0 {
				t.Fatalf("%s: set %d %v does not follow set %d %v", tc.name, s, set, s-1, prev)
			}
			for p := 0; p < u.Perms(); p++ {
				if i := s*u.Perms() + p; !slices.Equal(u.Match(i).DataVertices(), set) || u.SetOf(i) != s {
					t.Fatalf("%s: candidate %d occupies %v, not set %d's %v", tc.name, i, u.Match(i).DataVertices(), s, set)
				}
			}
			prev = set
		}
	}
}
