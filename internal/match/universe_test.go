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
// universe build: the symmetry-broken search visits one embedding per
// class and streams it into the arenas, so allocations follow the
// classes — one key string each plus arena growth and a fixed compile
// cost. AllToAll(5) on a DGX-V has 56 classes behind 6,720 raw
// embeddings (|Aut| = 5! each). The parallel build emits each class
// under exactly one root, so it shares the sequential bound (measured:
// 239 and 284 allocations).
func TestUniverseBuildAllocationsPerClass(t *testing.T) {
	pattern, data := appgraph.AllToAll(5), topology.DGXV100().Graph
	raw := CountEmbeddings(pattern, data)
	for _, tc := range []struct{ workers, perClass int }{{1, 6}, {2, 6}} {
		var u *Universe
		allocs := testing.AllocsPerRun(5, func() { u = BuildUniverse(pattern, data, 0, tc.workers) })
		if u.Len() != 56 || raw != 56*120 {
			t.Fatalf("AllToAll(5) on dgx-v100: %d classes of %d raw embeddings, want 56 of 6720", u.Len(), raw)
		}
		t.Logf("workers=%d: %.0f allocations for %d classes", tc.workers, allocs, u.Len())
		if allocs > float64(tc.perClass*u.Len()) {
			t.Errorf("workers=%d: %.0f allocations for %d classes (%d raw embeddings), want at most %d per class",
				tc.workers, allocs, u.Len(), raw, tc.perClass)
		}
	}
}

func TestUniverseFullMaskEqualsSequential(t *testing.T) {
	pattern := ringPattern(4)
	data := completeData(8)
	u := BuildUniverse(pattern, data, 0, 1)
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
		if u.Key(i) != wantKeys[j] {
			t.Fatalf("match %d: key %q, want %q", j, u.Key(i), wantKeys[j])
		}
	}
}

// TestUniverseFilterEqualsInducedEnumeration is the order-preservation
// contract: filtering the idle-state universe by a free-vertex mask
// must reproduce the sequential deduplicated enumeration on the
// induced subgraph byte-for-byte — matches, keys, order, and cap
// behavior included.
func TestUniverseFilterEqualsInducedEnumeration(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(9)
	// Perturb the data graph so it is not vertex-transitive.
	data.RemoveEdge(0, 5)
	data.RemoveEdge(2, 7)
	data.RemoveEdge(3, 4)
	u := BuildUniverse(pattern, data, 0, 1)

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
				if u.Key(i) != wantKeys[j] {
					t.Fatalf("free=%v max=%d match %d: key %q, want %q", free, max, j, u.Key(i), wantKeys[j])
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
	full := BuildUniverse(pattern, data, 0, 1)
	capped := BuildUniverse(pattern, data, full.Len()-1, 1)
	if capped.Complete() {
		t.Fatal("capped below the class count must be incomplete")
	}
	if capped.Len() != 0 {
		t.Fatalf("incomplete universe should retain no matches, has %d", capped.Len())
	}
	exact := BuildUniverse(pattern, data, full.Len(), 1)
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
	full := BuildUniverse(pattern, data, 0, 1)
	capped := BuildUniverse(pattern, data, full.Len()-1, 1)
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
	u := BuildUniverse(pattern, data, 0, 1)
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

// TestUniverseParallelBuildIdentical pins universe parity across worker
// counts: BuildUniverse at 2, 3 and 4 workers must reproduce the
// sequential build's keys, order, embeddings and set index exactly, on
// every catalog machine at shapes up to 5 GPUs, on the 72-GPU cluster
// (two bitset words) up to 3, and on a flattened two-node fleet.
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
			seq := BuildUniverse(pattern, m.top.Graph, 0, 1)
			for _, workers := range []int{2, 3, 4} {
				if err := sameUniverse(BuildUniverse(pattern, m.top.Graph, 0, workers), seq); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
			}
		}
	}
}

// sameUniverse reports the first difference between two universes'
// classes (key, embedding, vertex set) or set index.
func sameUniverse(got, want *Universe) error {
	if got.Len() != want.Len() || got.Sets() != want.Sets() || !slices.Equal(got.Order(), want.Order()) {
		return fmt.Errorf("%d classes on %d sets, want %d on %d", got.Len(), got.Sets(), want.Len(), want.Sets())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Key(i) != want.Key(i) {
			return fmt.Errorf("class %d: key %q, want %q", i, got.Key(i), want.Key(i))
		}
		if !slices.Equal(got.Match(i).Data, want.Match(i).Data) || !got.Set(i).Equal(want.Set(i)) {
			return fmt.Errorf("class %d: embedding differs", i)
		}
		if got.SetOf(i) != want.SetOf(i) {
			return fmt.Errorf("class %d: set %d, want %d", i, got.SetOf(i), want.SetOf(i))
		}
	}
	for s := 0; s < want.Sets(); s++ {
		if got.SetFirst(s) != want.SetFirst(s) || got.SetLen(s) != want.SetLen(s) {
			return fmt.Errorf("set %d: first %d len %d, want %d len %d", s, got.SetFirst(s), got.SetLen(s), want.SetFirst(s), want.SetLen(s))
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
	u := BuildUniverse(pattern, data, 0, 1)
	after := Searches()
	if after == mid {
		t.Fatal("building a universe enumerates and must advance the counter")
	}
	u.Filter(data.VertexBitset(), 0)
	if Searches() != after {
		t.Fatal("mask filtering must not enter the search")
	}
}

// TestFiltersCounterAdvancesOnFullScansOnly pins the Filters telemetry
// the decision-path tests build on: Universe.Filter is a full-universe
// scan and counts; maintaining a stream's accounting does not.
func TestFiltersCounterAdvancesOnFullScansOnly(t *testing.T) {
	pattern := ringPattern(3)
	data := completeData(6)
	u := BuildUniverse(pattern, data, 0, 1)
	before := Filters()
	u.Filter(data.VertexBitset(), 0)
	mid := Filters()
	if mid == before {
		t.Fatal("a mask filter must advance the Filters counter")
	}
	a := NewBandwidthAccounting(data, data.VertexBitset(), u.Capacity())
	a.Allocate([]int{1})
	a.ByIncident()
	if Filters() != mid {
		t.Fatal("stream maintenance must not scan the universe")
	}
}

// TestUniverseGroupsEmbeddingsBySet pins the set index behind the live
// views and score tables: every embedding maps to the set with its
// exact vertex bitset, distinct sets have distinct bitsets, sets are
// numbered in first-occurrence order, and the per-set counts add up —
// on Ring(4) over K6 (three embeddings per set) and on a sparse
// two-word graph.
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
		{"ring4/K6", BuildUniverse(ringPattern(4), completeData(6), 0, 1), 3, 15},
		{"ring3/sparse", BuildUniverse(ringPattern(3), sparse, 0, 2), 1, 20},
	} {
		u := tc.u
		if u.Sets() != tc.setsNum || u.Len() != tc.setsNum*tc.perSet {
			t.Fatalf("%s: %d embeddings on %d sets, want %d on %d", tc.name, u.Len(), u.Sets(), tc.setsNum*tc.perSet, tc.setsNum)
		}
		bySet := make(map[string]int)
		total := 0
		for s := 0; s < u.Sets(); s++ {
			first := u.SetFirst(s)
			if s > 0 && first <= u.SetFirst(s-1) {
				t.Fatalf("%s: set %d first occurs at %d, before set %d's %d", tc.name, s, first, s-1, u.SetFirst(s-1))
			}
			key := fmt.Sprint(u.Set(first).Members())
			if _, dup := bySet[key]; dup {
				t.Fatalf("%s: sets %d and %d share vertices %s", tc.name, bySet[key], s, key)
			}
			bySet[key] = s
			if u.SetLen(s) != tc.perSet {
				t.Fatalf("%s: set %d holds %d embeddings, want %d", tc.name, s, u.SetLen(s), tc.perSet)
			}
			total += u.SetLen(s)
		}
		if total != u.Len() {
			t.Fatalf("%s: set counts add to %d, universe holds %d", tc.name, total, u.Len())
		}
		for i := 0; i < u.Len(); i++ {
			if s := bySet[fmt.Sprint(u.Set(i).Members())]; u.SetOf(i) != s || i < u.SetFirst(s) {
				t.Fatalf("%s: embedding %d maps to set %d, its vertices are set %d's", tc.name, i, u.SetOf(i), s)
			}
		}
	}
}
