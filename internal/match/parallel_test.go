package match

import (
	"fmt"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/topology"
)

// matchesEqual compares two match slices byte-for-byte (order,
// Pattern, and Data all included).
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprint(a[i].Pattern) != fmt.Sprint(b[i].Pattern) ||
			fmt.Sprint(a[i].Data) != fmt.Sprint(b[i].Data) {
			return false
		}
	}
	return true
}

// TestParallelSparseVertexIDs drives the parallel dispatcher over a data
// graph whose vertex IDs are sparse and non-contiguous (physical GPU
// IDs survive removal, and multi-node IDs jump across bitset words):
// Searcher.Roots must report real vertex IDs and the parallel output
// must stay byte-identical to sequential at every worker count.
func TestParallelSparseVertexIDs(t *testing.T) {
	ids := []int{3, 7, 64, 65, 66, 130, 131, 200}
	data := graph.New()
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			if (a+b)%3 != 0 { // drop some edges so degrees differ
				data.MustAddEdge(ids[a], ids[b], 1, 0)
			}
		}
	}
	pattern := ring(3)
	sr := NewSearcher(pattern, data)
	prev := -1
	for _, r := range sr.Roots() {
		if !data.HasVertex(r) {
			t.Fatalf("root %d is not a data vertex", r)
		}
		if r <= prev {
			t.Fatalf("roots not ascending: %v", sr.Roots())
		}
		prev = r
	}
	wantM, wantK := FindAllDedupedCappedKeys(pattern, data, 0)
	if len(wantM) == 0 {
		t.Fatal("test graph has no matches — pick denser edges")
	}
	for _, workers := range []int{2, 4, 8} {
		gotM, gotK := FindAllDedupedParallelKeys(pattern, data, workers, 0)
		if !matchesEqual(gotM, wantM) || fmt.Sprint(gotK) != fmt.Sprint(wantK) {
			t.Fatalf("workers=%d: parallel output differs from sequential on sparse IDs", workers)
		}
	}
}

// TestZeroCandidateRoots covers roots whose candidate frontier is
// empty: vertices that pass the first-position degree bound but whose
// neighborhoods cannot extend to a full embedding. They must be
// dispatched, produce nothing, and leave the stitched output
// byte-identical to sequential.
func TestZeroCandidateRoots(t *testing.T) {
	// Triangle {0,1,2}; vertex 3 bridges to 4 and 5 (degree 2 passes
	// the triangle's degree bound) but no triangle goes through 3, 4,
	// or 5.
	data := graph.New()
	data.MustAddEdge(0, 1, 1, 0)
	data.MustAddEdge(1, 2, 1, 0)
	data.MustAddEdge(0, 2, 1, 0)
	data.MustAddEdge(3, 4, 1, 0)
	data.MustAddEdge(3, 5, 1, 0)
	data.MustAddEdge(4, 0, 1, 0)
	data.MustAddEdge(5, 1, 1, 0)
	pattern := ring(3)
	sr := NewSearcher(pattern, data)
	if len(sr.Roots()) < 4 {
		t.Fatalf("want several eligible roots, got %v", sr.Roots())
	}
	wantM, wantK := FindAllDedupedCappedKeys(pattern, data, 0)
	if len(wantM) != 1 {
		t.Fatalf("graph holds %d triangles, want 1", len(wantM))
	}
	for _, workers := range []int{2, 4} {
		gotM, gotK := FindAllDedupedParallelKeys(pattern, data, workers, 0)
		if !matchesEqual(gotM, wantM) || fmt.Sprint(gotK) != fmt.Sprint(wantK) {
			t.Fatalf("workers=%d: zero-candidate roots broke parity", workers)
		}
	}
}

// TestCapTruncationMidChunk pins the capped parallel enumeration when
// the cap lands mid-chunk — inside one root's slice of the stitched
// output — while other roots are still in flight: capTracker stops the
// dispatch on the contiguous completed prefix, never on whichever roots
// happen to have finished, so the truncated output must be the exact
// sequential prefix. Chain(3) on the 72-GPU cluster spans two bitset
// words and holds 2,485 classes per root (the chain's middle vertex is
// the root), so caps 1 and 997 land inside the first root and 50,000
// inside the 21st.
func TestCapTruncationMidChunk(t *testing.T) {
	data := topology.ClusterA100(9).Graph
	pattern := appgraph.Chain(3)
	if n := len(NewSearcher(pattern, data).Roots()); n != 72 {
		t.Fatalf("roots = %d, want 72", n)
	}
	for _, max := range []int{1, 997, 50000} {
		wantM, wantK := FindAllDedupedCappedKeys(pattern, data, max)
		if len(wantM) != max {
			t.Fatalf("max=%d: sequential returned %d", max, len(wantM))
		}
		for _, workers := range []int{2, 3, 4, 8} {
			gotM, gotK := FindAllDedupedParallelKeys(pattern, data, workers, max)
			if !matchesEqual(gotM, wantM) || fmt.Sprint(gotK) != fmt.Sprint(wantK) {
				t.Fatalf("workers=%d max=%d: truncated prefix differs from sequential", workers, max)
			}
		}
	}
}
