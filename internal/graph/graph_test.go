package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddVertexAndEdgeBasics(t *testing.T) {
	g := New()
	g.AddVertex(0)
	g.AddVertex(3)
	g.AddVertex(3) // duplicate is a no-op
	if got := g.NumVertices(); got != 2 {
		t.Fatalf("NumVertices = %d, want 2", got)
	}
	if err := g.AddEdge(0, 3, 50, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("edge should be visible from both endpoints")
	}
	e, ok := g.EdgeBetween(3, 0)
	if !ok {
		t.Fatal("EdgeBetween(3,0) not found")
	}
	if e.U != 0 || e.V != 3 {
		t.Fatalf("edge not normalized: %+v", e)
	}
	if e.Weight != 50 || e.Label != 1 {
		t.Fatalf("edge attrs wrong: %+v", e)
	}
}

func TestAddEdgeImplicitVertices(t *testing.T) {
	g := New()
	g.MustAddEdge(5, 7, 12, 0)
	if !g.HasVertex(5) || !g.HasVertex(7) {
		t.Fatal("AddEdge should create endpoints")
	}
}

func TestAddEdgeSelfLoopRejected(t *testing.T) {
	g := New()
	if err := g.AddEdge(1, 1, 10, 0); err == nil {
		t.Fatal("self-loop should be rejected")
	}
}

func TestAddEdgeNegativeWeightRejected(t *testing.T) {
	g := New()
	if err := g.AddEdge(1, 2, -1, 0); err == nil {
		t.Fatal("negative weight should be rejected")
	}
}

func TestAddVertexNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative vertex")
		}
	}()
	New().AddVertex(-1)
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 2, V: 5}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint should panic")
		}
	}()
	e.Other(9)
}

func TestReAddEdgeOverwrites(t *testing.T) {
	g := New()
	g.MustAddEdge(0, 1, 25, 2)
	g.MustAddEdge(1, 0, 50, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	e, _ := g.EdgeBetween(0, 1)
	if e.Weight != 50 || e.Label != 1 {
		t.Fatalf("overwrite failed: %+v", e)
	}
}

func TestRemoveEdgeAndVertex(t *testing.T) {
	g := triangle()
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("RemoveEdge failed")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.RemoveVertex(2)
	if g.HasVertex(2) || g.NumEdges() != 0 {
		t.Fatalf("RemoveVertex left state: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	// Removing absent vertex / edge must be safe.
	g.RemoveVertex(99)
	g.RemoveEdge(42, 43)
}

// TestReAddedVertexStartsClean: a vertex added after a removal — the
// same ID or another — carries no edge of the removed one.
func TestReAddedVertexStartsClean(t *testing.T) {
	g := triangle()
	g.RemoveVertex(2)
	g.AddVertex(7)
	if g.Degree(7) != 0 || g.HasEdge(7, 0) || g.HasEdge(7, 1) || g.NumEdges() != 1 {
		t.Fatalf("vertex added after a removal inherited edges: %v", g)
	}
	g.MustAddEdge(7, 0, 3, 0)
	g.RemoveVertex(7)
	g.AddVertex(2)
	if g.Degree(2) != 0 || g.HasEdge(0, 7) || g.NumEdges() != 1 {
		t.Fatalf("re-added vertex inherited edges: %v", g)
	}
	if !g.Equal(func() *Graph { h := New(); h.MustAddEdge(0, 1, 50, 1); h.AddVertex(2); return h }()) {
		t.Fatalf("graph after remove/re-add cycles = %v", g)
	}
}

func triangle() *Graph {
	g := New()
	g.MustAddEdge(0, 1, 50, 1)
	g.MustAddEdge(1, 2, 25, 2)
	g.MustAddEdge(0, 2, 12, 0)
	return g
}

func TestVerticesSorted(t *testing.T) {
	g := New()
	for _, v := range []int{9, 1, 4, 0} {
		g.AddVertex(v)
	}
	want := []int{0, 1, 4, 9}
	if got := g.Vertices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vertices = %v, want %v", got, want)
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	g := New()
	g.MustAddEdge(3, 1, 10, 0)
	g.MustAddEdge(2, 0, 20, 0)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("len(Edges) = %d", len(es))
	}
	if es[0].U != 0 || es[0].V != 2 || es[1].U != 1 || es[1].V != 3 {
		t.Fatalf("Edges order/normalization wrong: %+v", es)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := triangle()
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	if g.Degree(99) != 0 {
		t.Fatalf("Degree of absent vertex should be 0")
	}
}

func TestIncidentEdges(t *testing.T) {
	g := triangle()
	es := g.IncidentEdges(1)
	if len(es) != 2 {
		t.Fatalf("IncidentEdges(1) len = %d", len(es))
	}
	if es[0].Other(1) != 0 || es[1].Other(1) != 2 {
		t.Fatalf("IncidentEdges not sorted by far endpoint: %+v", es)
	}
}

func TestDegreeSequence(t *testing.T) {
	g := New()
	g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(0, 2, 1, 0)
	g.MustAddEdge(0, 3, 1, 0)
	want := []int{3, 1, 1, 1}
	if got := g.DegreeSequence(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeSequence = %v, want %v", got, want)
	}
}

func TestTotalWeight(t *testing.T) {
	g := triangle()
	if w := g.TotalWeight(); w != 87 {
		t.Fatalf("TotalWeight = %g, want 87", w)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triangle()
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.RemoveVertex(0)
	if !g.HasVertex(0) || g.NumEdges() != 3 {
		t.Fatal("mutating clone affected original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangle()
	g.MustAddEdge(2, 3, 5, 0)
	s := g.InducedSubgraph([]int{0, 1, 3, 42})
	if s.NumVertices() != 3 {
		t.Fatalf("induced V = %d, want 3 (unknown vertex ignored)", s.NumVertices())
	}
	if s.NumEdges() != 1 || !s.HasEdge(0, 1) {
		t.Fatalf("induced edges wrong: %v", s.Edges())
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New()
	if !g.Connected() {
		t.Fatal("empty graph should be connected")
	}
	g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(2, 3, 1, 0)
	if g.Connected() {
		t.Fatal("two components should not be connected")
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1}) || !reflect.DeepEqual(comps[1], []int{2, 3}) {
		t.Fatalf("Components content wrong: %v", comps)
	}
	g.MustAddEdge(1, 2, 1, 0)
	if !g.Connected() {
		t.Fatal("bridged graph should be connected")
	}
}

func TestEqual(t *testing.T) {
	a, b := triangle(), triangle()
	if !a.Equal(b) {
		t.Fatal("identical graphs should be Equal")
	}
	b.RemoveEdge(0, 1)
	b.MustAddEdge(0, 1, 99, 1)
	if a.Equal(b) {
		t.Fatal("different weights should not be Equal")
	}
	c := New()
	c.AddVertex(7)
	if a.Equal(c) {
		t.Fatal("different vertex sets should not be Equal")
	}
}

func TestDOTOutput(t *testing.T) {
	d := triangle().DOT("tri")
	for _, want := range []string{`graph "tri"`, "0 -- 1", "1 -- 2", "0 -- 2"} {
		if !strings.Contains(d, want) {
			t.Fatalf("DOT missing %q in:\n%s", want, d)
		}
	}
}

func TestStringer(t *testing.T) {
	s := triangle().String()
	if !strings.Contains(s, "V=3") || !strings.Contains(s, "E=3") {
		t.Fatalf("String = %q", s)
	}
}

// randomGraph builds a reproducible random graph for property tests.
func randomGraph(r *rand.Rand, n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		g.AddVertex(v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(2) == 0 {
				g.MustAddEdge(u, v, float64(r.Intn(5))*12.5, r.Intn(3))
			}
		}
	}
	return g
}

// Property: an induced subgraph's edges are exactly the original edges
// with both endpoints inside the chosen set.
func TestInducedSubgraphProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 2
		g := randomGraph(r, n)
		var vs []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		s := g.InducedSubgraph(vs)
		in := make(map[int]bool)
		for _, v := range vs {
			in[v] = true
		}
		for _, e := range g.Edges() {
			want := in[e.U] && in[e.V]
			if s.HasEdge(e.U, e.V) != want {
				return false
			}
		}
		for _, e := range s.Edges() {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing vs from a clone and InducedSubgraph(complement)
// agree.
func TestWithoutComplementProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 2
		g := randomGraph(r, n)
		var rm, keep []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				rm = append(rm, v)
			} else {
				keep = append(keep, v)
			}
		}
		without := g.Clone()
		for _, v := range rm {
			without.RemoveVertex(v)
		}
		return without.Equal(g.InducedSubgraph(keep))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency is symmetric and degree equals neighbor count.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 2
		g := randomGraph(r, n)
		for _, v := range g.Vertices() {
			ns := g.Neighbors(v)
			if len(ns) != g.Degree(v) {
				return false
			}
			if !sort.IntsAreSorted(ns) {
				return false
			}
			for _, u := range ns {
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is equal and independent; TotalWeight matches the sum
// of Edges().
func TestCloneAndWeightProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 2
		g := randomGraph(r, n)
		c := g.Clone()
		if !g.Equal(c) || !c.Equal(g) {
			return false
		}
		var sum float64
		for _, e := range g.Edges() {
			sum += e.Weight
		}
		return sum == g.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
