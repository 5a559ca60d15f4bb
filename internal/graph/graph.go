// Package graph provides the undirected, weighted, edge-labeled graph
// substrate used throughout MAPA. Application communication patterns and
// server hardware topologies are both represented as Graph values.
//
// Vertices are identified by arbitrary non-negative integers (physical GPU
// IDs survive vertex removal, so a graph may have "holes" in its ID space).
// Every edge carries a float64 weight (link bandwidth in GB/s) and an
// integer label (link type). Edges are undirected: AddEdge(u, v) and
// AddEdge(v, u) are the same edge.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Edge is an undirected edge between U and V with a bandwidth Weight
// (GB/s) and an integer Label identifying the link type. Edges returned
// by accessor methods are normalized so that U < V.
type Edge struct {
	U, V   int
	Weight float64
	Label  int
}

// normalize returns e with endpoints ordered so that U < V.
func (e Edge) normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not v.
// It panics if v is not an endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge (%d,%d)", v, e.U, e.V))
}

// Graph is an undirected weighted graph. The zero value is not usable;
// call New.
//
// Graphs memoize their Fingerprint and their sorted layout
// (SortedVertices, EdgePositions) lazily; every mutator drops the
// memos, so a mutated graph recomputes each at most once per state. The
// memos are maintained with atomics, so concurrent readers are safe;
// mutation itself is not safe to interleave with readers.
type Graph struct {
	adj map[int]map[int]Edge

	fpMemo     atomic.Pointer[string]
	layoutMemo atomic.Pointer[layout]
}

// layout is the memo behind SortedVertices and EdgePositions.
type layout struct {
	verts []int
	edges [][2]int
}

// invalidate drops the memoized fingerprint and layout after a
// structural mutation.
func (g *Graph) invalidate() {
	g.fpMemo.Store(nil)
	g.layoutMemo.Store(nil)
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[int]map[int]Edge)}
}

// AddVertex inserts vertex v. Adding an existing vertex is a no-op.
// It panics if v is negative.
func (g *Graph) AddVertex(v int) {
	if v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id %d", v))
	}
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[int]Edge)
		g.invalidate()
	}
}

// AddEdge inserts an undirected edge between u and v with the given
// weight and label, implicitly adding missing endpoints. Re-adding an
// existing edge overwrites its weight and label. It returns an error for
// self-loops or negative weights.
func (g *Graph) AddEdge(u, v int, weight float64, label int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if weight < 0 {
		return fmt.Errorf("graph: negative weight %g on edge (%d,%d)", weight, u, v)
	}
	g.AddVertex(u)
	g.AddVertex(v)
	e := Edge{U: u, V: v, Weight: weight, Label: label}.normalize()
	g.adj[u][v] = e
	g.adj[v][u] = e
	g.invalidate()
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for
// statically-known topology construction.
func (g *Graph) MustAddEdge(u, v int, weight float64, label int) {
	if err := g.AddEdge(u, v, weight, label); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge between u and v if present.
func (g *Graph) RemoveEdge(u, v int) {
	if _, ok := g.adj[u][v]; ok {
		delete(g.adj[u], v)
		delete(g.adj[v], u)
		g.invalidate()
	}
}

// RemoveVertex deletes v and all incident edges. Removing an absent
// vertex is a no-op.
func (g *Graph) RemoveVertex(v int) {
	nbrs, ok := g.adj[v]
	if !ok {
		return
	}
	for u := range nbrs {
		delete(g.adj[u], v)
	}
	delete(g.adj, v)
	g.invalidate()
}

// HasVertex reports whether v is present.
func (g *Graph) HasVertex(v int) bool {
	_, ok := g.adj[v]
	return ok
}

// HasEdge reports whether an edge between u and v is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// EdgeBetween returns the edge between u and v.
func (g *Graph) EdgeBetween(u, v int) (Edge, bool) {
	e, ok := g.adj[u][v]
	return e, ok
}

// Weight returns the weight of the edge between u and v, or 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	return g.adj[u][v].Weight
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nbrs := range g.adj {
		n += len(nbrs)
	}
	return n / 2
}

// Vertices returns all vertex IDs in ascending order.
func (g *Graph) Vertices() []int {
	vs := make([]int, 0, len(g.adj))
	for v := range g.adj {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// SortedVertices is Vertices memoized on the graph: the same ascending
// list, computed once per graph state and shared by every caller, so a
// decision path that needs a pattern's vertices allocates nothing.
// Read-only.
func (g *Graph) SortedVertices() []int { return g.layout().verts }

// EdgePositions is EdgePositionsIn(SortedVertices()) memoized like
// SortedVertices: the edges as pairs (i, j) with i < j. Read-only.
func (g *Graph) EdgePositions() [][2]int { return g.layout().edges }

func (g *Graph) layout() *layout {
	if l := g.layoutMemo.Load(); l != nil {
		return l
	}
	verts := g.Vertices()
	l := &layout{verts: verts, edges: g.EdgePositionsIn(verts)}
	g.layoutMemo.Store(l)
	return l
}

// EdgePositionsIn returns the graph's edges in Edges order as pairs of
// positions in order, which lists every vertex once. An embedding that
// maps order[i] onto data[i] — a matcher's Match — uses data link
// (data[p[0]], data[p[1]]) for each pair p, so code that visits many
// embeddings of one pattern compiles the pairs once and reads no graph
// per embedding.
func (g *Graph) EdgePositionsIn(order []int) [][2]int {
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	es := g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{pos[e.U], pos[e.V]}
	}
	return out
}

// Edges returns all edges, normalized (U < V) and sorted by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for u, nbrs := range g.adj {
		for v, e := range nbrs {
			if u < v {
				es = append(es, e)
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// ForEachEdge calls fn for every edge (normalized, U < V) in
// unspecified order, stopping early if fn returns false. Unlike Edges
// it allocates nothing; use it when the caller's accumulation is
// order-independent (e.g. exact integral-bandwidth sums).
func (g *Graph) ForEachEdge(fn func(Edge) bool) {
	for u, nbrs := range g.adj {
		for v, e := range nbrs {
			if u < v && !fn(e) {
				return
			}
		}
	}
}

// Neighbors returns the neighbors of v in ascending order.
func (g *Graph) Neighbors(v int) []int {
	ns := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		ns = append(ns, u)
	}
	sort.Ints(ns)
	return ns
}

// IncidentEdges returns the edges incident to v, sorted by the far
// endpoint.
func (g *Graph) IncidentEdges(v int) []Edge {
	es := make([]Edge, 0, len(g.adj[v]))
	for _, e := range g.adj[v] {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Other(v) < es[j].Other(v) })
	return es
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// DegreeSequence returns the multiset of vertex degrees in descending
// order. Two isomorphic graphs have identical degree sequences.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, 0, len(g.adj))
	for _, nbrs := range g.adj {
		ds = append(ds, len(nbrs))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var w float64
	for u, nbrs := range g.adj {
		for v, e := range nbrs {
			if u < v {
				w += e.Weight
			}
		}
	}
	return w
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	for v := range g.adj {
		c.AddVertex(v)
	}
	for u, nbrs := range g.adj {
		for v, e := range nbrs {
			if u < v {
				c.adj[u][v] = e
				c.adj[v][u] = e
			}
		}
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the given vertex set:
// the vertices in vs that exist in g, and every edge of g whose both
// endpoints are in vs. Unknown vertices are ignored.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	in := make(map[int]bool, len(vs))
	for _, v := range vs {
		if g.HasVertex(v) {
			in[v] = true
		}
	}
	s := New()
	for v := range in {
		s.AddVertex(v)
	}
	for u := range in {
		for v, e := range g.adj[u] {
			if u < v && in[v] {
				s.adj[u][v] = e
				s.adj[v][u] = e
			}
		}
	}
	return s
}

// WeightWithout returns the total edge weight of the subgraph obtained
// by removing the given vertices, without materializing it. All edge
// weights in this repository are integral link bandwidths (see
// topology.LinkType.Bandwidth), so the float64 sum is exact and
// independent of iteration order.
func (g *Graph) WeightWithout(vs []int) float64 {
	if len(vs) == 0 {
		return g.TotalWeight()
	}
	gone := make(map[int]bool, len(vs))
	for _, v := range vs {
		gone[v] = true
	}
	var w float64
	for u, nbrs := range g.adj {
		if gone[u] {
			continue
		}
		for v, e := range nbrs {
			if u < v && !gone[v] {
				w += e.Weight
			}
		}
	}
	return w
}

// Connected reports whether g is connected. The empty graph is
// considered connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	var start int
	for v := range g.adj {
		start = v
		break
	}
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(g.adj)
}

// Components returns the connected components of g as sorted vertex
// slices, ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make(map[int]bool, len(g.adj))
	var comps [][]int
	for _, start := range g.Vertices() {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Equal reports whether g and h have identical vertex sets and edges
// (weights and labels included). This is structural equality of the
// representation, not isomorphism.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for v := range g.adj {
		if !h.HasVertex(v) {
			return false
		}
	}
	for u, nbrs := range g.adj {
		for v, e := range nbrs {
			if u < v {
				he, ok := h.EdgeBetween(u, v)
				if !ok || he != e {
					return false
				}
			}
		}
	}
	return true
}

// DOT renders g in Graphviz DOT format with edge weights as labels.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for _, v := range g.Vertices() {
		fmt.Fprintf(&b, "  %d;\n", v)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -- %d [label=%q];\n", e.U, e.V, fmt.Sprintf("%g", e.Weight))
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact human-readable description of g.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d W=%g}", g.NumVertices(), g.NumEdges(), g.TotalWeight())
}
