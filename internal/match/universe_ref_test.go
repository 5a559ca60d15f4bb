package match

import (
	"slices"
	"sync"

	"mapa/internal/graph"
)

// The per-embedding view of a closed-form universe, kept for tests as
// the reference the decision path is checked against: candidate i is
// the set-major pair (i / Perms(), i % Perms()), its data vertices are
// the set's sorted vertices composed with the permutation, and Filter
// lists the candidates on a mask in the search's emission order.

// setPositions unranks set s: its k ascending positions in Vertices(),
// the s-th k-subset in lexicographic order.
func (u *Universe) setPositions(s int) []int {
	n, k := len(u.verts), u.k
	pos := make([]int, k)
	x := 0
	for i := range pos {
		for c := Binomial(n-1-x, k-1-i); s >= c; c = Binomial(n-1-x, k-1-i) {
			s -= c
			x++
		}
		pos[i] = x
		x++
	}
	return pos
}

// SetOf returns the set candidate i occupies.
func (u *Universe) SetOf(i int) int { return i / u.Perms() }

// Match returns candidate i as a fresh Match.
func (u *Universe) Match(i int) Match {
	pos := u.setPositions(u.SetOf(i))
	data := make([]int, u.k)
	for j, q := range u.Perm(i % u.Perms()) {
		data[j] = u.verts[pos[q]]
	}
	return Match{Pattern: u.order, Data: data}
}

// Key returns candidate i's canonical key under pattern.
func (u *Universe) Key(pattern *graph.Graph, i int) string {
	return string(NewKeyer(pattern, u.order).KeyBytes(u.Match(i)))
}

// Set returns candidate i's data-vertex bitset.
func (u *Universe) Set(i int) graph.Bitset {
	b := graph.NewBitset(u.verts[len(u.verts)-1] + 1)
	for _, v := range u.Match(i).Data {
		b.Set(v)
	}
	return b
}

// emissionMemo caches each universe's emission order.
var emissionMemo sync.Map // *Universe -> []int

// Emission returns the candidate indices in the search's emission
// order: lexicographic in the embeddings' data tuples, since the search
// tries candidates in ascending ID at every depth.
func (u *Universe) Emission() []int {
	if v, ok := emissionMemo.Load(u); ok {
		return v.([]int)
	}
	data := make([][]int, u.Len())
	idx := make([]int, u.Len())
	for i := range idx {
		idx[i], data[i] = i, u.Match(i).Data
	}
	slices.SortFunc(idx, func(a, b int) int { return slices.Compare(data[a], data[b]) })
	emissionMemo.Store(u, idx)
	return idx
}

// Filter returns the indices of the candidates whose data vertices all
// lie in mask, in emission order, truncated to the first max (max <= 0:
// unlimited); truncated reports whether more exist. It reproduces
// FindAllDedupedCapped on the induced subgraph. Filtering an incomplete
// universe panics.
func (u *Universe) Filter(mask graph.Bitset, max int) (idx []int, truncated bool) {
	return u.FilterUsable(mask, mask, max)
}

// FilterUsable is Filter against the intersection of two masks.
func (u *Universe) FilterUsable(free, healthy graph.Bitset, max int) (idx []int, truncated bool) {
	if !u.complete {
		panic("match: Filter on an incomplete universe")
	}
	filters.Add(1)
	for _, i := range u.Emission() {
		s := u.Set(i)
		if !s.SubsetOf(free) || !s.SubsetOf(healthy) {
			continue
		}
		if max > 0 && len(idx) == max {
			return idx, true
		}
		idx = append(idx, i)
	}
	return idx, false
}

// groupSetMajor orders a search's embeddings the way a closed form
// numbers its candidates: sets by their ascending vertices, a set's
// embeddings in emission order.
func groupSetMajor(ms []Match) []Match {
	sorted := make([][]int, len(ms))
	for i, m := range ms {
		sorted[i] = m.DataVertices()
	}
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return slices.Compare(sorted[a], sorted[b]) })
	out := make([]Match, len(ms))
	for j, i := range idx {
		out[j] = ms[i]
	}
	return out
}
