// Package match implements subgraph isomorphism search: finding every
// embedding of a small application pattern graph inside a larger
// hardware graph. It stands in for the Peregrine pattern-aware graph
// mining engine the paper builds MAPA on (the paper explicitly treats
// the matcher as an interchangeable component).
//
// The enumerator is a VF2-style backtracking search: pattern vertices
// are matched one at a time in a connectivity-aware order, and a data
// vertex is a candidate only if it is unused and adjacent (in the data
// graph) to the images of every already-matched pattern neighbor.
//
// Because MAPA scores matches by the *links they use*, two embeddings
// that use the same set of data edges are equivalent: they differ by a
// pattern automorphism. The deduplicated enumerations (FindAllDeduped*,
// BuildUniverse) break the pattern's symmetries instead of filtering
// copies: a per-pattern table (see breakSymmetry) bounds each search
// position from below, so the search visits exactly one embedding per
// class — the one the raw enumeration emits first.
package match

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mapa/internal/graph"
)

// Match is one embedding of a pattern into a data graph. Pattern[i]
// maps to Data[i]; Pattern lists the pattern's vertices in the
// enumeration order used by the search.
type Match struct {
	Pattern []int
	Data    []int
}

// DataVertices returns the match's data vertices in ascending order.
func (m Match) DataVertices() []int {
	vs := append([]int(nil), m.Data...)
	sort.Ints(vs)
	return vs
}

// MappingOf returns the data vertex the given pattern vertex maps to.
func (m Match) MappingOf(patternVertex int) (int, bool) {
	for i, p := range m.Pattern {
		if p == patternVertex {
			return m.Data[i], true
		}
	}
	return 0, false
}

// UsedEdges returns the data-graph edges that are images of pattern
// edges — the set E(P) ∩ E(M) of Eq. 1 — normalized and sorted.
func (m Match) UsedEdges(pattern, data *graph.Graph) []graph.Edge {
	toData := make(map[int]int, len(m.Pattern))
	for i, p := range m.Pattern {
		toData[p] = m.Data[i]
	}
	var es []graph.Edge
	for _, pe := range pattern.Edges() {
		du, dv := toData[pe.U], toData[pe.V]
		de, ok := data.EdgeBetween(du, dv)
		if !ok {
			panic(fmt.Sprintf("match: invalid embedding, data edge (%d,%d) missing", du, dv))
		}
		es = append(es, de)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Key returns a canonical string identifying the set of data edges the
// match uses plus its vertex set. Matches with equal keys are
// interchangeable for scoring.
func (m Match) Key(pattern, data *graph.Graph) string {
	var b strings.Builder
	for _, v := range m.DataVertices() {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, e := range m.UsedEdges(pattern, data) {
		b.WriteString(strconv.Itoa(e.U))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e.V))
		b.WriteByte(',')
	}
	return b.String()
}

// IsEmbedding verifies that m is a valid (injective, edge-preserving)
// embedding of pattern into data.
func IsEmbedding(pattern, data *graph.Graph, m Match) bool {
	if len(m.Pattern) != pattern.NumVertices() || len(m.Data) != len(m.Pattern) {
		return false
	}
	toData := make(map[int]int, len(m.Pattern))
	used := make(map[int]bool, len(m.Data))
	for i, p := range m.Pattern {
		d := m.Data[i]
		if !pattern.HasVertex(p) || !data.HasVertex(d) {
			return false
		}
		if _, dup := toData[p]; dup || used[d] {
			return false
		}
		toData[p] = d
		used[d] = true
	}
	for _, pe := range pattern.Edges() {
		if !data.HasEdge(toData[pe.U], toData[pe.V]) {
			return false
		}
	}
	return true
}

// matchOrder returns the pattern vertices in a connectivity-aware
// search order: the highest-degree vertex first, then always a vertex
// with the most already-ordered neighbors (ties broken by degree then
// ID). This keeps the backtracking frontier connected, which is the
// core VF2 pruning idea.
func matchOrder(p *graph.Graph) []int {
	vs := p.Vertices()
	if len(vs) == 0 {
		return nil
	}
	ordered := make([]int, 0, len(vs))
	inOrder := make(map[int]bool, len(vs))
	pick := vs[0]
	for _, v := range vs {
		if p.Degree(v) > p.Degree(pick) {
			pick = v
		}
	}
	ordered = append(ordered, pick)
	inOrder[pick] = true
	for len(ordered) < len(vs) {
		best, bestConn := -1, -1
		for _, v := range vs {
			if inOrder[v] {
				continue
			}
			conn := 0
			for _, u := range p.Neighbors(v) {
				if inOrder[u] {
					conn++
				}
			}
			if conn > bestConn ||
				(conn == bestConn && (p.Degree(v) > p.Degree(best) ||
					(p.Degree(v) == p.Degree(best) && v < best))) {
				best, bestConn = v, conn
			}
		}
		ordered = append(ordered, best)
		inOrder[best] = true
	}
	return ordered
}

// Enumerate finds every embedding of pattern into data and invokes fn
// for each. Return false from fn to stop the search early. The Match
// passed to fn reuses internal buffers; copy it (e.g. via Clone) if it
// must outlive the callback.
//
// The enumeration runs over an adjacency-bitset index of the data
// graph (see graph.Index): candidate filtering is word-wise AND /
// AND-NOT instead of per-vertex map lookups. Embeddings are emitted in
// a deterministic order — candidates ascend by data-vertex ID at every
// depth.
func Enumerate(pattern, data *graph.Graph, fn func(Match) bool) {
	if s := newSearch(pattern, data, nil); s != nil {
		s.run(fn)
	}
}

// Clone returns a deep copy of m safe to retain after Enumerate's
// callback returns.
func (m Match) Clone() Match {
	return Match{
		Pattern: append([]int(nil), m.Pattern...),
		Data:    append([]int(nil), m.Data...),
	}
}

// FindAll returns every embedding of pattern into data.
func FindAll(pattern, data *graph.Graph) []Match {
	var out []Match
	Enumerate(pattern, data, func(m Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

// FindAllDeduped returns one representative per equivalence class of
// embeddings, where two embeddings are equivalent when they use the
// same data vertices and the same data edges (i.e. they differ by a
// pattern automorphism). These classes are exactly the distinct
// "matching patterns" MAPA scores. Each representative is the first
// member of its class in Enumerate's order, and representatives come
// in that order.
func FindAllDeduped(pattern, data *graph.Graph) []Match {
	return FindAllDedupedCapped(pattern, data, 0)
}

// FindAllDedupedCapped is FindAllDeduped truncated to the first max
// representatives in enumeration order; max <= 0 means unlimited. The
// cap bounds the candidate sets MAPA policies score on large machines.
func FindAllDedupedCapped(pattern, data *graph.Graph, max int) []Match {
	ms, _ := FindAllDedupedCappedKeys(pattern, data, max)
	return ms
}

// FindAllDedupedCappedKeys is FindAllDedupedCapped returning each
// representative's canonical key (its equivalence-class identity)
// alongside it.
func FindAllDedupedCappedKeys(pattern, data *graph.Graph, max int) ([]Match, []string) {
	return FindAllDedupedParallelKeys(pattern, data, 1, max)
}

// classes holds the representatives of a deduplicated enumeration in
// emission order: their data vertices back to back, len(order) per
// representative, and their canonical keys.
type classes struct {
	order []int
	data  []int
	keys  []string
}

func (cs *classes) add(m Match, ky *Keyer) {
	cs.data = append(cs.data, m.Data...)
	cs.keys = append(cs.keys, string(ky.KeyBytes(m)))
}

// matches returns the representatives as Matches sharing the arena.
func (cs *classes) matches() []Match {
	if len(cs.keys) == 0 {
		return nil
	}
	k := len(cs.order)
	ms := make([]Match, len(cs.keys))
	for i := range ms {
		ms[i] = Match{Pattern: cs.order, Data: cs.data[i*k : (i+1)*k : (i+1)*k]}
	}
	return ms
}

// dedupedCapped is the sequential deduplicated enumeration over a
// program compiled by compileDeduped (nil: none), truncated to the
// first max classes (max <= 0: all). The program's symmetry breaking
// emits one embedding per class, so every emitted embedding is kept.
func dedupedCapped(pg *program, pattern *graph.Graph, max int) classes {
	if pg == nil {
		return classes{}
	}
	cs := classes{order: pg.order}
	ky := NewKeyer(pattern, pg.order)
	pg.newSearch().run(func(m Match) bool {
		cs.add(m, ky)
		return max <= 0 || len(cs.keys) < max
	})
	return cs
}

// CountEmbeddings returns the number of raw embeddings of pattern into
// data without materializing them.
func CountEmbeddings(pattern, data *graph.Graph) int {
	n := 0
	Enumerate(pattern, data, func(Match) bool {
		n++
		return true
	})
	return n
}

// Automorphisms returns |Aut(P)|: the number of self-embeddings of the
// pattern. FindAll(p, data) emits |Aut(P)| raw embeddings per deduped
// match on a complete data graph.
func Automorphisms(p *graph.Graph) int {
	return CountEmbeddings(p, p)
}

// HasMatch reports whether at least one embedding exists.
func HasMatch(pattern, data *graph.Graph) bool {
	found := false
	Enumerate(pattern, data, func(Match) bool {
		found = true
		return false
	})
	return found
}
