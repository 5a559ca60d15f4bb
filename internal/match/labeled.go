package match

import "mapa/internal/graph"

// Compatible decides whether data vertex d may host pattern vertex p.
// It is the vertex-label predicate of label-aware matching: the paper
// (Sec. 3.3) proposes labeling application vertices with resource
// requirements and hardware vertices with availability (threads,
// memory, MIG slices) and restricting matches to compatible pairs.
type Compatible func(patternVertex, dataVertex int) bool

// EnumerateLabeled is Enumerate restricted to embeddings where every
// pattern vertex maps to a compatible data vertex. A nil predicate
// admits every pair (plain Enumerate).
func EnumerateLabeled(pattern, data *graph.Graph, ok Compatible, fn func(Match) bool) {
	if ok == nil {
		Enumerate(pattern, data, fn)
		return
	}
	Enumerate(pattern, data, func(m Match) bool {
		for i, p := range m.Pattern {
			if !ok(p, m.Data[i]) {
				return true // skip incompatible embedding, keep searching
			}
		}
		return fn(m)
	})
}

// FindAllLabeledDeduped returns one representative per match
// equivalence class among label-compatible embeddings: the first
// compatible member of each class in Enumerate's order. Unlike
// FindAllDeduped it enumerates every raw embedding and keeps the first
// of each key — symmetry breaking would be unsound here, because a
// label predicate need not commute with the pattern's automorphisms
// (the class's first member may be incompatible while a later one is
// not).
func FindAllLabeledDeduped(pattern, data *graph.Graph, ok Compatible) []Match {
	seen := make(map[string]bool)
	var out []Match
	EnumerateLabeled(pattern, data, ok, func(m Match) bool {
		key := m.Key(pattern, data)
		if !seen[key] {
			seen[key] = true
			out = append(out, m.Clone())
		}
		return true
	})
	return out
}

// HasLabeledMatch reports whether any label-compatible embedding
// exists.
func HasLabeledMatch(pattern, data *graph.Graph, ok Compatible) bool {
	found := false
	EnumerateLabeled(pattern, data, ok, func(Match) bool {
		found = true
		return false
	})
	return found
}
