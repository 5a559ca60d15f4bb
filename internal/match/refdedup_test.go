package match

import "mapa/internal/graph"

// refDedupedKeys is the keyed deduplication the symmetry-broken search
// replaced, kept as its oracle: enumerate every raw embedding (all
// |Aut(P)| copies of each class) and keep the first of each canonical
// key, truncated to the first max classes (max <= 0: all).
func refDedupedKeys(pattern, data *graph.Graph, max int) ([]Match, []string) {
	var ky *Keyer
	seen := make(map[string]bool)
	var out []Match
	var keys []string
	Enumerate(pattern, data, func(m Match) bool {
		if ky == nil {
			ky = NewKeyer(pattern, m.Pattern)
		}
		b := ky.KeyBytes(m)
		if seen[string(b)] {
			return true
		}
		key := string(b)
		seen[key] = true
		out = append(out, m.Clone())
		keys = append(keys, key)
		return max <= 0 || len(out) < max
	})
	return out, keys
}

// RefDedupedKeys exposes refDedupedKeys to the package's external
// tests, which drive machines built by packages that import match.
var RefDedupedKeys = refDedupedKeys
