package match

import (
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/graph"
)

// FuzzEnumerate drives the enumerator over randomized pattern/data
// graph pairs derived from the fuzz input and asserts the matcher
// invariants: every emitted match is a valid embedding, raw counts
// match the brute-force oracle, the parallel enumeration is
// byte-identical to the sequential one, and the symmetry-broken
// deduplicated enumeration returns the keyed-dedup oracle's
// representatives and keys, sequential and parallel, capped or not.
func FuzzEnumerate(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6), uint8(128), uint8(128))
	f.Add(int64(2), uint8(2), uint8(5), uint8(255), uint8(64))
	f.Add(int64(3), uint8(4), uint8(7), uint8(200), uint8(180))
	f.Add(int64(4), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(5), uint8(5), uint8(5), uint8(90), uint8(240))
	f.Add(int64(6), uint8(3), uint8(8), uint8(30), uint8(220))
	f.Fuzz(func(t *testing.T, seed int64, pn, dn, pp, dp uint8) {
		// Bound sizes so the brute-force oracle stays fast.
		patternN := 1 + int(pn)%5 // 1..5
		dataN := 1 + int(dn)%8    // 1..8
		rng := rand.New(rand.NewSource(seed))
		pattern := fuzzGraph(rng, patternN, float64(pp)/255)
		data := fuzzGraph(rng, dataN, float64(dp)/255)

		var emitted int
		Enumerate(pattern, data, func(m Match) bool {
			emitted++
			if !IsEmbedding(pattern, data, m) {
				t.Fatalf("Enumerate emitted invalid embedding: pattern=%v data=%v match=%+v",
					pattern, data, m)
			}
			return true
		})
		oracle := bruteForce(pattern, data)
		if emitted != len(oracle) {
			t.Fatalf("Enumerate emitted %d embeddings, oracle %d (pattern=%v data=%v)",
				emitted, len(oracle), pattern, data)
		}
		seq := FindAll(pattern, data)
		par := FindAllParallel(pattern, data, 4)
		if !sameMatches(seq, par) {
			t.Fatalf("parallel enumeration diverged from sequential (pattern=%v data=%v)", pattern, data)
		}
		for _, m := range FindAllDeduped(pattern, data) {
			if !IsEmbedding(pattern, data, m) {
				t.Fatalf("FindAllDeduped emitted invalid embedding %+v", m)
			}
		}
		ref, refKeys := refDedupedKeys(pattern, data, 0)
		for _, max := range []int{0, 1 + len(ref)/2} {
			n := len(ref)
			if max > 0 {
				n = min(n, max)
			}
			for _, workers := range []int{1, 4} {
				got, keys := FindAllDedupedParallelKeys(pattern, data, workers, max)
				if !sameMatches(got, ref[:n]) || !slices.Equal(keys, refKeys[:n]) {
					t.Fatalf("workers=%d max=%d: symmetry-broken dedup diverged from keyed dedup (pattern=%v data=%v)",
						workers, max, pattern, data)
				}
			}
		}
	})
}

func fuzzGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for v := 0; v < n; v++ {
		g.AddVertex(v)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v, 1, 0)
			}
		}
	}
	return g
}
