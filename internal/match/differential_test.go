package match

import (
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/graph"
)

// bruteForce enumerates every embedding of pattern into data by trying
// all injective vertex mappings and checking every pattern edge — the
// O(n^k) oracle the optimized enumerator is verified against.
func bruteForce(pattern, data *graph.Graph) []Match {
	pv := pattern.Vertices()
	dv := data.Vertices()
	if len(pv) == 0 || len(pv) > len(dv) {
		return nil
	}
	var out []Match
	assigned := make([]int, len(pv))
	used := make(map[int]bool, len(dv))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(pv) {
			toData := make(map[int]int, len(pv))
			for i, p := range pv {
				toData[p] = assigned[i]
			}
			for _, e := range pattern.Edges() {
				if !data.HasEdge(toData[e.U], toData[e.V]) {
					return
				}
			}
			out = append(out, Match{
				Pattern: append([]int(nil), pv...),
				Data:    append([]int(nil), assigned...),
			})
			return
		}
		for _, d := range dv {
			if used[d] {
				continue
			}
			assigned[depth] = d
			used[d] = true
			rec(depth + 1)
			used[d] = false
		}
	}
	rec(0)
	return out
}

// randomGraph builds an n-vertex graph with the given vertex IDs and
// independent edge probability p.
func randomGraph(rng *rand.Rand, ids []int, p float64) *graph.Graph {
	g := graph.New()
	for _, v := range ids {
		g.AddVertex(v)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() < p {
				g.MustAddEdge(ids[i], ids[j], 1, 0)
			}
		}
	}
	return g
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func sparseIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 3*i + 1
	}
	return ids
}

func keySet(t *testing.T, pattern, data *graph.Graph, ms []Match) map[string]bool {
	t.Helper()
	set := make(map[string]bool, len(ms))
	for _, m := range ms {
		set[m.Key(pattern, data)] = true
	}
	return set
}

// TestDifferentialAgainstBruteForce cross-checks the bitset enumerator
// and deduplication against the brute-force permutation oracle on a table of seeded random graph
// pairs, including sparse (non-contiguous) vertex IDs.
func TestDifferentialAgainstBruteForce(t *testing.T) {
	cases := []struct {
		name          string
		seed          int64
		patternN      int
		dataN         int
		patternP      float64
		dataP         float64
		sparsePattern bool
		sparseData    bool
	}{
		{name: "tiny-dense", seed: 1, patternN: 2, dataN: 4, patternP: 1.0, dataP: 0.9},
		{name: "triangle-hunt", seed: 2, patternN: 3, dataN: 6, patternP: 1.0, dataP: 0.6},
		{name: "sparse-pattern", seed: 3, patternN: 3, dataN: 7, patternP: 0.5, dataP: 0.5},
		{name: "mid-density", seed: 4, patternN: 4, dataN: 7, patternP: 0.7, dataP: 0.6},
		{name: "dense-4", seed: 5, patternN: 4, dataN: 8, patternP: 0.9, dataP: 0.8},
		{name: "sparse-data", seed: 6, patternN: 3, dataN: 8, patternP: 1.0, dataP: 0.3},
		{name: "sparse-ids", seed: 7, patternN: 4, dataN: 7, patternP: 0.8, dataP: 0.6, sparsePattern: true, sparseData: true},
		{name: "disconnected-pattern", seed: 8, patternN: 4, dataN: 6, patternP: 0.25, dataP: 0.7},
		{name: "no-edges-pattern", seed: 9, patternN: 3, dataN: 5, patternP: 0, dataP: 0.5},
		{name: "equal-size", seed: 10, patternN: 5, dataN: 5, patternP: 0.6, dataP: 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			pids, dids := seqIDs(tc.patternN), seqIDs(tc.dataN)
			if tc.sparsePattern {
				pids = sparseIDs(tc.patternN)
			}
			if tc.sparseData {
				dids = sparseIDs(tc.dataN)
			}
			pattern := randomGraph(rng, pids, tc.patternP)
			data := randomGraph(rng, dids, tc.dataP)

			oracle := bruteForce(pattern, data)
			got := FindAll(pattern, data)
			if len(got) != len(oracle) {
				t.Fatalf("FindAll found %d embeddings, oracle %d", len(got), len(oracle))
			}
			for _, m := range got {
				if !IsEmbedding(pattern, data, m) {
					t.Fatalf("FindAll emitted invalid embedding %v", m)
				}
			}
			if n := CountEmbeddings(pattern, data); n != len(oracle) {
				t.Fatalf("CountEmbeddings=%d, oracle %d", n, len(oracle))
			}

			// The raw embedding sets must agree as sets of keys over
			// (vertex set, edge set) refined by the exact assignment.
			oracleSet := make(map[string]bool, len(oracle))
			for _, m := range oracle {
				oracleSet[assignmentKey(m)] = true
			}
			for _, m := range got {
				if !oracleSet[assignmentKey(m)] {
					t.Fatalf("FindAll emitted embedding missing from oracle: %v", m)
				}
			}

			ded := FindAllDeduped(pattern, data)
			wantKeys := keySet(t, pattern, data, oracle)
			gotKeys := keySet(t, pattern, data, ded)
			if len(gotKeys) != len(ded) {
				t.Fatalf("FindAllDeduped returned %d matches but %d distinct keys", len(ded), len(gotKeys))
			}
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("deduped key count %d, oracle %d", len(gotKeys), len(wantKeys))
			}
			for k := range gotKeys {
				if !wantKeys[k] {
					t.Fatalf("deduped key %q not produced by oracle", k)
				}
			}
		})
	}
}

// TestZeroCandidateRoots covers roots whose candidate frontier is
// empty: vertices that pass the first-position degree bound but whose
// neighborhoods cannot extend to a full embedding. They must produce
// nothing, leaving the deduplicated enumeration equal to the
// keyed-dedup oracle's one triangle.
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
	for _, v := range []int{3, 4, 5} {
		if data.Degree(v) < 2 {
			t.Fatalf("vertex %d fails the triangle's degree bound: the case is vacuous", v)
		}
	}
	wantM, wantK := refDedupedKeys(pattern, data, 0)
	if len(wantM) != 1 {
		t.Fatalf("graph holds %d triangles, want 1", len(wantM))
	}
	gotM, gotK := FindAllDedupedCappedKeys(pattern, data, 0)
	if !sameMatches(gotM, wantM) || !slices.Equal(gotK, wantK) {
		t.Fatalf("deduplicated enumeration %v (keys %q), want %v (keys %q)", gotM, gotK, wantM, wantK)
	}
}

// assignmentKey identifies a raw embedding by its exact pattern→data
// assignment, independent of enumeration order.
func assignmentKey(m Match) string {
	type pair struct{ p, d int }
	pairs := make([]pair, len(m.Pattern))
	for i := range m.Pattern {
		pairs[i] = pair{m.Pattern[i], m.Data[i]}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j-1].p > pairs[j].p; j-- {
			pairs[j-1], pairs[j] = pairs[j], pairs[j-1]
		}
	}
	b := make([]byte, 0, 8*len(pairs))
	for _, pr := range pairs {
		b = appendInt(b, pr.p)
		b = append(b, ':')
		b = appendInt(b, pr.d)
		b = append(b, ',')
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

func sameMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Pattern) != len(b[i].Pattern) {
			return false
		}
		for j := range a[i].Pattern {
			if a[i].Pattern[j] != b[i].Pattern[j] || a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// TestKeyerMatchesMatchKey pins the fast-path Keyer to the reference
// Match.Key implementation across random graphs.
func TestKeyerMatchesMatchKey(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		pattern := randomGraph(rng, seqIDs(4), 0.8)
		data := randomGraph(rng, seqIDs(7), 0.7)
		var ky *Keyer
		Enumerate(pattern, data, func(m Match) bool {
			if ky == nil {
				ky = NewKeyer(pattern, m.Pattern)
			}
			if got, want := string(ky.KeyBytes(m)), m.Key(pattern, data); got != want {
				t.Fatalf("Keyer.KeyBytes=%q, Match.Key=%q", got, want)
			}
			return true
		})
	}
}
