package score

import (
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// FuzzClosedFormUniverse pins the closed form against the search on
// random machines: a complete graph on up to 10 GPUs with random link
// classes and IDs that may cross from one decimal digit to two (where
// key order and numeric order part), and a random connected pattern on
// up to 5 vertices. The symmetry-broken search's embeddings, grouped by
// GPU set in lexicographic order with each set's embeddings in emission
// order, must be the closed form's candidates one for one, and every
// set's KeyRep and AggRep must be its brute-force minimum-key and
// maximum-AggBW (ties to the minimum key) embeddings, priced by the
// dynamic evaluators.
func FuzzClosedFormUniverse(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(3), uint8(0), uint8(0), uint8(128))
	f.Add(int64(2), uint8(9), uint8(4), uint8(2), uint8(5), uint8(255))
	f.Add(int64(3), uint8(5), uint8(2), uint8(1), uint8(7), uint8(64))
	f.Add(int64(4), uint8(8), uint8(5), uint8(3), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, stepRaw, baseRaw, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%10
		k := 1 + int(kRaw)%min(5, n)
		step, base := 1+int(stepRaw)%4, int(baseRaw)%12
		links := []topology.LinkType{topology.LinkPCIe, topology.LinkNVLink1, topology.LinkNVLink2, topology.LinkNVLink2x2, topology.LinkNVSwitch}
		g := graph.New()
		g.AddVertex(base)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				lt := links[rng.Intn(len(links))]
				g.MustAddEdge(base+i*step, base+j*step, lt.Bandwidth(), int(lt))
			}
		}
		top := &topology.Topology{Name: "fuzz", Graph: g, Physical: g}
		pattern := graph.New()
		pattern.AddVertex(0)
		for v := 1; v < k; v++ {
			pattern.MustAddEdge(v, rng.Intn(v), 1, 0)
			for u := 0; u < v; u++ {
				if rng.Intn(256) < int(density) {
					pattern.MustAddEdge(v, u, 1, 0)
				}
			}
		}
		u := match.BuildUniverse(pattern, g, 0)
		if !u.Complete() {
			t.Fatalf("universe of %v on K%d incomplete", pattern.Edges(), n)
		}
		tbl := BuildTable(top, pattern, u)

		ms := match.FindAllDeduped(pattern, g)
		sets := make([][]int, len(ms))
		for i, m := range ms {
			sets[i] = m.DataVertices()
		}
		idx := make([]int, len(ms))
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return slices.Compare(sets[a], sets[b]) })
		if len(idx) != u.Len() {
			t.Fatalf("%v on K%d: the search finds %d embeddings, the closed form %d sets × %d", pattern.Edges(), n, len(idx), u.Sets(), u.Perms())
		}
		for i, j := range idx {
			got := embedding(tbl, i/u.Perms(), i%u.Perms())
			if !slices.Equal(got.Pattern, ms[j].Pattern) || !slices.Equal(got.Data, ms[j].Data) {
				t.Fatalf("%v on K%d candidate %d: closed form %v->%v, search %v->%v", pattern.Edges(), n, i, got.Pattern, got.Data, ms[j].Pattern, ms[j].Data)
			}
		}

		for s := 0; s < u.Sets(); s++ {
			keyRep, aggRep := 0, 0
			var minKey, aggKey string
			var best float64
			for p := 0; p < u.Perms(); p++ {
				m := embedding(tbl, s, p)
				key, agg := m.Key(pattern, g), AggregatedBandwidth(pattern, g, m)
				if p == 0 || key < minKey {
					keyRep, minKey = p, key
				}
				if p == 0 || agg > best || (agg == best && key < aggKey) {
					aggRep, best, aggKey = p, agg, key
				}
				if tbl.AggBW(s, p) != agg {
					t.Fatalf("set %v embedding %d: AggBW %v, dynamic %v", tbl.SetGPUs(s), p, tbl.AggBW(s, p), agg)
				}
			}
			if tbl.KeyRep(s) != keyRep || tbl.AggRep(s) != aggRep || tbl.SetAggBW(s) != best {
				t.Fatalf("set %v: representatives %d/%d (SetAggBW %v), brute force %d/%d (%v)",
					tbl.SetGPUs(s), tbl.KeyRep(s), tbl.AggRep(s), tbl.SetAggBW(s), keyRep, aggRep, best)
			}
		}
	})
}
