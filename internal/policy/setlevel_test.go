package policy

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// The per-candidate table-served selection, as it was before selection
// walked GPU sets: every embedding is a contestant, the static orders
// sort embeddings, and the live set is a bitset over embedding indices.
// TestSetSelectionMatchesCandidateSelection pins the set-level
// selection against it.

// refCandidateOrders sorts the table's embeddings under the Greedy
// total order (AggBW desc, EffBW desc, GPU set, key) and by EffBW desc
// (stable), each with its equal-primary group ends.
func refCandidateOrders(tbl *score.Table, mt *score.ModelTable) (agg, aggEnds, eff, effEnds []int32) {
	n := tbl.Len()
	u := tbl.Universe()
	aggVals, effVals := make([]float64, n), make([]float64, n)
	agg, eff = make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		aggVals[i], effVals[i] = tbl.AggBW(i), mt.EffBW(i)
		agg[i], eff[i] = int32(i), int32(i)
	}
	sort.Slice(agg, func(a, b int) bool {
		i, j := int(agg[a]), int(agg[b])
		if aggVals[i] != aggVals[j] {
			return aggVals[i] > aggVals[j]
		}
		if effVals[i] != effVals[j] {
			return effVals[i] > effVals[j]
		}
		if lexLess(tbl.GPUs(i), tbl.GPUs(j)) || lexLess(tbl.GPUs(j), tbl.GPUs(i)) {
			return lexLess(tbl.GPUs(i), tbl.GPUs(j))
		}
		return u.Key(i) < u.Key(j)
	})
	sort.SliceStable(eff, func(a, b int) bool { return effVals[eff[a]] > effVals[eff[b]] })
	ends := func(ord []int32, vals []float64) []int32 {
		out := make([]int32, len(ord))
		for s := 0; s < len(ord); {
			e := s + 1
			for e < len(ord) && vals[ord[e]] == vals[ord[s]] {
				e++
			}
			for j := s; j < e; j++ {
				out[j] = int32(e)
			}
			s = e
		}
		return out
	}
	return agg, ends(agg, aggVals), eff, ends(eff, effVals)
}

// refCandidateMetric evaluates one selection-order dimension of
// embedding i.
func refCandidateMetric(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, m metric, i int) float64 {
	switch m {
	case metricAggBW:
		return tbl.AggBW(i)
	case metricEffBW:
		return mt.EffBW(i)
	default:
		return bw.PreservedBW(tbl.Internal(i), tbl.GPUs(i))
	}
}

// refFirstLive returns the first live embedding in the given order.
func refFirstLive(live graph.Bitset, ord []int32) int {
	for _, i := range ord {
		if live.Has(int(i)) {
			return int(i)
		}
	}
	panic("no live candidate")
}

// refScoredGroupArgmax scans the first live equal-primary group of a
// static-primary embedding order.
func refScoredGroupArgmax(live graph.Bitset, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric, ord, ends []int32) int {
	j0 := 0
	for ; j0 < len(ord); j0++ {
		if live.Has(int(ord[j0])) {
			break
		}
	}
	best := int(ord[j0])
	bestS := refCandidateMetric(bw, tbl, mt, sec, best)
	for j := j0 + 1; j < int(ends[j0]); j++ {
		i := int(ord[j])
		if !live.Has(i) {
			continue
		}
		si := refCandidateMetric(bw, tbl, mt, sec, i)
		if si > bestS || (si == bestS && candidateTieBreak(tbl, i, best)) {
			best, bestS = i, si
		}
	}
	return best
}

// refCandidateArgmaxPreserved streams every live embedding for a
// PreservedBW primary.
func refCandidateArgmaxPreserved(live graph.Bitset, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric) int {
	inc := bw.IncidentView()
	tot := bw.FreeWeight()
	best := -1
	var bestP, bestS float64
	hasBestS := false
	for wi, w := range live {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			var drop float64
			for _, g := range tbl.GPUs(i) {
				drop += inc[g]
			}
			pi := tot - drop + tbl.Internal(i)
			if pi > bestP || best < 0 {
				best, bestP, hasBestS = i, pi, false
			} else if pi == bestP {
				if !hasBestS {
					bestS = refCandidateMetric(bw, tbl, mt, sec, best)
					hasBestS = true
				}
				si := refCandidateMetric(bw, tbl, mt, sec, i)
				if si > bestS || (si == bestS && candidateTieBreak(tbl, i, best)) {
					best, bestS = i, si
				}
			}
		}
	}
	return best
}

// refPick is the per-candidate dispatch of an uncapped table-served
// decision.
func refPick(p *mapaPolicy, live graph.Bitset, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, req Request, agg, aggEnds, eff, effEnds []int32) int {
	r := p.rank(req)
	switch r[0] {
	case metricAggBW:
		if r[1] == metricEffBW {
			return refFirstLive(live, agg)
		}
		return refScoredGroupArgmax(live, bw, tbl, mt, r[1], agg, aggEnds)
	case metricEffBW:
		return refScoredGroupArgmax(live, bw, tbl, mt, r[1], eff, effEnds)
	default:
		return refCandidateArgmaxPreserved(live, bw, tbl, mt, r[1])
	}
}

// TestSetSelectionMatchesCandidateSelection compares the set-level
// table-served selection (pickScored on a stream's accounting) with the
// per-candidate selection above, whose live set comes straight from
// Universe.Filter: on random availability masks from nearly idle to
// nearly full, for every policy and sensitivity, the two must choose
// the same embedding — GPUs, match, every score bit and the key. The
// machines cover every shape at sizes 2–5 on four single servers, where
// sets with several embeddings of differing AggBW are the rule, plus
// the 72-GPU cluster's Chain(3), three embeddings on each of 59,640
// sets across two mask words.
func TestSetSelectionMatchesCandidateSelection(t *testing.T) {
	const masks = 300
	type tc struct {
		top    string
		shapes []*graph.Graph
	}
	var cases []tc
	for _, name := range []string{"dgx-v100", "dgx-a100", "torus-2d", "cubemesh-16"} {
		cases = append(cases, tc{name, appgraph.AllShapes(5)})
	}
	cases = append(cases, tc{"cluster-a100", []*graph.Graph{appgraph.Chain(3)}})
	scorer := score.NewScorer(nil)
	var policies []*mapaPolicy
	for _, name := range Names() {
		a, err := ByName(name, scorer)
		if err != nil {
			t.Fatal(err)
		}
		// Baseline and TopoAware rank GPU IDs and never consult a view.
		if p, ok := a.(*mapaPolicy); ok {
			policies = append(policies, p)
		}
	}
	for _, c := range cases {
		t.Run(c.top, func(t *testing.T) {
			top, err := topology.ByName(c.top)
			if err != nil {
				t.Fatal(err)
			}
			gpus := top.GPUs()
			capacity := graph.Capacity(top.Graph)
			rng := rand.New(rand.NewSource(int64(len(c.top))))
			seen := make(map[string]bool)
			for _, shape := range c.shapes {
				// Isomorphic builds (Chain(3), Star(3), Tree(3)) share one
				// universe; test each class once.
				if form, _ := shape.CanonicalForm(); seen[form] {
					continue
				} else {
					seen[form] = true
				}
				u := match.BuildUniverse(shape, top.Graph, 0, 2)
				tbl := score.BuildTable(top, shape, u, 2)
				mt := tbl.ForModel(scorer.Model)
				agg, aggEnds, eff, effEnds := refCandidateOrders(tbl, mt)
				for m := 0; m < masks; m++ {
					density := rng.Float64()
					usable := graph.NewBitset(capacity)
					for _, g := range gpus {
						if rng.Float64() < density {
							usable.Set(g)
						}
					}
					bw := match.NewBandwidthAccounting(top.Graph, usable, capacity)
					idx, _ := u.Filter(usable, 0)
					live := graph.NewBitset(u.Len())
					for _, i := range idx {
						live.Set(i)
					}
					for _, p := range policies {
						for _, sensitive := range []bool{true, false} {
							req := Request{Pattern: shape, Sensitive: sensitive}
							label := fmt.Sprintf("%v mask %d %s sensitive=%v", shape.Edges(), m, p.name, sensitive)
							got, ok := p.pickScored(bw, tbl, req, false)
							if ok != (len(idx) > 0) {
								t.Fatalf("%s: served=%v with %d live candidates", label, ok, len(idx))
							}
							if !ok {
								continue
							}
							want := refPick(p, live, bw, tbl, mt, req, agg, aggEnds, eff, effEnds)
							var ga, wa Allocation
							p.scoredAllocationInto(&ga, bw, tbl, nil, got, 0, 0)
							p.scoredAllocationInto(&wa, bw, tbl, nil, want, 0, 0)
							if !sameDecision(ga, wa) || ga.key != wa.key {
								t.Fatalf("%s: set-level selection diverged:\n got %d %+v key %q\nwant %d %+v key %q",
									label, got, ga, ga.key, want, wa, wa.key)
							}
						}
					}
				}
			}
		})
	}
}
