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

// refCandidates lists the table's embeddings set-major, as the
// universe numbers them: candidate i is embedding (i / P, i % P) with
// its AggBW and canonical key.
type refCandidates struct {
	tbl  *score.Table
	agg  []float64
	keys []string
}

func newRefCandidates(tbl *score.Table, pattern *graph.Graph) *refCandidates {
	u := tbl.Universe()
	rc := &refCandidates{tbl: tbl, agg: make([]float64, u.Len()), keys: make([]string, u.Len())}
	ky := match.NewKeyer(pattern, u.Order())
	for i := range rc.agg {
		s, p := rc.split(i)
		rc.agg[i] = tbl.AggBW(s, p)
		rc.keys[i] = string(ky.KeyBytes(match.Match{Pattern: u.Order(), Data: embed(tbl, s, p)}))
	}
	return rc
}

// split returns candidate i's set and permutation.
func (rc *refCandidates) split(i int) (s, p int) {
	P := rc.tbl.Universe().Perms()
	return i / P, i % P
}

func (rc *refCandidates) gpus(i int) []int {
	s, _ := rc.split(i)
	return rc.tbl.SetGPUs(s)
}

// embed returns embedding (s, p): set s's GPUs composed with
// permutation p.
func embed(tbl *score.Table, s, p int) []int {
	var data []int
	for _, q := range tbl.Universe().Perm(p) {
		data = append(data, tbl.SetGPUs(s)[q])
	}
	return data
}

// tieBreak reports whether candidate i strictly precedes best under
// the order's static tail: lexicographic GPU set, then canonical key.
func (rc *refCandidates) tieBreak(i, best int) bool {
	gi, gb := rc.gpus(i), rc.gpus(best)
	if lexLess(gi, gb) {
		return true
	}
	if lexLess(gb, gi) {
		return false
	}
	return rc.keys[i] < rc.keys[best]
}

// refCandidateOrders sorts the table's embeddings under the Greedy
// total order (AggBW desc, EffBW desc, GPU set, key) and by EffBW desc
// (stable), each with its equal-primary group ends.
func refCandidateOrders(rc *refCandidates, mt *score.ModelTable) (agg, aggEnds, eff, effEnds []int32) {
	n := len(rc.agg)
	aggVals, effVals := rc.agg, make([]float64, n)
	agg, eff = make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		s, _ := rc.split(i)
		effVals[i] = mt.SetEffBW(s)
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
		return rc.tieBreak(i, j)
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
func refCandidateMetric(bw *match.BandwidthAccounting, rc *refCandidates, mt *score.ModelTable, m metric, i int) float64 {
	s, _ := rc.split(i)
	switch m {
	case metricAggBW:
		return rc.agg[i]
	case metricEffBW:
		return mt.SetEffBW(s)
	default:
		return bw.PreservedBW(rc.tbl.SetInternal(s), rc.tbl.SetGPUs(s))
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
func refScoredGroupArgmax(live graph.Bitset, bw *match.BandwidthAccounting, rc *refCandidates, mt *score.ModelTable, sec metric, ord, ends []int32) int {
	j0 := 0
	for ; j0 < len(ord); j0++ {
		if live.Has(int(ord[j0])) {
			break
		}
	}
	best := int(ord[j0])
	bestS := refCandidateMetric(bw, rc, mt, sec, best)
	for j := j0 + 1; j < int(ends[j0]); j++ {
		i := int(ord[j])
		if !live.Has(i) {
			continue
		}
		si := refCandidateMetric(bw, rc, mt, sec, i)
		if si > bestS || (si == bestS && rc.tieBreak(i, best)) {
			best, bestS = i, si
		}
	}
	return best
}

// refCandidateArgmaxPreserved streams every live embedding for a
// PreservedBW primary.
func refCandidateArgmaxPreserved(live graph.Bitset, bw *match.BandwidthAccounting, rc *refCandidates, mt *score.ModelTable, sec metric) int {
	inc := bw.IncidentView()
	tot := bw.FreeWeight()
	best := -1
	var bestP, bestS float64
	hasBestS := false
	for wi, w := range live {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			var drop float64
			s, _ := rc.split(i)
			for _, g := range rc.gpus(i) {
				drop += inc[g]
			}
			pi := tot - drop + rc.tbl.SetInternal(s)
			if pi > bestP || best < 0 {
				best, bestP, hasBestS = i, pi, false
			} else if pi == bestP {
				if !hasBestS {
					bestS = refCandidateMetric(bw, rc, mt, sec, best)
					hasBestS = true
				}
				si := refCandidateMetric(bw, rc, mt, sec, i)
				if si > bestS || (si == bestS && rc.tieBreak(i, best)) {
					best, bestS = i, si
				}
			}
		}
	}
	return best
}

// refPick is the per-candidate dispatch of an uncapped table-served
// decision.
func refPick(p *mapaPolicy, live graph.Bitset, bw *match.BandwidthAccounting, rc *refCandidates, mt *score.ModelTable, req Request, agg, aggEnds, eff, effEnds []int32) int {
	r := p.rank(req)
	switch r[0] {
	case metricAggBW:
		if r[1] == metricEffBW {
			return refFirstLive(live, agg)
		}
		return refScoredGroupArgmax(live, bw, rc, mt, r[1], agg, aggEnds)
	case metricEffBW:
		return refScoredGroupArgmax(live, bw, rc, mt, r[1], eff, effEnds)
	default:
		return refCandidateArgmaxPreserved(live, bw, rc, mt, r[1])
	}
}

// TestSetSelectionMatchesCandidateSelection compares the set-level
// table-served selection (pickScored on a stream's accounting) with the
// per-candidate selection above, whose live set is every embedding on
// a usable GPU set: on random availability masks from nearly idle to
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
				u := match.BuildUniverse(shape, top.Graph, 0)
				tbl := score.BuildTable(top, shape, u, 2)
				mt := tbl.ForModel(scorer.Model)
				rc := newRefCandidates(tbl, shape)
				agg, aggEnds, eff, effEnds := refCandidateOrders(rc, mt)
				for m := 0; m < masks; m++ {
					density := rng.Float64()
					usable := graph.NewBitset(capacity)
					for _, g := range gpus {
						if rng.Float64() < density {
							usable.Set(g)
						}
					}
					bw := match.NewBandwidthAccounting(top.Graph, usable, capacity)
					var idx []int
					live := graph.NewBitset(u.Len())
					for i := 0; i < u.Len(); i++ {
						if liveSet(usable, rc.gpus(i)) {
							idx = append(idx, i)
							live.Set(i)
						}
					}
					for _, p := range policies {
						for _, sensitive := range []bool{true, false} {
							req := Request{Pattern: shape, Sensitive: sensitive}
							label := fmt.Sprintf("%v mask %d %s sensitive=%v", shape.Edges(), m, p.name, sensitive)
							got, ok := p.pickScored(bw, tbl, req)
							if ok != (len(idx) > 0) {
								t.Fatalf("%s: served=%v with %d live candidates", label, ok, len(idx))
							}
							if !ok {
								continue
							}
							want := refPick(p, live, bw, rc, mt, req, agg, aggEnds, eff, effEnds)
							ws, wp := rc.split(want)
							var ga, wa Allocation
							p.scoredAllocationInto(&ga, bw, tbl, nil, got, p.rep(tbl, req, got), 0, 0)
							p.scoredAllocationInto(&wa, bw, tbl, nil, ws, wp, 0, 0)
							if gk, wk := ga.Match.Key(shape, top.Graph), wa.Match.Key(shape, top.Graph); !sameDecision(ga, wa) || gk != wk {
								t.Fatalf("%s: set-level selection diverged:\n got set %d %+v key %q\nwant %d %+v key %q",
									label, got, ga, gk, want, wa, wk)
							}
						}
					}
				}
			}
		})
	}
}

// liveSet reports whether every GPU of a set is usable.
func liveSet(usable graph.Bitset, gpus []int) bool {
	for _, g := range gpus {
		if !usable.Has(g) {
			return false
		}
	}
	return true
}
