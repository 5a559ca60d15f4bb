// Table-served selection: the fast path of the MAPA policies.
//
// With the shape's live view and precomputed score table in place, a
// decision never enumerates candidates and never calls score.Scorer
// dynamically. Eq. 1 (AggBW) and Eq. 2 (EffBW) are state-independent —
// pure table lookups — and Eq. 3 decomposes into the view's
// delta-maintained state terms plus the GPU set's static internal-edge
// constant, O(k) arithmetic:
//
//	PreservedBW(S) = totalFreeWeight − Σ_{g∈S} freeIncidentWeight(g) + internal(S)
//
// Selection is an argmax over live GPU sets; the embedding is a static
// per-set choice. Every selection order is lexicographic — primary
// metric, secondary metric, GPU set, canonical key — and the embeddings
// of one set tie on EffBW, PreservedBW and the GPU set, differing only
// in AggBW and the key. So within a set the order's winner is static:
// the set's AggBW representative (maximum AggBW, then minimum key) when
// the order ranks AggBW, its key representative (minimum key)
// otherwise. The overall winner is the best representative of a live
// set, and since distinct sets differ in their GPU sets, comparing sets
// never reaches the key. The walk therefore visits each live set once,
// however many embeddings share it.
//
// Selection also exploits how much of each policy's order is static:
//
//   - Greedy's entire order (AggBW, EffBW, GPU set) is
//     state-independent, so its winner is the representative of the
//     first LIVE set in the precomputed sorted order — no arithmetic.
//   - EffBW- and AggBW-primary orders (sensitive Preserve and the
//     ablations) have a static primary: the first live set in the
//     primary-sorted order pins the winning score group — whose extent
//     is precomputed alongside the order (score.ModelTable.AggGroups/
//     EffGroups) — and only that group's live sets pay the O(k) Eq. 3
//     tie-break, with no per-group temporary slices.
//   - PreservedBW-primary orders (insensitive Preserve) stream an
//     argmax over the live-set bitset with O(k) arithmetic per set,
//     computing the secondary metric only on primary ties.
//
// Decisions are byte-identical to allocateSearch's (all link
// bandwidths are integral, making the delta-maintained sums exact).
// Only a binding candidate cap needs individual embeddings: the capped
// prefix is a prefix of the enumeration, so that one path streams
// candidates in enumeration order.
//
// The whole path allocates nothing: candidates are table lookups,
// comparisons are plain float/slice reads, and the winner lands in a
// caller-supplied Allocation buffer (AllocateInto) via in-place
// appends. testing.AllocsPerRun gates in decision_alloc_test.go pin 0
// allocs/op for all four policies.
package policy

import (
	"math/bits"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
)

// allocateScoredInto serves the decision from the shape's live view and
// score table, writing the winner into buf: its slices are truncated
// and refilled in place, so a caller reusing one buffer across
// decisions allocates nothing once the slices have grown to the request
// size. served is false when the view set declines (see
// matchcache.Views.SelectLive) and the caller must search.
func (p *mapaPolicy) allocateScoredInto(buf *Allocation, usable graph.Bitset, req Request) (err error, served bool) {
	served = p.views.SelectLive(req.Pattern, usable, p.maxCandidates, p.workers,
		func(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, order []int, truncated bool) {
			best, ok := p.pickScored(lv, bw, tbl, req, truncated)
			if !ok {
				err = ErrNoAllocation
				return
			}
			p.scoredAllocationInto(buf, bw, tbl, order, best, 0, 0)
		})
	return err, served
}

// pickScored selects the winning universe index among the live
// candidates, dispatching on how static the request's selection order
// is. ok is false when no candidate is live.
func (p *mapaPolicy) pickScored(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, req Request, truncated bool) (int, bool) {
	if lv.Len() == 0 {
		return 0, false
	}
	mt := tbl.ForModel(p.scorer.Model)
	r := p.rank(req)
	if truncated {
		// A binding cap admits only the first maxCandidates live
		// candidates in enumeration order — the exact prefix a capped
		// search would materialize — so the static orders (which ignore
		// enumeration order) do not apply; stream the capped prefix.
		return scoredArgmaxCapped(lv, bw, tbl, mt, r, p.maxCandidates), true
	}
	var s int
	switch r[0] {
	case metricAggBW:
		ord, ends := mt.AggGroups()
		if r[1] == metricEffBW {
			// Greedy: the order embodies the full total order, so the
			// first live set holds the winner outright.
			s = firstLive(lv, ord)
		} else {
			s = scoredGroupArgmax(lv, bw, tbl, mt, r[1], ord, ends)
		}
	case metricEffBW:
		ord, ends := mt.EffGroups()
		s = scoredGroupArgmax(lv, bw, tbl, mt, r[1], ord, ends)
	default:
		s = scoredArgmaxPreserved(lv, bw, tbl, mt, r[1])
	}
	if r[0] == metricAggBW || r[1] == metricAggBW {
		return tbl.AggRep(s), true
	}
	return tbl.KeyRep(s), true
}

// firstLive returns the first live set in the given order. The caller
// guarantees at least one set is live.
func firstLive(lv *match.LiveView, ord []int32) int {
	live := lv.LiveSets()
	for _, s := range ord {
		if live.Has(int(s)) {
			return int(s)
		}
	}
	panic("policy: no live set despite non-empty live view")
}

// setMetric evaluates one selection-order dimension of GPU set s — a
// table lookup for the static metrics (AggBW: the set's AggBW
// representative's), Eq. 3 delta arithmetic for PreservedBW. Direct
// dispatch on the metric tag keeps the comparison loops free of method
// values and closures (both of which allocate).
func setMetric(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, m metric, s int) float64 {
	switch m {
	case metricAggBW:
		return tbl.SetAggBW(s)
	case metricEffBW:
		return mt.SetEffBW(s)
	default:
		return bw.PreservedBW(tbl.SetInternal(s), tbl.SetGPUs(s))
	}
}

// candidateMetric is setMetric for one embedding: only AggBW differs
// from its set's value. shift is added to PreservedBW — a fleet node's
// constant translating the node-local Eq. 3 value to the fleet-global
// one, 0 on a flat machine.
func candidateMetric(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, m metric, i int, shift float64) float64 {
	if m == metricAggBW {
		return tbl.AggBW(i)
	}
	v := setMetric(bw, tbl, mt, m, tbl.Universe().SetOf(i))
	if m == metricPreservedBW {
		v += shift
	}
	return v
}

// scoredArgmaxCapped streams the first max live candidates in
// enumeration order — a capped search's prefix — and returns the
// argmax under the total order r: primary, secondary, GPU set, key.
// The secondary metric is computed only on primary ties (lazily for the
// incumbent, memoized while it stands).
func scoredArgmaxCapped(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, r [2]metric, max int) int {
	best := -1
	var bestP, bestS float64
	hasBestS := false
	for i, n := 0, 0; n < max && i < tbl.Len(); i++ {
		if !lv.Live(i) {
			continue
		}
		n++
		pi := candidateMetric(bw, tbl, mt, r[0], i, 0)
		if best < 0 || pi > bestP {
			best, bestP, hasBestS = i, pi, false
			continue
		}
		if pi < bestP {
			continue
		}
		if !hasBestS {
			bestS = candidateMetric(bw, tbl, mt, r[1], best, 0)
			hasBestS = true
		}
		si := candidateMetric(bw, tbl, mt, r[1], i, 0)
		if si > bestS || (si == bestS && candidateTieBreak(tbl, i, best)) {
			best, bestS = i, si
		}
	}
	return best
}

// candidateTieBreak reports whether candidate i strictly precedes the
// current best under the order's static tail: lexicographic GPU set,
// then canonical key. The caller has already established equal primary
// and secondary metrics.
func candidateTieBreak(tbl *score.Table, i, best int) bool {
	gi, gb := tbl.GPUs(i), tbl.GPUs(best)
	if lexLess(gi, gb) {
		return true
	}
	if lexLess(gb, gi) {
		return false
	}
	u := tbl.Universe()
	return u.Key(i) < u.Key(best)
}

// scoredArgmaxPreserved is the argmax over live sets for a PreservedBW
// primary — the insensitive-Preserve hot loop. Eq. 3 is evaluated
// inline against the accounting's incident view with the exact operand
// order of BandwidthAccounting.PreservedBW (all weights integral, so
// the sums are exact and the values bit-equal), reading the set-indexed
// columns directly. The secondary metric is a static table lookup
// computed only on primary ties, and equal sets are told apart by their
// GPU lists.
func scoredArgmaxPreserved(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric) int {
	inc := bw.IncidentView()
	tot := bw.FreeWeight()
	best := -1
	var bestP, bestS float64
	hasBestS := false
	for wi, w := range lv.LiveSets() {
		base := wi * 64
		for w != 0 {
			s := base + bits.TrailingZeros64(w)
			w &= w - 1
			var drop float64
			for _, g := range tbl.SetGPUs(s) {
				drop += inc[g]
			}
			ps := tot - drop + tbl.SetInternal(s)
			if ps > bestP || best < 0 {
				best, bestP, hasBestS = s, ps, false
			} else if ps == bestP {
				if !hasBestS {
					bestS = setMetric(bw, tbl, mt, sec, best)
					hasBestS = true
				}
				ss := setMetric(bw, tbl, mt, sec, s)
				if ss > bestS || (ss == bestS && lexLess(tbl.SetGPUs(s), tbl.SetGPUs(best))) {
					best, bestS = s, ss
				}
			}
		}
	}
	return best
}

// scoredGroupArgmax serves a static-primary order: ord is sorted by the
// primary metric descending with ends its precomputed group-boundary
// index (ends[j] = exclusive end of position j's equal-primary run), so
// the first live set pins the winning group and the winner is the
// argmax — under the secondary metric, then the GPU set — among the
// group's live sets. Primary values inside the group are exactly equal
// by construction, so only the secondary metric's O(k) arithmetic and
// the static tie-break run, over one precomputed index range with no
// temporary slices.
func scoredGroupArgmax(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric, ord, ends []int32) int {
	live := lv.LiveSets()
	j0 := 0
	for ; j0 < len(ord); j0++ {
		if live.Has(int(ord[j0])) {
			break
		}
	}
	if j0 == len(ord) {
		panic("policy: no live set despite non-empty live view")
	}
	best := int(ord[j0])
	bestS := setMetric(bw, tbl, mt, sec, best)
	for j := j0 + 1; j < int(ends[j0]); j++ {
		s := int(ord[j])
		if !live.Has(s) {
			continue
		}
		ss := setMetric(bw, tbl, mt, sec, s)
		if ss > bestS || (ss == bestS && lexLess(tbl.SetGPUs(s), tbl.SetGPUs(best))) {
			best, bestS = s, ss
		}
	}
	return best
}

// scoredAllocationInto packages the winning candidate into buf by
// truncate-and-append: GPU set, match pattern (re-expressed through the
// isomorphic order remap when present), and match data land in buf's
// reused backing arrays, scores are assembled from the table and the
// view's bandwidth accounting. off and shift place a fleet node's
// winner in fleet-global terms — off is added to every GPU ID, shift to
// PreservedBW — and are 0 on a flat machine. The values written are
// identical to what allocateSearch returns for the same candidate (on
// the flattened machine, for a fleet node); the match key stays in
// template-local IDs, as it never leaves the policy.
func (p *mapaPolicy) scoredAllocationInto(buf *Allocation, bw *match.BandwidthAccounting, tbl *score.Table, order []int, best, off int, shift float64) {
	u := tbl.Universe()
	m := u.Match(best)
	pat := m.Pattern
	if order != nil {
		pat = order
	}
	mt := tbl.ForModel(p.scorer.Model)
	buf.GPUs = append(buf.GPUs[:0], tbl.GPUs(best)...)
	buf.Match.Pattern = append(buf.Match.Pattern[:0], pat...)
	buf.Match.Data = append(buf.Match.Data[:0], m.Data...)
	for i := range buf.GPUs {
		buf.GPUs[i] += off
	}
	for i := range buf.Match.Data {
		buf.Match.Data[i] += off
	}
	buf.Scores = score.Scores{
		AggBW:       tbl.AggBW(best),
		EffBW:       mt.EffBW(best),
		PreservedBW: bw.PreservedBW(tbl.Internal(best), tbl.GPUs(best)) + shift,
		Mix:         tbl.Mix(best),
	}
	buf.key = u.Key(best)
}
