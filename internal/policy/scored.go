// Table-served selection: the fast path of the MAPA policies.
//
// With the shape's live view and precomputed score table in place, a
// decision never enumerates candidates and never calls score.Scorer
// dynamically. Eq. 1 (AggBW) and Eq. 2 (EffBW) are state-independent —
// pure table lookups — and Eq. 3 decomposes into the view's
// delta-maintained state terms plus the candidate's static
// internal-edge constant, O(k) arithmetic:
//
//	PreservedBW(S) = totalFreeWeight − Σ_{g∈S} freeIncidentWeight(g) + internal(S)
//
// Selection exploits how much of each policy's total order is static:
//
//   - Greedy's entire order (AggBW, EffBW, GPU set, key) is
//     state-independent, so its winner is the first LIVE candidate in
//     the precomputed sorted order — no arithmetic at all.
//   - EffBW- and AggBW-primary orders (sensitive Preserve and the
//     ablations) have a static primary: the first live candidate in the
//     primary-sorted order pins the winning score group — whose extent
//     is precomputed alongside the order (score.ModelTable.AggGroups/
//     EffGroups) — and only that group's live members pay the O(k)
//     Eq. 3 tie-break, with no per-group temporary slices.
//   - PreservedBW-primary orders (insensitive Preserve) stream an
//     argmax over the live bitset with O(k) arithmetic per candidate,
//     resolving the selection order once per decision and computing the
//     secondary metric only on primary ties.
//
// Every strategy applies the same total order as the dynamic comparator
// (beats) — primary, secondary, lexicographic GPU set, canonical key —
// so decisions are byte-identical to allocateSearch's (all link
// bandwidths are integral, making the delta-maintained sums exact).
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
			p.scoredAllocationInto(buf, bw, tbl, order, best)
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
	if truncated {
		// A binding cap admits only the first maxCandidates live
		// candidates in enumeration order — the exact prefix a capped
		// search would materialize — so the static orders (which ignore
		// enumeration order) do not apply; stream the capped prefix.
		return p.scoredArgmax(lv, bw, tbl, mt, req, p.maxCandidates), true
	}
	r := p.rank(req)
	switch r[0] {
	case metricAggBW:
		if r[1] == metricEffBW {
			// Greedy: AggOrder embodies the full total order, so the
			// first live candidate is the winner outright.
			return firstLive(lv, mt.AggOrder()), true
		}
		ord, ends := mt.AggGroups()
		return p.scoredGroupArgmax(lv, bw, tbl, mt, req, ord, ends), true
	case metricEffBW:
		ord, ends := mt.EffGroups()
		return p.scoredGroupArgmax(lv, bw, tbl, mt, req, ord, ends), true
	default:
		return p.scoredArgmax(lv, bw, tbl, mt, req, 0), true
	}
}

// firstLive returns the first live candidate in the given order. The
// caller guarantees at least one candidate is live.
func firstLive(lv *match.LiveView, ord []int32) int {
	for _, i := range ord {
		if lv.Live(int(i)) {
			return int(i)
		}
	}
	panic("policy: no live candidate despite non-empty live view")
}

// scoredScores assembles the full score bundle of candidate i from the
// table and the stream's bandwidth accounting.
func scoredScores(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, i int) score.Scores {
	return score.Scores{
		AggBW:       tbl.AggBW(i),
		EffBW:       mt.EffBW(i),
		PreservedBW: bw.PreservedBW(tbl.Internal(i), tbl.GPUs(i)),
		Mix:         tbl.Mix(i),
	}
}

// scoredMetric evaluates one selection-order dimension of candidate i —
// a table lookup for the static metrics, Eq. 3 delta arithmetic for
// PreservedBW. Direct dispatch on the metric tag keeps the comparison
// loops free of method values and closures (both of which allocate).
func scoredMetric(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, m metric, i int) float64 {
	switch m {
	case metricAggBW:
		return tbl.AggBW(i)
	case metricEffBW:
		return mt.EffBW(i)
	default:
		return bw.PreservedBW(tbl.Internal(i), tbl.GPUs(i))
	}
}

// scoredTieBreak reports whether candidate i strictly precedes the
// current best under the order's static tail: lexicographic GPU set,
// then canonical key. The caller has already established equal primary
// and secondary metrics.
func scoredTieBreak(tbl *score.Table, i, best int) bool {
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

// scoredArgmax streams the live candidates in enumeration order —
// truncated to the first max when max > 0, matching a capped search's
// prefix — and returns the argmax under the policy's total
// order. The selection order is resolved once, the live bitset is
// walked word-wise, and each candidate pays one primary-metric
// evaluation; the secondary metric is computed only on primary ties
// (lazily for the incumbent, memoized while it stands). This is the
// profile-guided fix for the insensitive-Preserve outlier: the former
// per-candidate full score assembly and per-comparison rank resolution
// dominated the 2.98 ms group-scan decision.
func (p *mapaPolicy) scoredArgmax(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, req Request, max int) int {
	r := p.rank(req)
	if r[0] == metricPreservedBW {
		return p.scoredArgmaxPreserved(lv, bw, tbl, mt, r[1], max)
	}
	best := -1
	var bestP, bestS float64
	hasBestS := false
	n := 0
	for wi, w := range lv.LiveSet() {
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if best < 0 {
				best = i
				bestP = scoredMetric(bw, tbl, mt, r[0], i)
			} else if pi := scoredMetric(bw, tbl, mt, r[0], i); pi > bestP {
				best, bestP, hasBestS = i, pi, false
			} else if pi == bestP {
				if !hasBestS {
					bestS = scoredMetric(bw, tbl, mt, r[1], best)
					hasBestS = true
				}
				si := scoredMetric(bw, tbl, mt, r[1], i)
				if si > bestS || (si == bestS && scoredTieBreak(tbl, i, best)) {
					best, bestS = i, si
				}
			}
			n++
			if max > 0 && n == max {
				return best
			}
		}
	}
	return best
}

// scoredArgmaxPreserved is scoredArgmax specialized for a PreservedBW
// primary — the insensitive-Preserve hot loop over the full ~57k-strong
// live set. Eq. 3 is evaluated inline against the accounting's incident
// view with the exact operand order of BandwidthAccounting.PreservedBW
// (all weights integral, so the sums are exact and the values bit-equal),
// eliminating the per-candidate dispatch and method-call chain the
// generic loop pays. The secondary metric is a static table lookup
// computed only on primary ties.
func (p *mapaPolicy) scoredArgmaxPreserved(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric, max int) int {
	inc := bw.IncidentView()
	tot := bw.FreeWeight()
	best := -1
	var bestP, bestS float64
	hasBestS := false
	n := 0
	for wi, w := range lv.LiveSet() {
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			var drop float64
			for _, g := range tbl.GPUs(i) {
				drop += inc[g]
			}
			pi := tot - drop + tbl.Internal(i)
			if pi > bestP || best < 0 {
				best, bestP, hasBestS = i, pi, false
			} else if pi == bestP {
				if !hasBestS {
					bestS = scoredMetric(bw, tbl, mt, sec, best)
					hasBestS = true
				}
				si := scoredMetric(bw, tbl, mt, sec, i)
				if si > bestS || (si == bestS && scoredTieBreak(tbl, i, best)) {
					best, bestS = i, si
				}
			}
			n++
			if max > 0 && n == max {
				return best
			}
		}
	}
	return best
}

// scoredGroupArgmax serves a static-primary order: ord is sorted by the
// primary metric descending with ends its precomputed group-boundary
// index (ends[j] = exclusive end of position j's equal-primary run), so
// the first live candidate pins the winning group and the winner is the
// argmax — under the full total order — among the group's live members.
// Primary values inside the group are exactly equal by construction, so
// only the secondary metric's O(k) arithmetic and the static tie-breaks
// run, over one precomputed index range with no temporary slices.
func (p *mapaPolicy) scoredGroupArgmax(lv *match.LiveView, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, req Request, ord, ends []int32) int {
	j0 := 0
	for ; j0 < len(ord); j0++ {
		if lv.Live(int(ord[j0])) {
			break
		}
	}
	if j0 == len(ord) {
		panic("policy: no live candidate despite non-empty live view")
	}
	r := p.rank(req)
	best := int(ord[j0])
	bestS := scoredMetric(bw, tbl, mt, r[1], best)
	for j := j0 + 1; j < int(ends[j0]); j++ {
		i := int(ord[j])
		if !lv.Live(i) {
			continue
		}
		si := scoredMetric(bw, tbl, mt, r[1], i)
		if si > bestS || (si == bestS && scoredTieBreak(tbl, i, best)) {
			best, bestS = i, si
		}
	}
	return best
}

// scoredAllocationInto packages the winning candidate into buf by
// truncate-and-append: GPU set, match pattern (re-expressed through the
// isomorphic order remap when present), and match data land in buf's
// reused backing arrays, scores are assembled from the table and the
// view's bandwidth accounting. The values written are identical to
// what allocateSearch returns for the same candidate.
func (p *mapaPolicy) scoredAllocationInto(buf *Allocation, bw *match.BandwidthAccounting, tbl *score.Table, order []int, best int) {
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
	buf.Scores = scoredScores(bw, tbl, mt, best)
	buf.key = u.Key(best)
}
