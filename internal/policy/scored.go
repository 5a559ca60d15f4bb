// Table-served selection: the fast path of the MAPA policies.
//
// With the shape's precomputed score table and the stream's bandwidth
// accounting in place, a decision never enumerates candidates and
// never calls score.Scorer dynamically. Eq. 1 (AggBW) and Eq. 2
// (EffBW) are state-independent — pure table lookups — and Eq. 3
// decomposes into the accounting's delta-maintained state terms plus
// the GPU set's static internal-edge constant, O(k) arithmetic:
//
//	PreservedBW(S) = totalFreeWeight − Σ_{g∈S} freeIncidentWeight(g) + internal(S)
//
// Liveness is read off the accounting's usable mask: machine graphs are
// complete, so a GPU set hosts a live embedding exactly when its GPUs
// are all usable, and some set is live exactly when at least k GPUs
// are.
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
// never reaches the key.
//
// Selection also exploits how much of each policy's order is static:
//
//   - Greedy's entire order (AggBW, EffBW, GPU set) is
//     state-independent, so its winner is the representative of the
//     first LIVE set in the precomputed sorted order — k bit tests per
//     set passed over, no arithmetic.
//   - EffBW- and AggBW-primary orders (sensitive Preserve and the
//     ablations) have a static primary: the first live set in the
//     primary-sorted order pins the winning score group — whose extent
//     is precomputed alongside the order (score.ModelTable.AggGroups/
//     EffGroups) — and only that group's live sets pay the O(k) Eq. 3
//     tie-break, with no per-group temporary slices.
//   - PreservedBW-primary orders (insensitive Preserve) run a bounded
//     walk over the usable GPUs (preservedArgmax) that visits only the
//     sets that can still tie or beat the best found so far, and reach
//     the table — the set's rank, the secondary metric — only for the
//     sets that do.
//
// Decisions are byte-identical to allocateSearch's (all link
// bandwidths are integral, making the delta-maintained sums exact). A
// binding candidate cap is the one case the table does not serve: the
// capped candidates are a prefix of the search's emission order, so the
// view set declines and the search decides (matchcache.Views.SelectLive).
//
// The whole path allocates nothing: candidates are table lookups,
// comparisons are plain float/slice reads, the walk's scratch is
// reused across decisions, and the winner lands in a caller-supplied
// Allocation buffer (AllocateInto) via in-place appends.
// testing.AllocsPerRun gates in decision_alloc_test.go pin 0
// allocs/op for all four policies.
package policy

import (
	"math"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
)

// allocateScoredInto serves the decision from the stream's accounting
// and the shape's score table, writing the winner into buf: its slices
// are truncated and refilled in place, so a caller reusing one buffer
// across decisions allocates nothing once the slices have grown to the
// request size. served is false when the view set declines (see
// matchcache.Views.SelectLive) and the caller must search.
func (p *mapaPolicy) allocateScoredInto(buf *Allocation, usable graph.Bitset, req Request) (err error, served bool) {
	served = p.views.SelectLive(req.Pattern, usable, p.maxCandidates,
		func(bw *match.BandwidthAccounting, tbl *score.Table, order []int) {
			s, ok := p.pickScored(bw, tbl, req)
			if !ok {
				err = ErrNoAllocation
				return
			}
			p.scoredAllocationInto(buf, bw, tbl, order, s, p.rep(tbl, req, s), 0, 0)
		})
	return err, served
}

// pickScored selects the winning GPU set among the live ones,
// dispatching on how static the request's selection order is. ok is
// false when no set is live.
func (p *mapaPolicy) pickScored(bw *match.BandwidthAccounting, tbl *score.Table, req Request) (int, bool) {
	k := req.NumGPUs()
	if bw.UsableCount() < k {
		return 0, false
	}
	usable := bw.Usable()
	mt := tbl.ForModel(p.scorer.Model)
	r := p.rank(req)
	var s int
	switch r[0] {
	case metricAggBW:
		ord, ends := mt.AggGroups()
		if r[1] == metricEffBW {
			// Greedy: the order embodies the full total order, so the
			// first live set holds the winner outright.
			s = int(ord[firstLive(usable, tbl, ord)])
		} else {
			s = scoredGroupArgmax(usable, bw, tbl, mt, r[1], ord, ends)
		}
	case metricEffBW:
		ord, ends := mt.EffGroups()
		s = scoredGroupArgmax(usable, bw, tbl, mt, r[1], ord, ends)
	default:
		s = p.walk.preservedArgmax(bw, tbl, mt, r[1], k)
	}
	return s, true
}

// rep returns the permutation index of set s's winning embedding under
// the request's order: the set's AggBW representative when the order
// ranks AggBW, its key representative otherwise.
func (p *mapaPolicy) rep(tbl *score.Table, req Request, s int) int {
	if r := p.rank(req); r[0] == metricAggBW || r[1] == metricAggBW {
		return tbl.AggRep(s)
	}
	return tbl.KeyRep(s)
}

// live reports whether a GPU set lies in the usable mask — on a
// complete machine graph, whether it hosts a live embedding. The GPUs
// are the machine's, so their words are in the mask.
func live(usable graph.Bitset, gpus []int) bool {
	for _, g := range gpus {
		if usable[g>>6]&(1<<(uint(g)&63)) == 0 {
			return false
		}
	}
	return true
}

// preservedIfLive is live and Eq. 3 for set s in one pass over its
// GPUs, summing the drop in the operand order of
// BandwidthAccounting.PreservedBW (the values are bit-equal; all
// weights are integral): ok is false when s is not live.
func preservedIfLive(usable graph.Bitset, bw *match.BandwidthAccounting, tbl *score.Table, s int) (v float64, ok bool) {
	inc := bw.IncidentView()
	var drop float64
	for _, g := range tbl.SetGPUs(s) {
		if usable[g>>6]&(1<<(uint(g)&63)) == 0 {
			return 0, false
		}
		drop += inc[g]
	}
	return bw.FreeWeight() - drop + tbl.SetInternal(s), true
}

// firstLive returns the position of the first live set in the given
// order. The caller guarantees at least one set is live.
func firstLive(usable graph.Bitset, tbl *score.Table, ord []int32) int {
	for j, s := range ord {
		if live(usable, tbl.SetGPUs(int(s))) {
			return j
		}
	}
	panic("policy: no live set despite k usable GPUs")
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

// preservedWalk is the scratch of preservedArgmax, grown once and
// reused by every later decision: the walk's position stack, the
// running drop per depth, a leaf's GPUs in ascending order, the
// incumbent's GPUs as a mask, and per position of the incident order
// whether every GPU from there on that is no larger than the
// incumbent's largest belongs to the incumbent (lexFloor). A policy
// decides one request at a time (its callers serialize decisions), so
// one scratch per policy suffices.
type preservedWalk struct {
	pos      []int
	drop     []float64
	gpus     []int
	inBest   graph.Bitset
	lexFloor []bool
}

// preservedArgmax is the argmax over live sets for a PreservedBW
// primary — the insensitive-Preserve decision — as a bounded
// depth-first walk over k-combinations of the usable GPUs, taken in
// ascending incident weight (bw.ByIncident: ties by ID, with prefix
// sums). A partial choice whose drop so far is d, with r GPUs left to
// pick from position j on, preserves at most
//
//	totalFree − (d + Σ incident of the r GPUs at j…j+r−1) + MaxInternal,
//
// since those r are the lightest left and no set's internal weight
// exceeds MaxInternal. A choice whose bound falls strictly below the
// best PreservedBW found so far is cut, together with every later
// choice at its depth (their bounds only shrink along the ascending
// order). A choice whose bound merely equals it is cut only when
// nothing below it can win the tie: the incumbent already holds the
// largest secondary value in the table, and every GPU the subtree can
// draw that is smaller than the incumbent's largest is one of the
// incumbent's own, so no set below is lexicographically smaller. The
// result is exactly the full scan's:
//
//   - every weight is integral, so every sum and bound is exact;
//   - a set cut on a strict bound is strictly worse, and a set cut on
//     an equal bound loses the tie-break;
//   - the comparator — PreservedBW, the secondary metric, then the GPU
//     set — is a total order, so the visit order cannot change the
//     winner.
//
// A leaf prices its internal weight from the accounting's pair weights
// and is dropped when strictly worse; only a leaf that could still win
// pays the set's rank (score.Table.Rank) and, on a tie, the secondary
// metric. sec is the order's secondary metric (never PreservedBW); k
// the pattern size, with at least k GPUs usable.
func (w *preservedWalk) preservedArgmax(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric, k int) int {
	order, prefix := bw.ByIncident()
	inc := bw.IncidentView()
	tot, maxInt := bw.FreeWeight(), tbl.MaxInternal()
	maxSec := mt.MaxSetEffBW()
	if sec == metricAggBW {
		maxSec = tbl.MaxSetAggBW()
	}
	m := len(order)
	if len(w.pos) < k {
		w.pos, w.drop, w.gpus = make([]int, k), make([]float64, k+1), make([]int, k)
	}
	if len(w.lexFloor) < len(inc)+1 {
		w.inBest, w.lexFloor = graph.NewBitset(len(inc)), make([]bool, len(inc)+1)
	}
	pos, drop, gpus := w.pos[:k], w.drop[:k+1], w.gpus[:k]
	best := -1
	var bestP, bestS float64
	var bestGPUs []int
	hasBestS, hasFloor := false, false
	// A choice is cut when its least drop exceeds limit, the drop at
	// which even MaxInternal only reaches the incumbent.
	limit := math.Inf(1)
	d := 0
	pos[0], drop[0] = 0, 0
	for d >= 0 {
		j, r := pos[d], k-d
		var least float64
		if j <= m-r {
			least = drop[d] + prefix[j+r] - prefix[j]
		}
		if j > m-r || least > limit {
			// Out of GPUs, or this and every later choice at depth d is
			// cut: back up.
			if d--; d >= 0 {
				pos[d]++
			}
			continue
		}
		if least == limit {
			if !hasBestS {
				bestS, hasBestS = setMetric(bw, tbl, mt, sec, best), true
			}
			if bestS >= maxSec && w.lexSettled(order, pos[:d+1], bestGPUs, &hasFloor) {
				pos[d]++
				continue
			}
		}
		drop[d+1] = drop[d] + inc[order[j]]
		if r > 1 {
			d++
			pos[d] = j + 1
			continue
		}
		// A leaf: the set at positions pos[0..k-1].
		var internal float64
		for a := 0; a < k; a++ {
			g := int(order[pos[a]])
			for b := a + 1; b < k; b++ {
				internal += bw.Weight(g, int(order[pos[b]]))
			}
			// The leaf's GPUs in ascending order, for the rank and the
			// GPU-set tie-break.
			b := a
			for ; b > 0 && gpus[b-1] > g; b-- {
				gpus[b] = gpus[b-1]
			}
			gpus[b] = g
		}
		pos[d]++
		ps := tot - drop[k] + internal
		s := -1
		switch {
		case best < 0 || ps > bestP:
			s, bestP, hasBestS = tbl.Rank(gpus), ps, false
			limit = tot + maxInt - ps
		case ps == bestP:
			if !hasBestS {
				bestS, hasBestS = setMetric(bw, tbl, mt, sec, best), true
			}
			less := lexLess(gpus, bestGPUs)
			if !less && bestS >= maxSec {
				break
			}
			r := tbl.Rank(gpus)
			if ss := setMetric(bw, tbl, mt, sec, r); ss > bestS || (ss == bestS && less) {
				s, bestS = r, ss
			}
		}
		if s >= 0 {
			for _, g := range bestGPUs {
				w.inBest.Unset(g)
			}
			best, bestGPUs, hasFloor = s, tbl.SetGPUs(s), false
			for _, g := range bestGPUs {
				w.inBest.Set(g)
			}
		}
	}
	for _, g := range bestGPUs {
		w.inBest.Unset(g)
	}
	return best
}

// lexSettled reports whether no set extending the chosen positions
// (the last one being the current choice) with GPUs from later
// positions is lexicographically smaller than the incumbent: that
// holds when every such GPU smaller than the incumbent's largest is
// one of the incumbent's own — then, for any other set S of the same
// size, the smallest GPU in exactly one of S and the incumbent belongs
// to the incumbent. lexFloor is rebuilt once per incumbent (hasFloor).
func (w *preservedWalk) lexSettled(order []int32, chosen []int, bestGPUs []int, hasFloor *bool) bool {
	top := bestGPUs[len(bestGPUs)-1]
	if !*hasFloor {
		m := len(order)
		w.lexFloor[m] = true
		for i := m - 1; i >= 0; i-- {
			g := int(order[i])
			w.lexFloor[i] = w.lexFloor[i+1] && (g > top || w.inBest.Has(g))
		}
		*hasFloor = true
	}
	for _, p := range chosen {
		if g := int(order[p]); g < top && !w.inBest.Has(g) {
			return false
		}
	}
	return w.lexFloor[chosen[len(chosen)-1]+1]
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
func scoredGroupArgmax(usable graph.Bitset, bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric, ord, ends []int32) int {
	j0 := firstLive(usable, tbl, ord)
	best := int(ord[j0])
	bestS := setMetric(bw, tbl, mt, sec, best)
	for j := j0 + 1; j < int(ends[j0]); j++ {
		s := int(ord[j])
		var ss float64
		if sec == metricPreservedBW {
			v, ok := preservedIfLive(usable, bw, tbl, s)
			if !ok {
				continue
			}
			ss = v
		} else if live(usable, tbl.SetGPUs(s)) {
			ss = setMetric(bw, tbl, mt, sec, s)
		} else {
			continue
		}
		if ss > bestS || (ss == bestS && lexLess(tbl.SetGPUs(s), tbl.SetGPUs(best))) {
			best, bestS = s, ss
		}
	}
	return best
}

// scoredAllocationInto packages embedding (s, perm) into buf by
// truncate-and-append: the set's GPUs, the match pattern (re-expressed
// through the isomorphic order remap when present), and the match data
// — the set's GPUs composed with the permutation, O(k) — land in buf's
// reused backing arrays; scores are assembled from the table and the
// view's bandwidth accounting. off and shift place a fleet node's
// winner in fleet-global terms — off is added to every GPU ID, shift to
// PreservedBW — and are 0 on a flat machine. The values written are
// identical to what allocateSearch returns for the same candidate (on
// the flattened machine, for a fleet node).
func (p *mapaPolicy) scoredAllocationInto(buf *Allocation, bw *match.BandwidthAccounting, tbl *score.Table, order []int, s, perm, off int, shift float64) {
	pat := tbl.Universe().Order()
	if order != nil {
		pat = order
	}
	gpus := tbl.SetGPUs(s)
	buf.GPUs = append(buf.GPUs[:0], gpus...)
	buf.Match.Pattern = append(buf.Match.Pattern[:0], pat...)
	buf.Match.Data = append(buf.Match.Data[:0], gpus...)
	for j, q := range tbl.Universe().Perm(perm) {
		buf.Match.Data[j] = gpus[q] + off
	}
	for i := range buf.GPUs {
		buf.GPUs[i] += off
	}
	buf.Scores = score.Scores{
		AggBW:       tbl.AggBW(s, perm),
		EffBW:       tbl.ForModel(p.scorer.Model).SetEffBW(s),
		PreservedBW: bw.PreservedBW(tbl.SetInternal(s), gpus) + shift,
		Mix:         tbl.SetMix(s),
	}
}
