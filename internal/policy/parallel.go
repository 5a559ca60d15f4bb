package policy

import (
	"runtime"

	"mapa/internal/matchcache"
	"mapa/internal/score"
)

// SetParallelism configures a MAPA policy (greedy, preserve, and the
// ablations) to enumerate and score candidate matches with n worker
// goroutines when a decision has to search. The paper notes the
// scoring stage "is a data parallel problem" (Sec. 5.4) whose
// parallelization reins in the overhead of Fig. 19; this is that
// optimization. n < 2 restores single-threaded matching. Baseline and
// Topo-aware do not score candidate sets and ignore the setting.
//
// The selected allocation is byte-identical to the sequential one,
// candidate cap included: workers enumerate and deduplicate disjoint
// subtrees of the first pattern vertex's candidates, the in-root-order
// merge reproduces the exact sequential candidate prefix, and the
// comparator is a strict total order over it.
func SetParallelism(a Allocator, n int) {
	if mp, ok := a.(*mapaPolicy); ok {
		mp.workers = n
	}
}

// AttachUniverses records the idle-state universe store a MAPA
// policy's view set was created from. Decisions reach the store only
// through the attached views (AttachViews), so nothing reads the
// attachment. Baseline and Topo-aware ignore it. Pass nil to detach.
func AttachUniverses(a Allocator, s *matchcache.Store) {
	if mp, ok := a.(*mapaPolicy); ok {
		mp.store = s
	}
}

// AttachViews wires a view set into a MAPA policy: decisions are
// table-served off the stream's delta-maintained usable mask and the
// store's precomputed score tables — no search, no universe scan, no
// dynamic score evaluation. The view set must be bound to the topology
// the policy allocates on (it is bypassed for any other) and must be
// fed the exact GPU-set deltas of the availability stream the policy
// decides over (mapa.System and sched.Engine publish them); a view set
// whose stream diverges from the usable mask a decision is handed
// declines to serve and the decision is a fresh search. Baseline and
// Topo-aware do not enumerate and ignore it. Pass nil to detach.
func AttachViews(a Allocator, v *matchcache.Views) {
	if mp, ok := a.(*mapaPolicy); ok {
		mp.views = v
	}
}

// SetScorer swaps the policy's scoring model. Every built-in policy
// carries a scorer (MAPA policies score candidates with it; baseline
// and topo-aware score their fixed pick for reporting), and all of
// them are rebound — a nil scorer restores the default, as ByName
// does. The swap exists for live topology mutation (mapa.System's MIG
// repartitioning retrains the Eq. 2 model for the new virtual machine
// and rebinds it in place); callers must not swap mid-decision.
func SetScorer(a Allocator, s *score.Scorer) {
	switch p := a.(type) {
	case *mapaPolicy:
		p.scorer = orDefault(s)
	case *Baseline:
		p.scorer = orDefault(s)
	case *TopoAware:
		p.scorer = orDefault(s)
	}
}

// SetMaxCandidates overrides how many deduplicated matches a MAPA
// policy scores per decision (DefaultMaxCandidates at construction;
// <= 0 means unlimited). Large multi-node machines need a tighter
// bound: candidate sets grow combinatorially with free GPUs while the
// score separation between good matches does not. A decision whose
// cap binds is made by the search, which streams the capped prefix.
// Baseline and Topo-aware ignore it.
func SetMaxCandidates(a Allocator, n int) {
	if mp, ok := a.(*mapaPolicy); ok {
		if n < 0 {
			n = 0
		}
		mp.maxCandidates = n
	}
}

// DefaultParallelism is a reasonable worker count for parallel
// matching and scoring.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// beats reports whether candidate b strictly precedes candidate a in
// the policy's total order: primary metric first, then lexicographic
// GPU set, then the canonical match key (vertex set + used edge set;
// aKey and bKey). Distinct deduplicated candidates always differ in
// their keys, so the order is total and the selected winner is
// independent of enumeration strategy.
func (p *mapaPolicy) beats(req Request, a, b Allocation, aKey, bKey string) bool {
	if p.better(req, a.Scores, b.Scores) {
		return true
	}
	if p.better(req, b.Scores, a.Scores) {
		return false
	}
	if lexLess(b.GPUs, a.GPUs) {
		return true
	}
	if lexLess(a.GPUs, b.GPUs) {
		return false
	}
	return bKey < aKey
}
