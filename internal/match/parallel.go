// Worker-pool parallel enumeration. The search space is partitioned on
// the candidates of the first match-order pattern vertex: each root
// candidate spans an independent subtree of the backtracking search, so
// workers enumerate disjoint subtrees with no shared mutable state and
// results are stitched back together in root order — byte-identical to
// the sequential enumeration, just faster.
//
// Dispatch is one atomic counter handing out roots in ascending order.
// Every hardware graph is complete (topology.Validate rejects any other)
// and every search runs on an induced subgraph of one, which is complete
// too: all roots are symmetric and span equally sized raw subtrees. A
// symmetry-broken subtree is largest at the lowest roots (positions in
// the first vertex's orbit must map above the root), so ascending claims
// hand out the heaviest first. Claim order never affects output —
// the stitch walks roots in ascending order regardless of who enumerated
// them when.
package match

import (
	"sync"
	"sync/atomic"

	"mapa/internal/graph"
)

// Searcher is a compiled enumeration of one (pattern, data) pair whose
// per-root searches can run concurrently: the match order, pruning
// tables, and the adjacency-bitset index are compiled once and shared
// read-only, while every Session gets private scratch state.
type Searcher struct {
	pg    *program
	roots []int
}

// NewSearcher compiles pattern against data. The result is never nil;
// if no embedding can exist for size reasons, Roots is empty.
func NewSearcher(pattern, data *graph.Graph) *Searcher {
	return newSearcher(compile(pattern, data, nil))
}

func newSearcher(pg *program) *Searcher {
	sr := &Searcher{pg: pg}
	if pg == nil {
		return sr
	}
	for p := 0; p < pg.ix.Len(); p++ {
		if pg.ix.Degree(p) >= pg.pdeg[0] {
			sr.roots = append(sr.roots, pg.ix.Vertex(p))
		}
	}
	return sr
}

// Roots returns the data vertices eligible as the image of the first
// match-order pattern vertex, in ascending order. Enumerating every
// root reproduces the sequential enumeration exactly.
func (sr *Searcher) Roots() []int { return sr.roots }

// Order returns the pattern's match order (the Pattern slice of every
// emitted Match).
func (sr *Searcher) Order() []int {
	if sr.pg == nil {
		return nil
	}
	return sr.pg.order
}

// Session is one worker's scratch state over a Searcher. Sessions of
// the same Searcher may run concurrently; a single Session may not.
type Session struct {
	s  *search
	ky *Keyer
}

// keyer returns the session's lazily built Keyer for the searcher's
// pattern, amortizing its buffers across the worker's roots.
func (se *Session) keyer(pattern *graph.Graph) *Keyer {
	if se.ky == nil {
		se.ky = NewKeyer(pattern, se.s.order)
	}
	return se.ky
}

// Session allocates enumeration scratch state. Root may be called any
// number of times on it, amortizing the allocation across roots.
func (sr *Searcher) Session() *Session {
	if sr.pg == nil {
		return &Session{}
	}
	return &Session{s: sr.pg.newSearch()}
}

// Root enumerates the embeddings that map the first match-order
// pattern vertex to the data vertex root, in the sequential emission
// order. The Match passed to fn reuses buffers, exactly like
// Enumerate.
func (se *Session) Root(root int, fn func(Match) bool) {
	if se.s == nil {
		return
	}
	p, ok := se.s.ix.PosOf(root)
	if !ok {
		return
	}
	se.s.runRoot(p, fn)
}

// Enumerate runs the full sequential enumeration — every root in
// ascending order. Identical to the package-level Enumerate.
func (sr *Searcher) Enumerate(fn func(Match) bool) {
	if sr.pg == nil {
		return
	}
	sr.pg.newSearch().run(fn)
}

// EnumerateRoot is Session().Root for one-shot use. Calls with
// distinct roots may run concurrently.
func (sr *Searcher) EnumerateRoot(root int, fn func(Match) bool) {
	sr.Session().Root(root, fn)
}

// capTracker decides when a capped parallel enumeration may stop
// dispatching roots. Roots are claimed in ascending order but finish in
// any order, so completed roots need not form a contiguous prefix of
// enumeration order: the tracker records per-root class counts as roots
// finish and advances the boundary of the *contiguous completed
// prefix* in root order. A symmetry-broken search emits each class
// under exactly one root, so once the contiguous prefix holds max
// classes it holds the first max global classes, and the in-order
// stitch reaches the cap before any undispatched hole — the truncated
// output stays the exact deterministic sequential prefix.
type capTracker struct {
	mu       sync.Mutex
	stopAt   int64
	classes  []int64
	done     []bool
	boundary int   // first root index not yet completed
	prefix   int64 // summed classes of roots [0, boundary)
	stopped  atomic.Bool
}

func newCapTracker(roots int, stopAt int64) *capTracker {
	return &capTracker{
		stopAt:  stopAt,
		classes: make([]int64, roots),
		done:    make([]bool, roots),
	}
}

func (t *capTracker) stop() bool { return t.stopped.Load() }

// complete records that root i finished with the given class count and
// advances the contiguous-prefix boundary.
func (t *capTracker) complete(i, classes int) {
	t.mu.Lock()
	t.done[i] = true
	t.classes[i] = int64(classes)
	for t.boundary < len(t.done) && t.done[t.boundary] {
		t.prefix += t.classes[t.boundary]
		t.boundary++
	}
	if t.prefix >= t.stopAt {
		t.stopped.Store(true)
	}
	t.mu.Unlock()
}

// forEachRoot runs fn(session, rootIndex, root) over all roots with up
// to `workers` goroutines — the single dispatch loop every parallel
// entry point shares. Each worker owns one Session and claims the next
// root index from a shared atomic counter. fn returns the root's class
// count for cap accounting. A non-nil tracker is polled before each
// root; once it stops, no further roots start (in-flight roots finish
// and are recorded).
func (sr *Searcher) forEachRoot(workers int, tr *capTracker, fn func(se *Session, i int, root int) int) {
	workers = min(workers, len(sr.roots))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := sr.Session()
			for {
				if tr != nil && tr.stop() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(sr.roots) {
					return
				}
				n := fn(se, i, sr.roots[i])
				if tr != nil {
					tr.complete(i, n)
				}
			}
		}()
	}
	wg.Wait()
}

// FindAllParallel returns every embedding of pattern into data using a
// pool of `workers` goroutines, one search subtree per first-vertex
// candidate. The result is identical to FindAll, ordering included.
// workers < 2 (or a trivially small search) falls back to the
// sequential path.
func FindAllParallel(pattern, data *graph.Graph, workers int) []Match {
	sr := NewSearcher(pattern, data)
	if workers < 2 || len(sr.roots) < 2 {
		var out []Match
		sr.Enumerate(func(m Match) bool {
			out = append(out, m.Clone())
			return true
		})
		return out
	}
	perRoot := make([][]Match, len(sr.roots))
	sr.forEachRoot(workers, nil, func(se *Session, i, root int) int {
		var out []Match
		se.Root(root, func(m Match) bool {
			out = append(out, m.Clone())
			return true
		})
		perRoot[i] = out
		return 0
	})
	var all []Match
	for _, ms := range perRoot {
		all = append(all, ms...)
	}
	return all
}

// FindAllDedupedParallel is FindAllDeduped over the worker pool; the
// representatives and their order are identical to FindAllDeduped.
func FindAllDedupedParallel(pattern, data *graph.Graph, workers int) []Match {
	ms, _ := FindAllDedupedParallelKeys(pattern, data, workers, 0)
	return ms
}

// FindAllDedupedParallelKeys is the parallel FindAllDedupedCappedKeys:
// it returns the first max (<= 0: all) deduplicated representatives in
// sequential enumeration order with their canonical keys.
func FindAllDedupedParallelKeys(pattern, data *graph.Graph, workers, max int) ([]Match, []string) {
	cs := dedupedClasses(pattern, data, workers, max)
	return cs.matches(), cs.keys
}

// dedupedClasses runs the symmetry-broken enumeration with up to
// `workers` goroutines and returns its first max (<= 0: all) classes.
// Each class appears under exactly one root, so every root's output is
// final and the stitch is their concatenation in root order.
func dedupedClasses(pattern, data *graph.Graph, workers, max int) classes {
	pg := compileDeduped(pattern, data)
	sr := newSearcher(pg)
	if workers < 2 || len(sr.roots) < 2 {
		return dedupedCapped(pg, pattern, max)
	}
	perRoot := make([]classes, len(sr.roots))
	var tr *capTracker
	if max > 0 {
		tr = newCapTracker(len(sr.roots), int64(max))
	}
	sr.forEachRoot(workers, tr, func(se *Session, i, root int) int {
		ky := se.keyer(pattern)
		cs := &perRoot[i]
		se.Root(root, func(m Match) bool {
			cs.add(m, ky)
			return max <= 0 || len(cs.keys) < max
		})
		return len(cs.keys)
	})
	n := 0
	for _, cs := range perRoot {
		n += len(cs.keys)
	}
	if max > 0 {
		n = min(n, max)
	}
	all := classes{order: pg.order, data: make([]int, 0, n*pg.k), keys: make([]string, 0, n)}
	for _, cs := range perRoot {
		take := min(len(cs.keys), n-len(all.keys))
		all.data = append(all.data, cs.data[:take*pg.k]...)
		all.keys = append(all.keys, cs.keys[:take]...)
	}
	return all
}

// CountEmbeddingsParallel is CountEmbeddings over the worker pool.
func CountEmbeddingsParallel(pattern, data *graph.Graph, workers int) int {
	sr := NewSearcher(pattern, data)
	if workers < 2 || len(sr.roots) < 2 {
		n := 0
		sr.Enumerate(func(Match) bool {
			n++
			return true
		})
		return n
	}
	var total atomic.Int64
	sr.forEachRoot(workers, nil, func(se *Session, _, root int) int {
		n := 0
		se.Root(root, func(Match) bool {
			n++
			return true
		})
		total.Add(int64(n))
		return 0
	})
	return int(total.Load())
}
