package match

import (
	"sync/atomic"

	"mapa/internal/graph"
)

// searches counts every backtracking enumeration started, full or
// rooted — the telemetry behind Searches().
var searches atomic.Uint64

// Searches returns the cumulative number of backtracking enumerations
// this process has started (full runs and per-root subtree runs both
// count). It exists so tests can prove a code path was served without
// entering the search at all — e.g. that a warmed idle-state universe
// answers a new availability state purely by mask filtering.
func Searches() uint64 { return searches.Load() }

// search is one backtracking enumeration over a (pattern, data) pair,
// compiled onto the data graph's adjacency-bitset index. Candidate
// filtering — "unused and adjacent to the images of every matched
// pattern neighbor" — is AND-masks over uint64 words instead of map
// lookups, which is the matcher's hot path.
//
// A search owns its scratch buffers, so one search must not be used
// from multiple goroutines; parallel enumeration gives each worker its
// own search over a shared read-only index. Embeddings are emitted in
// the same deterministic order as the original map-based enumerator:
// depth by depth, candidates in ascending data-vertex order.
type search struct {
	k       int
	order   []int   // pattern vertices in match order
	earlier [][]int // earlier[i]: indices j < i with pattern edge order[j]~order[i]
	above   [][]int // symmetry-breaking table (see breakSymmetry); all empty: every embedding
	pdeg    []int   // pattern degree per order position
	ix      *graph.Index
	cand    []graph.Bitset // per-depth candidate scratch
	used    graph.Bitset   // data positions already assigned
	posAt   []int          // data position per depth
	data    []int          // data vertex ID per depth (the Match.Data buffer)
	m       Match
	fn      func(Match) bool
}

// program is the compiled, immutable plan of one (pattern, data)
// enumeration: match order, per-depth earlier-neighbor lists and
// degree bounds, and the data graph's adjacency-bitset index. One
// program can spawn many searches (one per worker) without paying the
// compilation again.
type program struct {
	k       int
	order   []int
	earlier [][]int
	above   [][]int
	pdeg    []int
	ix      *graph.Index
}

// compile builds the enumeration plan, reusing a prebuilt data index
// when ix is non-nil. It returns nil if no embedding can exist for
// trivial size reasons.
func compile(pattern, data *graph.Graph, ix *graph.Index) *program {
	k := pattern.NumVertices()
	if k == 0 || k > data.NumVertices() {
		return nil
	}
	if ix == nil {
		ix = graph.NewIndex(data)
	}
	order := matchOrder(pattern)
	pos := make(map[int]int, k)
	for i, v := range order {
		pos[v] = i
	}
	earlier := make([][]int, k)
	pdeg := make([]int, k)
	for i, v := range order {
		pdeg[i] = pattern.Degree(v)
		for _, u := range pattern.Neighbors(v) {
			if j := pos[u]; j < i {
				earlier[i] = append(earlier[i], j)
			}
		}
	}
	return &program{k: k, order: order, earlier: earlier, above: make([][]int, k), pdeg: pdeg, ix: ix}
}

// compileDeduped is compile for a deduplicated enumeration: the
// program carries the pattern's symmetry-breaking table, so its
// searches emit exactly one embedding per equivalence class.
func compileDeduped(pattern, data *graph.Graph) *program {
	pg := compile(pattern, data, nil)
	if pg != nil {
		pg.above = breakSymmetry(pattern, pg.order)
	}
	return pg
}

// breakSymmetry returns the symmetry-breaking table of a pattern in
// match order: above[j] lists the positions i < j for which order[j]
// lies in the orbit of order[i] under the automorphisms of the pattern
// that fix order[0..i-1]. A search that maps order[j] only above the
// image of every i in above[j] emits, of the |Aut(P)| embeddings that
// use one vertex set and one edge set, exactly the first in emission
// order (the README's matcher section has the proof).
//
// Orbits are decided by P→P existence searches with the first i+1
// positions pinned — one per pair i < j — never by enumerating Aut(P),
// which has 16! members for AllToAll(16). They do not count as
// Searches: they run on the pattern, not on the data graph.
func breakSymmetry(pattern *graph.Graph, order []int) [][]int {
	self := compile(pattern, pattern, nil).newSearch()
	pos := make([]int, len(order)) // self-index position of order[i]
	for i, v := range order {
		pos[i], _ = self.ix.PosOf(v)
	}
	above := make([][]int, len(order))
	pins := make([]int, 0, len(order))
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if self.extends(append(pins, pos[j])) {
				above[j] = append(above[j], i)
			}
		}
		pins = append(pins, pos[i])
	}
	return above
}

// newSearch allocates the mutable scratch state for one enumeration
// of the program.
func (pg *program) newSearch() *search {
	s := &search{
		k:       pg.k,
		order:   pg.order,
		earlier: pg.earlier,
		above:   pg.above,
		pdeg:    pg.pdeg,
		ix:      pg.ix,
		cand:    make([]graph.Bitset, pg.k),
		used:    pg.ix.NewSet(),
		posAt:   make([]int, pg.k),
		data:    make([]int, pg.k),
	}
	for i := range s.cand {
		s.cand[i] = pg.ix.NewSet()
	}
	s.m = Match{Pattern: pg.order, Data: s.data}
	return s
}

// newSearch compiles pattern against data and allocates scratch state
// in one step. It returns nil if no embedding can exist for trivial
// size reasons.
func newSearch(pattern, data *graph.Graph, ix *graph.Index) *search {
	pg := compile(pattern, data, ix)
	if pg == nil {
		return nil
	}
	return pg.newSearch()
}

// run enumerates every embedding, invoking fn for each; fn's Match
// reuses buffers exactly as Enumerate documents. It returns false when
// fn stopped the search early.
func (s *search) run(fn func(Match) bool) bool {
	searches.Add(1)
	s.fn = fn
	ok := true
	for p := 0; p < s.ix.Len() && ok; p++ {
		ok = s.root(p)
	}
	return ok
}

// runRoot enumerates the embeddings whose first match-order vertex is
// pinned to data position root. The root's degree-pruning check still
// applies, so running runRoot over every position reproduces run,
// emission order included.
func (s *search) runRoot(root int, fn func(Match) bool) bool {
	searches.Add(1)
	s.fn = fn
	return s.root(root)
}

// extends reports whether the partial assignment pinning depth d to
// position pins[d] is consistent and completes to a full embedding. It
// leaves the search's scratch state clean and counts no search.
func (s *search) extends(pins []int) bool {
	defer s.used.Reset()
	for d, p := range pins {
		if s.used.Has(p) || s.ix.Degree(p) < s.pdeg[d] {
			return false
		}
		for _, e := range s.earlier[d] {
			if !s.ix.Adj(s.posAt[e]).Has(p) {
				return false
			}
		}
		s.posAt[d] = p
		s.data[d] = s.ix.Vertex(p)
		s.used.Set(p)
	}
	found := false
	s.fn = func(Match) bool {
		found = true
		return false
	}
	s.rec(len(pins))
	return found
}

func (s *search) root(p int) bool {
	if s.ix.Degree(p) < s.pdeg[0] {
		return true
	}
	s.posAt[0] = p
	s.data[0] = s.ix.Vertex(p)
	if s.k == 1 {
		return s.fn(s.m)
	}
	s.used.Set(p)
	ok := s.rec(1)
	s.used.Unset(p)
	return ok
}

func (s *search) rec(depth int) bool {
	if depth == s.k {
		return s.fn(s.m)
	}
	// Candidates = ∩ adj(images of earlier pattern neighbors) \ used.
	// Every match-order position after the first has at least one
	// earlier neighbor on a connected pattern; disconnected patterns
	// fall back to the full vertex set.
	c := s.cand[depth]
	if e := s.earlier[depth]; len(e) > 0 {
		c.CopyFrom(s.ix.Adj(s.posAt[e[0]]))
		for _, j := range e[1:] {
			c.And(s.ix.Adj(s.posAt[j]))
		}
	} else {
		c.CopyFrom(s.ix.All())
	}
	c.AndNot(s.used)
	if a := s.above[depth]; len(a) > 0 {
		lo := 0
		for _, i := range a {
			lo = max(lo, s.posAt[i]+1)
		}
		c.UnsetBelow(lo)
	}
	ok := true
	c.ForEach(func(p int) bool {
		if s.ix.Degree(p) < s.pdeg[depth] {
			return true
		}
		s.posAt[depth] = p
		s.data[depth] = s.ix.Vertex(p)
		s.used.Set(p)
		ok = s.rec(depth + 1)
		s.used.Unset(p)
		return ok
	})
	return ok
}
