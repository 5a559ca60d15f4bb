package match

import (
	"math"
	"sync/atomic"

	"mapa/internal/graph"
)

// filters counts every full-universe mask scan — the telemetry behind
// Filters().
var filters atomic.Uint64

// Filters returns the cumulative number of full-universe mask scans
// this process has run. Together with Searches it lets callers prove a
// decision path's cost class: a table-served decision advances neither
// counter, and a search advances Searches. No decision path scans a
// universe; the scan exists only as the tests' reference.
func Filters() uint64 { return filters.Load() }

// Universe is the complete deduplicated enumeration of one pattern on
// one data graph — in MAPA's deployment, the idle-state enumeration of
// a job shape on the full machine — held as its closed form rather
// than as a list.
//
// Every machine graph is complete, so every injective map of the
// pattern's vertices is an embedding, and the symmetry-broken
// enumeration keeps exactly one per Aut(P) class. Three facts follow
// (pinned against the search by TestUniverseIsClosedForm and
// FuzzClosedFormUniverse):
//
//   - the vertex sets the embeddings occupy are exactly the C(n, k)
//     k-subsets of the n data vertices;
//   - the search emits a set's first embedding in the lexicographic
//     order of the sets' ascending vertex positions;
//   - the embeddings on set S are sorted(S) composed with one fixed
//     list of k!/|Aut(P)| position permutations — the pattern's own
//     embeddings into K_k, in their emission order — the same list in
//     the same order for every set, because the search's choices
//     depend only on the relative order of the vertex IDs.
//
// So a universe is (match order, sorted vertices, k, permutations):
// candidate i is the set-major pair (s, p) = (i / Perms(), i %
// Perms()), embedding order[j] ↦ Vertices()[pos_s[Perm(p)[j]]] where
// pos_s are set s's ascending vertex positions. Across sets the search
// emits embeddings in lexicographic tuple order, which is not
// set-major; only a capped prefix of the search could observe that,
// and no table-served decision takes one (a binding candidate cap
// declines to the search).
//
// A universe of a data graph that is not complete has no closed form
// and is built incomplete. A Universe is immutable and safe for
// concurrent readers.
type Universe struct {
	order    []int // match order: the Pattern slice shared by all matches
	verts    []int // the data graph's vertices, ascending
	k        int   // pattern size: vertices per match
	perms    []int // permutation arena: perm p occupies [p*k, (p+1)*k)
	sets     int   // C(n, k)
	complete bool
}

// BuildUniverse derives the universe of pattern on data. max bounds
// its size: if more than max equivalence classes exist — C(n, k) times
// the permutation count — the universe is marked incomplete and serves
// nothing, and callers must fall back to searching. The verdict
// enumerates nothing on data: at most the permutations of the pattern
// on K_k are listed, and no more of them than max allows. max <= 0
// means unlimited. A data graph that is not complete yields an
// incomplete universe.
func BuildUniverse(pattern, data *graph.Graph, max int) *Universe {
	verts := data.SortedVertices()
	n, k := len(verts), pattern.NumVertices()
	u := &Universe{order: matchOrder(pattern), verts: verts, k: k, complete: true}
	if k == 0 || k > n {
		return u // no embedding exists: the empty universe is complete
	}
	if data.NumEdges() != n*(n-1)/2 {
		return &Universe{k: k}
	}
	u.sets = Binomial(n, k)
	if max > 0 && u.sets > max {
		return &Universe{k: k}
	}
	limit := 0 // permutations allowed before the universe overflows
	if max > 0 {
		limit = max / u.sets
	}
	compileDeduped(pattern, completeGraph(k)).run(func(m Match) bool {
		u.perms = append(u.perms, m.Data...)
		return limit == 0 || len(u.perms) <= limit*k
	})
	if limit > 0 && u.Perms() > limit {
		return &Universe{k: k}
	}
	return u
}

// completeGraph returns K_k on vertices 0…k−1: the data graph whose
// embeddings of a pattern are its permutations of set positions.
func completeGraph(k int) *graph.Graph {
	g := graph.New()
	g.AddVertex(0)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.MustAddEdge(a, b, 1, 0)
		}
	}
	return g
}

// Complete reports whether the universe holds every equivalence class.
// Only complete universes may serve decisions.
func (u *Universe) Complete() bool { return u.complete }

// Len returns the number of embeddings (classes): Sets() × Perms().
func (u *Universe) Len() int { return u.sets * u.Perms() }

// Sets returns the number of distinct vertex sets the embeddings
// occupy: C(n, k) on a complete universe.
func (u *Universe) Sets() int { return u.sets }

// Perms returns how many embeddings occupy each vertex set:
// k!/|Aut(P)| on a complete universe.
func (u *Universe) Perms() int {
	if u.k == 0 {
		return 0
	}
	return len(u.perms) / u.k
}

// Perm returns permutation p: the j-th match-order pattern vertex of
// embedding (s, p) maps onto the Perm(p)[j]-th smallest vertex of set
// s. Read-only.
func (u *Universe) Perm(p int) []int {
	return u.perms[p*u.k : (p+1)*u.k : (p+1)*u.k]
}

// Order returns the pattern's match order — the Pattern slice shared
// by every embedding. Read-only.
func (u *Universe) Order() []int { return u.order }

// Vertices returns the data graph's vertices in ascending order; set
// positions index it. Read-only.
func (u *Universe) Vertices() []int { return u.verts }

// Binomial returns C(m, j), saturating at math.MaxInt (0 when j < 0 or
// j > m).
func Binomial(m, j int) int {
	if j < 0 || j > m {
		return 0
	}
	j = min(j, m-j)
	c := 1
	for i := 1; i <= j; i++ {
		// c·(m−j+i) is divisible by i; saturate when the product would
		// overflow.
		f := m - j + i
		if c > math.MaxInt/f {
			return math.MaxInt
		}
		c = c * f / i
	}
	return c
}

// NextSubset advances pos, ascending positions below n, to the next
// k-subset in lexicographic order and reports whether there was one.
func NextSubset(pos []int, n int) bool {
	k := len(pos)
	i := k - 1
	for i >= 0 && pos[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	pos[i]++
	for j := i + 1; j < k; j++ {
		pos[j] = pos[j-1] + 1
	}
	return true
}
