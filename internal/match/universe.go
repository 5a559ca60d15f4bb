package match

import (
	"sync/atomic"

	"mapa/internal/graph"
)

// filters counts every full-universe mask scan (Universe.Filter call) —
// the telemetry behind Filters().
var filters atomic.Uint64

// Filters returns the cumulative number of full-universe mask scans
// (Universe.Filter calls) this process has run. Together with
// Searches it lets tests prove a decision path's cost class: a
// table-served decision advances neither counter, a Filter call (the
// reference mask liveness is tested against) advances only Filters,
// and a search advances Searches.
func Filters() uint64 { return filters.Load() }

// Universe is the complete deduplicated enumeration of one pattern on
// one data graph — in MAPA's deployment, the idle-state enumeration of
// a job shape on the full machine. Each representative is stored with
// the bitset of data vertices it occupies, so the matches valid on any
// availability state (an induced subgraph over a free-vertex subset)
// can be derived by word-wise mask tests instead of a fresh search:
// an embedding survives exactly when its vertex set is a subset of the
// free set, because induced subgraphs preserve all edges among the
// surviving vertices.
//
// Filtering preserves the sequential enumeration order. An embedding's
// emission position is determined by its own assignment sequence alone
// (candidates ascend by data-vertex ID at every depth), so restricting
// the data graph to a subset deletes rows without reordering the rest —
// Filter over the idle-state universe reproduces FindAllDedupedCapped
// on the induced subgraph byte-for-byte, representatives included.
//
// A Universe is immutable after construction and safe for concurrent
// readers.
//
// Storage is arena-style: embeddings are immutable after build, so all
// embedding vertex lists live in one backing []int (fixed stride k =
// pattern size) and all per-embedding bitset words in one backing
// []uint64 (fixed stride wp = words per bitset). The per-universe heap
// object count is O(1) instead of O(candidates) — for the 59,640-class
// cluster universe this removes ~120k small objects from GC scan work
// — and Match/Set return subslices of the arenas without allocating.
//
// Embeddings are also grouped by vertex set — in MAPA, by GPU set:
// several embeddings of one pattern can occupy the same vertex set (a
// Ring(4) has three on any four GPUs of a complete machine), and
// whether an embedding survives on an availability state depends on
// its set alone: the set is live exactly when its vertices are all in
// the stream's usable mask (BandwidthAccounting.Usable). Sets are
// numbered in first-occurrence order; SetOf, SetFirst and SetLen
// relate the two index spaces. On a complete data graph — every
// machine graph — first-occurrence order is the lexicographic order of
// the sets' sorted vertex positions, so a set's index is a closed form
// of its vertices (score.Table.Rank).
type Universe struct {
	order    []int    // match order: the Pattern slice shared by all matches
	keys     []string // per-match canonical keys
	data     []int    // vertex-list arena: match i occupies [i*k, (i+1)*k)
	setWords []uint64 // bitset arena: match i occupies [i*wp, (i+1)*wp)
	n        int      // number of matches
	k        int      // pattern size: vertices per match
	wp       int      // words per bitset: (capacity+63)/64
	capacity int      // bitset capacity: max data-vertex ID + 1
	complete bool

	setOf    []int32 // match -> index of its vertex set
	setFirst []int32 // vertex set -> its first match in enumeration order
	setLen   []int32 // vertex set -> number of matches occupying it
}

// BuildUniverse enumerates every deduplicated embedding of pattern
// into data (in parallel when workers > 1; the output is identical).
// max bounds the enumeration: if more than max equivalence classes
// exist, the universe is marked incomplete and retains no matches —
// an incomplete universe cannot soundly answer mask filters, so
// callers must fall back to searching. max <= 0 means unlimited.
func BuildUniverse(pattern, data *graph.Graph, max, workers int) *Universe {
	probe := 0
	if max > 0 {
		probe = max + 1 // one extra to detect truncation
	}
	cs := dedupedClasses(pattern, data, workers, probe)
	capacity := graph.Capacity(data)
	if max > 0 && len(cs.keys) > max {
		return &Universe{capacity: capacity, complete: false}
	}
	u := &Universe{
		order:    cs.order,
		keys:     cs.keys,
		data:     cs.data,
		n:        len(cs.keys),
		k:        len(cs.order),
		wp:       (capacity + 63) / 64,
		capacity: capacity,
		complete: true,
	}
	u.setWords = make([]uint64, u.n*u.wp)
	u.setOf = make([]int32, u.n)
	// Sets are grouped by their bitset words in an open-addressing table
	// of set indices (-1: empty) at most half full: a probe compares the
	// words against the set's first member's in place, so grouping
	// allocates nothing per set.
	size := 2
	for size < 2*u.n {
		size <<= 1
	}
	slots := make([]int32, size)
	for j := range slots {
		slots[j] = -1
	}
	mask := uint64(len(slots) - 1)
	for i := 0; i < u.n; i++ {
		b := u.Set(i)
		h := uint64(0)
		for _, v := range u.Match(i).Data {
			b.Set(v)
		}
		for _, x := range b {
			h = (h ^ x) * 0x9e3779b97f4a7c15
		}
		j := (h ^ h>>29) & mask
		for slots[j] >= 0 && !u.Set(int(u.setFirst[slots[j]])).Equal(b) {
			j = (j + 1) & mask
		}
		if slots[j] < 0 {
			slots[j] = int32(len(u.setFirst))
			u.setFirst = append(u.setFirst, int32(i))
			u.setLen = append(u.setLen, 0)
		}
		s := slots[j]
		u.setOf[i] = s
		u.setLen[s]++
	}
	return u
}

// Complete reports whether the universe holds every equivalence class.
// Only complete universes may serve mask filters.
func (u *Universe) Complete() bool { return u.complete }

// Len returns the number of stored representatives.
func (u *Universe) Len() int { return u.n }

// Capacity returns the bitset capacity the universe's per-match vertex
// sets were built with: the data graph's maximum vertex ID plus one
// (see graph.Capacity), the bound of every vertex ID it stores.
func (u *Universe) Capacity() int { return u.capacity }

// Order returns the pattern's match order — the Pattern slice shared
// by every stored match. Read-only.
func (u *Universe) Order() []int { return u.order }

// Match returns representative i as a view into the arena. Its slices
// are shared (Pattern with every match, Data with the arena); clone
// before mutating or retaining with a different Pattern.
func (u *Universe) Match(i int) Match {
	return Match{Pattern: u.order, Data: u.data[i*u.k : (i+1)*u.k : (i+1)*u.k]}
}

// Key returns the canonical key (vertex set + used-edge set) of
// representative i.
func (u *Universe) Key(i int) string { return u.keys[i] }

// Set returns the data-vertex bitset of representative i as a view
// into the arena. Read-only.
func (u *Universe) Set(i int) graph.Bitset {
	return graph.Bitset(u.setWords[i*u.wp : (i+1)*u.wp : (i+1)*u.wp])
}

// Sets returns the number of distinct vertex sets the representatives
// occupy.
func (u *Universe) Sets() int { return len(u.setFirst) }

// SetOf returns the index of representative i's vertex set. Sets are
// numbered in order of first occurrence in the enumeration.
func (u *Universe) SetOf(i int) int { return int(u.setOf[i]) }

// SetFirst returns the first representative, in enumeration order,
// occupying vertex set s.
func (u *Universe) SetFirst(s int) int { return int(u.setFirst[s]) }

// SetLen returns how many representatives occupy vertex set s.
func (u *Universe) SetLen(s int) int { return int(u.setLen[s]) }

// Filter returns the indices of the representatives whose data
// vertices all lie in mask, in enumeration order, truncated to the
// first max (max <= 0: unlimited). truncated reports whether further
// surviving representatives exist beyond the cap. Filtering an
// incomplete universe panics — callers must check Complete first.
func (u *Universe) Filter(mask graph.Bitset, max int) (idx []int, truncated bool) {
	if !u.complete {
		panic("match: Filter on an incomplete universe")
	}
	filters.Add(1)
	for i := 0; i < u.n; i++ {
		if !u.Set(i).SubsetOf(mask) {
			continue
		}
		if max > 0 && len(idx) == max {
			return idx, true
		}
		idx = append(idx, i)
	}
	return idx, false
}

// FilterUsable is Filter against the intersection of two masks — the
// free set and the health mask — without materializing the combined
// bitset: a representative survives exactly when its vertices all lie
// in both. It answers the degraded-mode serving question (which
// idle-state embeddings avoid every unhealthy GPU on the current free
// set) in one scan and is byte-identical to Filter on the ANDed mask.
func (u *Universe) FilterUsable(free, healthy graph.Bitset, max int) (idx []int, truncated bool) {
	if !u.complete {
		panic("match: FilterUsable on an incomplete universe")
	}
	filters.Add(1)
	for i := 0; i < u.n; i++ {
		s := u.Set(i)
		if !s.SubsetOf(free) || !s.SubsetOf(healthy) {
			continue
		}
		if max > 0 && len(idx) == max {
			return idx, true
		}
		idx = append(idx, i)
	}
	return idx, false
}
