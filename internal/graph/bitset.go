package graph

import (
	"math/bits"
	"strconv"
	"strings"
)

// Bitset is a fixed-capacity set of small non-negative integers packed
// into uint64 words. It is the dense-set substrate of the pattern
// matcher's hot path: candidate filtering during subgraph-isomorphism
// search is expressed as AND / AND-NOT over words instead of per-vertex
// map lookups, and availability states are summarized as one mask for
// cache keying.
//
// A Bitset's capacity is fixed at creation; Set panics beyond it.
// Binary operations require operands of equal word length.
type Bitset []uint64

const wordBits = 64

// NewBitset returns an empty bitset able to hold members in [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		n = 0
	}
	return make(Bitset, (n+wordBits-1)/wordBits)
}

// Set inserts i.
func (b Bitset) Set(i int) { b[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Unset removes i.
func (b Bitset) Unset(i int) { b[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Has reports whether i is a member. Out-of-capacity values are
// reported absent rather than panicking, so callers can probe with
// arbitrary vertex IDs.
func (b Bitset) Has(i int) bool {
	w := i / wordBits
	if i < 0 || w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether the set is non-empty.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// CopyFrom overwrites b with x. The sets must have equal word length.
func (b Bitset) CopyFrom(x Bitset) { copy(b, x) }

// And intersects b with x in place.
func (b Bitset) And(x Bitset) {
	for i := range b {
		b[i] &= x[i]
	}
}

// AndNot removes the members of x from b in place.
func (b Bitset) AndNot(x Bitset) {
	for i := range b {
		b[i] &^= x[i]
	}
}

// Or unions x into b in place.
func (b Bitset) Or(x Bitset) {
	for i := range b {
		b[i] |= x[i]
	}
}

// Reset removes every member.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// UnsetBelow removes every member below i.
func (b Bitset) UnsetBelow(i int) {
	w := min(i/wordBits, len(b))
	clear(b[:w])
	if w < len(b) {
		b[w] &^= 1<<(uint(i)%wordBits) - 1
	}
}

// Fill sets exactly the members [0, n).
func (b Bitset) Fill(n int) {
	b.Reset()
	i := 0
	for ; n >= wordBits; i, n = i+1, n-wordBits {
		b[i] = ^uint64(0)
	}
	if n > 0 {
		b[i] = (1 << uint(n)) - 1
	}
}

// SubsetOf reports whether every member of b is a member of x. Unlike
// the binary operators it tolerates operands of different word lengths
// (members beyond x's capacity are simply not in x), so a bitset sized
// for a full machine can be tested against a mask sized for an
// availability subgraph with fewer (or lower-numbered) vertices.
func (b Bitset) SubsetOf(x Bitset) bool {
	for i, w := range b {
		if i >= len(x) {
			if w != 0 {
				return false
			}
			continue
		}
		if w&^x[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and x have identical members and capacity.
func (b Bitset) Equal(x Bitset) bool {
	if len(b) != len(x) {
		return false
	}
	for i := range b {
		if b[i] != x[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in ascending order. Return false
// from fn to stop early.
func (b Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the set's members in ascending order.
func (b Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as fixed-width hexadecimal words, most
// significant first — a compact canonical form suitable for map keys.
func (b Bitset) String() string {
	var sb strings.Builder
	sb.Grow(len(b) * 16)
	for i := len(b) - 1; i >= 0; i-- {
		w := strconv.FormatUint(b[i], 16)
		sb.WriteString(strings.Repeat("0", 16-len(w)))
		sb.WriteString(w)
	}
	return sb.String()
}

// Capacity returns the bitset capacity needed to index g's vertices by
// ID: the maximum vertex ID plus one (zero for an empty graph). Vertex
// IDs may be sparse — physical GPU IDs survive removal — so capacity is
// a property of the largest ID, not the vertex count.
func Capacity(g *Graph) int {
	max := -1
	for v := range g.adj {
		if v > max {
			max = v
		}
	}
	return max + 1
}

// VertexBitset returns the graph's vertex set as a bitset indexed by
// vertex ID. For an availability subgraph of a hardware topology this
// is the available-GPU bitmask the live views cross-check a request
// against.
func (g *Graph) VertexBitset() Bitset {
	b := NewBitset(Capacity(g))
	for v := range g.adj {
		b.Set(v)
	}
	return b
}

// fingerprint is the uncached canonical encoding behind Fingerprint.
func (g *Graph) fingerprint() string {
	var sb strings.Builder
	for _, v := range g.Vertices() {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	sb.WriteByte(';')
	for _, e := range g.Edges() {
		sb.WriteString(strconv.Itoa(e.U))
		sb.WriteByte('-')
		sb.WriteString(strconv.Itoa(e.V))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(e.Weight, 'g', -1, 64))
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(e.Label))
		sb.WriteByte(',')
	}
	return sb.String()
}

// Fingerprint returns a canonical string encoding of g's exact
// structure: sorted vertices, then sorted edges with weights and
// labels. Equal fingerprints mean structurally equal graphs (the Equal
// relation), so the fingerprint is a sound cache key for pattern
// graphs. It is not an isomorphism invariant.
//
// The string is memoized on the graph and recomputed only after a
// mutation, so steady-state decision paths that key caches by
// fingerprint pay no per-call allocation.
func (g *Graph) Fingerprint() string {
	if p := g.fpMemo.Load(); p != nil {
		return *p
	}
	s := g.fingerprint()
	g.fpMemo.Store(&s)
	return s
}

// Index is a compact adjacency-bitset view of a Graph. Vertex IDs may
// be sparse (physical GPU IDs survive removal), so the index maps them
// onto dense positions 0..n-1 and precomputes one adjacency bitset and
// degree per position. Building the index costs O(V + E); afterwards
// the matcher's candidate filtering is pure word arithmetic.
//
// The index is a snapshot: mutating the underlying graph does not
// update it. It is safe for concurrent readers.
type Index struct {
	verts []int       // position -> vertex ID, ascending
	pos   map[int]int // vertex ID -> position
	adj   []Bitset    // position -> neighbor positions
	deg   []int       // position -> degree
	all   Bitset      // every position
}

// NewIndex builds the adjacency-bitset index of g.
func NewIndex(g *Graph) *Index {
	verts := g.Vertices()
	n := len(verts)
	ix := &Index{
		verts: verts,
		pos:   make(map[int]int, n),
		adj:   make([]Bitset, n),
		deg:   make([]int, n),
		all:   NewBitset(n),
	}
	for i, v := range verts {
		ix.pos[v] = i
		ix.all.Set(i)
	}
	for i, v := range verts {
		b := NewBitset(n)
		d := 0
		for u := range g.adj[v] {
			b.Set(ix.pos[u])
			d++
		}
		ix.adj[i] = b
		ix.deg[i] = d
	}
	return ix
}

// Len returns the number of indexed vertices.
func (ix *Index) Len() int { return len(ix.verts) }

// Vertex returns the vertex ID at position i.
func (ix *Index) Vertex(i int) int { return ix.verts[i] }

// PosOf returns the position of vertex v.
func (ix *Index) PosOf(v int) (int, bool) {
	i, ok := ix.pos[v]
	return i, ok
}

// Adj returns the adjacency bitset of position i. Treat it as
// read-only.
func (ix *Index) Adj(i int) Bitset { return ix.adj[i] }

// Degree returns the degree of position i.
func (ix *Index) Degree(i int) int { return ix.deg[i] }

// All returns the bitset of every position. Treat it as read-only.
func (ix *Index) All() Bitset { return ix.all }

// NewSet returns an empty bitset sized for this index's positions.
func (ix *Index) NewSet() Bitset { return NewBitset(len(ix.verts)) }
