package match

import (
	"cmp"
	"slices"
	"strconv"

	"mapa/internal/graph"
)

// Keyer computes Match.Key-identical canonical keys for the stream of
// matches emitted by one enumeration — in the deduplicated
// enumerations, the one kept representative per class. All matches of
// one enumeration share the same Pattern order, so the pattern's edges
// can be compiled once into order positions; each key is then built
// from the match's Data slice alone — no maps, no graph lookups, one
// reused buffer.
//
// A Keyer is not safe for concurrent use.
type Keyer struct {
	epos  [][2]int // pattern edges as (match-order position) pairs
	verts []int
	edges [][2]int
	buf   []byte
}

// NewKeyer compiles a keyer for matches whose Pattern slice equals
// order (as produced by Enumerate for this pattern).
func NewKeyer(pattern *graph.Graph, order []int) *Keyer {
	epos := pattern.EdgePositionsIn(order)
	return &Keyer{
		epos:  epos,
		verts: make([]int, len(order)),
		edges: make([][2]int, len(epos)),
		buf:   make([]byte, 0, 8*(len(order)+2*len(epos))),
	}
}

// KeyBytes returns the canonical key of m: its data vertices ascending,
// then the normalized data edges its pattern edges map onto, sorted.
// As a string it equals m.Key(pattern, data) for valid embeddings. The
// bytes live in the keyer's buffer until the next call, so keying
// allocates only the string a caller makes of them.
func (ky *Keyer) KeyBytes(m Match) []byte {
	copy(ky.verts, m.Data)
	slices.Sort(ky.verts)
	for i, p := range ky.epos {
		u, v := m.Data[p[0]], m.Data[p[1]]
		if u > v {
			u, v = v, u
		}
		ky.edges[i] = [2]int{u, v}
	}
	slices.SortFunc(ky.edges, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	b := ky.buf[:0]
	for _, v := range ky.verts {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, e := range ky.edges {
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e[1]), 10)
		b = append(b, ',')
	}
	ky.buf = b
	return b
}
