package mapa

import (
	"fmt"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/match"
	"mapa/internal/mig"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// TestUniverseIsClosedForm pins the closed form match.Universe is: on
// every machine a System can run on, the symmetry-broken search's
// embeddings occupy exactly the C(n, k) k-subsets of the machine's n
// GPUs, the table numbers them in lexicographic order of their
// positions in the sorted vertex list with Rank inverting SetGPUs, and
// every set's embeddings, in emission order, are its ascending GPUs
// composed with the universe's permutations, in order. The machines
// are the catalog (shapes up to 5 GPUs), the 72-GPU cluster (up to 3;
// larger universes overflow the default capacity), a composed MIG
// DGX-A100 with sparse virtual IDs, and the machine a System runs on
// after Repartition.
func TestUniverseIsClosedForm(t *testing.T) {
	type machine struct {
		name string
		top  *topology.Topology
		maxK int
	}
	var machines []machine
	for _, name := range topology.Names() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, machine{name, top, 5})
	}
	machines = append(machines, machine{"cluster-a100", topology.ClusterA100(9), 3})
	vt, err := mig.Compose(topology.DGXA100(), map[int][]int{
		0: {0, 1, 2}, 1: {9}, 2: {20, 21}, 3: {33}, 4: {63, 64}, 5: {70, 71, 72, 73}, 6: {90}, 7: {128},
	})
	if err != nil {
		t.Fatal(err)
	}
	machines = append(machines, machine{"mig-composed", vt.Topology, 5})
	s, err := NewSystem("dgx-a100", "preserve")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Repartition(map[int]int{0: 2, 5: 3}); err != nil {
		t.Fatal(err)
	}
	machines = append(machines, machine{"repartitioned", s.top, 5})

	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			seen := make(map[string]bool)
			for _, pattern := range appgraph.AllShapes(min(m.maxK, m.top.NumGPUs())) {
				form, _ := pattern.CanonicalForm()
				if seen[form] {
					continue
				}
				seen[form] = true
				u := match.BuildUniverse(pattern, m.top.Graph, 0)
				if !u.Complete() {
					t.Fatalf("%v: universe incomplete", pattern.Edges())
				}
				label := fmt.Sprint(pattern.Edges())
				tbl := score.BuildTable(m.top, pattern, u, 2)
				checkClosedForm(t, label, m.top, tbl, pattern.NumVertices())
				checkPermutations(t, label, tbl, match.FindAllDedupedParallel(pattern, m.top.Graph, 2))
			}
		})
	}
}

// checkClosedForm walks the k-subsets of the machine's sorted vertices
// in lexicographic order and requires set s of the table to be the
// s-th of them, with Rank mapping it back to s.
func checkClosedForm(t *testing.T, label string, top *topology.Topology, tbl *score.Table, k int) {
	t.Helper()
	verts := top.Graph.SortedVertices()
	n := len(verts)
	pos := make([]int, k)
	for i := range pos {
		pos[i] = i
	}
	want := make([]int, k)
	s := 0
	for {
		for i, p := range pos {
			want[i] = verts[p]
		}
		if s >= tbl.Universe().Sets() {
			t.Fatalf("%s: subset %v has no set; the universe holds %d", label, want, tbl.Universe().Sets())
		}
		if got := tbl.SetGPUs(s); !slices.Equal(got, want) {
			t.Fatalf("%s: set %d holds %v, the %d-th k-subset is %v", label, s, got, s, want)
		}
		if r := tbl.Rank(want); r != s {
			t.Fatalf("%s: Rank(%v) = %d, want %d", label, want, r, s)
		}
		s++
		// The next k-subset in lexicographic order.
		i := k - 1
		for i >= 0 && pos[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		pos[i]++
		for j := i + 1; j < k; j++ {
			pos[j] = pos[j-1] + 1
		}
	}
	if s != tbl.Universe().Sets() {
		t.Fatalf("%s: %d k-subsets, the universe holds %d sets", label, s, tbl.Universe().Sets())
	}
}

// checkPermutations groups the search's embeddings by GPU set — sets in
// lexicographic order, a set's embeddings in emission order — and
// requires candidate (s, p) of the closed form, set s's GPUs composed
// with permutation p, to be the p-th embedding of the s-th set.
func checkPermutations(t *testing.T, label string, tbl *score.Table, ms []match.Match) {
	t.Helper()
	u := tbl.Universe()
	sets := make([][]int, len(ms))
	for i, m := range ms {
		sets[i] = m.DataVertices()
	}
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return slices.Compare(sets[a], sets[b]) })
	if len(idx) != u.Len() {
		t.Fatalf("%s: the search finds %d embeddings, the closed form %d sets × %d", label, len(idx), u.Sets(), u.Perms())
	}
	data := make([]int, len(u.Order()))
	for i, j := range idx {
		s, p := i/u.Perms(), i%u.Perms()
		for d, q := range u.Perm(p) {
			data[d] = tbl.SetGPUs(s)[q]
		}
		if m := ms[j]; !slices.Equal(m.Pattern, u.Order()) || !slices.Equal(m.Data, data) {
			t.Fatalf("%s: set %d embedding %d is %v->%v, the search's %v->%v", label, s, p, u.Order(), data, m.Pattern, m.Data)
		}
	}
}
