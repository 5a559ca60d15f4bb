package graph

import (
	"math/rand"
	"testing"
)

func TestBitsetBasicOps(t *testing.T) {
	b := NewBitset(130)
	if b.Any() || b.Count() != 0 {
		t.Fatalf("new bitset not empty: count=%d", b.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("Set(%d) then Has(%d)=false", i, i)
		}
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count=%d want 7", got)
	}
	b.Unset(64)
	if b.Has(64) {
		t.Fatal("Unset(64) left the bit set")
	}
	if b.Has(-1) || b.Has(1000) {
		t.Fatal("out-of-range Has must report false")
	}
	want := []int{0, 1, 63, 65, 127, 129}
	got := b.Members()
	if len(got) != len(want) {
		t.Fatalf("Members=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members=%v want %v", got, want)
		}
	}
}

func TestBitsetForEachEarlyStop(t *testing.T) {
	b := NewBitset(10)
	for i := 0; i < 10; i++ {
		b.Set(i)
	}
	var seen []int
	b.ForEach(func(i int) bool {
		seen = append(seen, i)
		return i < 3
	})
	if len(seen) != 4 || seen[3] != 3 {
		t.Fatalf("ForEach visited %v, want [0 1 2 3]", seen)
	}
}

func TestBitsetWordOps(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	inter := a.Clone()
	inter.And(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 == 0
		if inter.Has(i) != want {
			t.Fatalf("And: bit %d = %v, want %v", i, inter.Has(i), want)
		}
	}
	diff := a.Clone()
	diff.AndNot(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if diff.Has(i) != want {
			t.Fatalf("AndNot: bit %d = %v, want %v", i, diff.Has(i), want)
		}
	}
	uni := a.Clone()
	uni.Or(b)
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if uni.Has(i) != want {
			t.Fatalf("Or: bit %d = %v, want %v", i, uni.Has(i), want)
		}
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	if a.Equal(b) {
		t.Fatal("Equal across different sets = true")
	}
	a.Reset()
	if a.Any() {
		t.Fatal("Reset left members")
	}
}

func TestBitsetFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitset(130)
		b.Fill(n)
		if got := b.Count(); got != n {
			t.Fatalf("Fill(%d): Count=%d", n, got)
		}
		if n > 0 && (!b.Has(0) || !b.Has(n-1) || b.Has(n)) {
			t.Fatalf("Fill(%d): wrong boundary bits", n)
		}
	}
}

func TestBitsetUnsetBelow(t *testing.T) {
	for _, i := range []int{0, 1, 63, 64, 65, 129, 130, 200} {
		b := NewBitset(130)
		b.Fill(130)
		b.UnsetBelow(i)
		if got, want := b.Count(), max(130-i, 0); got != want {
			t.Fatalf("UnsetBelow(%d): Count=%d, want %d", i, got, want)
		}
		if i > 0 && i <= 130 && b.Has(i-1) || i < 130 && !b.Has(i) {
			t.Fatalf("UnsetBelow(%d): wrong boundary bits", i)
		}
	}
}

func TestBitsetStringCanonical(t *testing.T) {
	a, b := NewBitset(70), NewBitset(70)
	a.Set(1)
	a.Set(69)
	b.Set(69)
	b.Set(1)
	if a.String() != b.String() {
		t.Fatalf("same members, different strings: %q vs %q", a.String(), b.String())
	}
	b.Unset(69)
	if a.String() == b.String() {
		t.Fatal("different members, same string")
	}
	if len(a.String()) != 2*16 {
		t.Fatalf("string length %d, want fixed-width 32", len(a.String()))
	}
}

func TestVertexBitsetSparseIDs(t *testing.T) {
	g := New()
	g.AddVertex(0)
	g.AddVertex(7)
	g.AddVertex(70)
	b := g.VertexBitset()
	if b.Count() != 3 || !b.Has(0) || !b.Has(7) || !b.Has(70) {
		t.Fatalf("VertexBitset members=%v", b.Members())
	}
	if got := New().VertexBitset(); got.Any() {
		t.Fatalf("empty graph VertexBitset has members %v", got.Members())
	}
}

// TestCapacitySparseIDs pins the Capacity helper the universe and
// live-view layers size their ID-indexed structures with: it must
// track the maximum vertex ID, not the vertex count, and survive
// removal of the maximum.
func TestCapacitySparseIDs(t *testing.T) {
	g := New()
	if got := Capacity(g); got != 0 {
		t.Fatalf("empty graph capacity = %d, want 0", got)
	}
	g.AddVertex(3)
	g.AddVertex(130)
	g.AddVertex(64)
	if got := Capacity(g); got != 131 {
		t.Fatalf("capacity = %d, want 131 (max ID + 1, not count)", got)
	}
	g.RemoveVertex(130)
	if got := Capacity(g); got != 65 {
		t.Fatalf("capacity after removing max = %d, want 65", got)
	}
	if b := g.VertexBitset(); len(b) != (65+63)/64 || !b.Has(64) || !b.Has(3) {
		t.Fatalf("VertexBitset inconsistent with capacity: words=%d members=%v", len(b), b.Members())
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	g := New()
	g.MustAddEdge(0, 1, 25, 2)
	g.MustAddEdge(1, 2, 50, 3)

	same := New()
	same.MustAddEdge(1, 2, 50, 3)
	same.MustAddEdge(0, 1, 25, 2)
	if g.Fingerprint() != same.Fingerprint() {
		t.Fatal("equal graphs, different fingerprints")
	}

	weight := g.Clone()
	weight.MustAddEdge(0, 1, 12, 2)
	label := g.Clone()
	label.MustAddEdge(0, 1, 25, 0)
	vertex := g.Clone()
	vertex.AddVertex(9)
	for name, h := range map[string]*Graph{"weight": weight, "label": label, "vertex": vertex} {
		if g.Fingerprint() == h.Fingerprint() {
			t.Fatalf("%s change not reflected in fingerprint", name)
		}
	}
}

func TestIndexMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	ids := []int{2, 3, 5, 8, 13, 21, 34}
	for _, v := range ids {
		g.AddVertex(v)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if rng.Intn(2) == 0 {
				g.MustAddEdge(ids[i], ids[j], 1, 0)
			}
		}
	}
	ix := NewIndex(g)
	if ix.Len() != len(ids) {
		t.Fatalf("Len=%d want %d", ix.Len(), len(ids))
	}
	if ix.All().Count() != len(ids) {
		t.Fatalf("All has %d members", ix.All().Count())
	}
	for i, v := range g.Vertices() {
		if ix.Vertex(i) != v {
			t.Fatalf("Vertex(%d)=%d want %d (ascending order)", i, ix.Vertex(i), v)
		}
		p, ok := ix.PosOf(v)
		if !ok || p != i {
			t.Fatalf("PosOf(%d)=(%d,%v) want (%d,true)", v, p, ok, i)
		}
		if ix.Degree(i) != g.Degree(v) {
			t.Fatalf("Degree(%d)=%d want %d", i, ix.Degree(i), g.Degree(v))
		}
		for j, u := range g.Vertices() {
			if ix.Adj(i).Has(j) != g.HasEdge(v, u) {
				t.Fatalf("Adj mismatch between %d and %d", v, u)
			}
		}
	}
	if _, ok := ix.PosOf(99); ok {
		t.Fatal("PosOf(absent) = ok")
	}
	if ix.NewSet().Any() {
		t.Fatal("NewSet not empty")
	}
}
