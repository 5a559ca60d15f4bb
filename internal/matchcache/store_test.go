package matchcache

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// liveList is what SelectLive hands a policy for one decision, copied
// out from under the view lock: the candidates live on the stream's
// usable mask in the search's emission order, their canonical keys in
// the requester's pattern, and the order remap.
type liveList struct {
	keys    []string
	matches []match.Match
	order   []int
}

// without returns g's induced subgraph after removing vs.
func without(g *graph.Graph, vs []int) *graph.Graph {
	c := g.Clone()
	for _, v := range vs {
		c.RemoveVertex(v)
	}
	return c
}

// selectLive consults v for (pattern, avail's vertex set) under the
// given cap and lists the live embeddings: each live set's GPUs
// composed with every permutation, sorted into emission order
// (lexicographic in the data tuple).
func selectLive(v *Views, pattern, avail *graph.Graph, maxCandidates int) (out liveList, ok bool) {
	ok = v.SelectLive(pattern, avail.VertexBitset(), maxCandidates,
		func(bw *match.BandwidthAccounting, tbl *score.Table, order []int) {
			u := tbl.Universe()
			for s := 0; s < u.Sets(); s++ {
				gpus := tbl.SetGPUs(s)
				if !subsetOf(gpus, bw.Usable()) {
					continue
				}
				for p := 0; p < u.Perms(); p++ {
					data := make([]int, len(gpus))
					for j, q := range u.Perm(p) {
						data[j] = gpus[q]
					}
					out.matches = append(out.matches, match.Match{Pattern: u.Order(), Data: data})
				}
			}
			slices.SortFunc(out.matches, func(a, b match.Match) int { return slices.Compare(a.Data, b.Data) })
			pat := u.Order()
			if order != nil {
				pat = order
			}
			for _, m := range out.matches {
				out.keys = append(out.keys, match.Match{Pattern: pat, Data: m.Data}.Key(pattern, avail))
			}
			out.order = order
		})
	return out, ok
}

// subsetOf reports whether every GPU lies in mask.
func subsetOf(gpus []int, mask graph.Bitset) bool {
	for _, g := range gpus {
		if !mask.Has(g) {
			return false
		}
	}
	return true
}

// candidatesOn reads the store's candidates for pattern on the machine
// with the given GPUs busy, through a fresh view stream advanced to
// that state — the one way a decision reaches a universe.
func candidatesOn(s *Store, pattern *graph.Graph, busy []int, maxCandidates int) (liveList, bool) {
	v := s.NewViews()
	v.Allocate(busy)
	return selectLive(v, pattern, without(s.top.Graph, busy), maxCandidates)
}

// sameKeys fails unless got lists exactly the wanted canonical keys in
// order.
func sameKeys(t *testing.T, step string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", step, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s candidate %d: key %q, want %q", step, i, got[i], want[i])
		}
	}
}

// ring0213 is a 4-ring assembled in a different vertex order than
// appgraph.Ring(4): isomorphic but structurally different.
func ring0213() *graph.Graph {
	g := graph.New()
	g.MustAddEdge(0, 2, 1, 0)
	g.MustAddEdge(2, 1, 1, 0)
	g.MustAddEdge(1, 3, 1, 0)
	g.MustAddEdge(3, 0, 1, 0)
	return g
}

// TestServedCandidatesMatchSequentialEnumeration is the store's
// soundness contract: for any availability state and candidate cap,
// the candidate list a view over the store serves must be
// byte-identical to a fresh capped sequential enumeration on the
// induced subgraph — and a cap that binds is declined, since the
// capped prefix is the search's to take.
func TestServedCandidatesMatchSequentialEnumeration(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	pattern := appgraph.Ring(3)
	states := [][]int{nil, {0}, {1, 6}, {0, 2, 4}, {1, 3, 5, 7}, {0, 1, 2, 3, 4}}
	for _, busy := range states {
		for _, cap := range []int{0, 5} {
			step := fmt.Sprintf("busy=%v cap=%d", busy, cap)
			got, ok := candidatesOn(s, pattern, busy, cap)
			wantMs, wantKeys := match.FindAllDedupedCappedKeys(pattern, without(top.Graph, busy), cap)
			if binds := cap > 0 && len(match.FindAllDeduped(pattern, without(top.Graph, busy))) > cap; ok == binds {
				t.Fatalf("%s: served=%v, but the cap binds=%v", step, ok, binds)
			}
			if !ok {
				continue
			}
			if got.order != nil {
				t.Fatalf("%s: identical shape needs no remap", step)
			}
			sameKeys(t, step, got.keys, wantKeys)
			for i, m := range wantMs {
				if !reflect.DeepEqual(got.matches[i], m) {
					t.Fatalf("%s candidate %d: match %v, want %v", step, i, got.matches[i], m)
				}
			}
		}
	}
	if st := s.Stats(); st.Universes != 1 {
		t.Fatalf("one shape must build exactly one universe, stats %+v", st)
	}
}

// TestWarmedShapeFiltersWithoutSearching is the zero-search proof: for
// a warmed shape, a previously-unseen availability state is served off
// the universe with zero calls into the subgraph-isomorphism search and
// zero full-universe scans.
func TestWarmedShapeFiltersWithoutSearching(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	pattern := appgraph.Ring(4)
	if n := s.Warm(0, pattern); n != 1 {
		t.Fatalf("Warm built %d universes, want 1", n)
	}
	searches, filters := match.Searches(), match.Filters()
	for _, busy := range [][]int{{0}, {3, 5}, {1, 2, 6}} {
		got, ok := candidatesOn(s, pattern, busy, 0)
		if !ok || len(got.keys) == 0 {
			t.Fatalf("busy=%v: warmed shape must serve a non-empty candidate list", busy)
		}
	}
	if d := match.Searches() - searches; d != 0 {
		t.Fatalf("view-served states ran %d searches, want 0", d)
	}
	if d := match.Filters() - filters; d != 0 {
		t.Fatalf("view-served states ran %d universe scans, want 0", d)
	}
}

func TestIncompleteUniverseFallsBack(t *testing.T) {
	top := topology.DGXV100()
	full := match.BuildUniverse(appgraph.Ring(3), top.Graph, 0)
	s := NewStore(top, full.Len()-1) // capacity below the class count
	if n := s.Warm(0, appgraph.Ring(3)); n != 0 {
		t.Fatalf("Warm claimed %d complete universes under an overflowing cap", n)
	}
	v := s.NewViews()
	if _, ok := selectLive(v, appgraph.Ring(3), top.Graph, 0); ok {
		t.Fatal("an incomplete universe must not be served")
	}
	if st := s.Stats(); st.Incomplete != 1 || st.Universes != 0 || st.Tables != 0 {
		t.Fatalf("store stats %+v, want 1 incomplete, no universe, no table", st)
	}
	if vs := v.Stats(); vs.Rejected != 1 || vs.TableServed != 0 {
		t.Fatalf("view stats %+v, want the decision rejected", vs)
	}
}

// TestIsomorphicBuildsShareUniverse: a universe built for one
// construction of the 4-ring serves an isomorphic construction, with
// matches re-expressed as valid embeddings of the requester's pattern.
func TestIsomorphicBuildsShareUniverse(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	ringA := appgraph.Ring(4)
	ringB := ring0213()
	s.Warm(0, ringA)

	avail := without(top.Graph, []int{2})
	before := match.Searches()
	got, ok := candidatesOn(s, ringB, []int{2}, 0)
	if !ok {
		t.Fatal("isomorphic shape must share the warmed universe")
	}
	if match.Searches() != before {
		t.Fatal("isomorphic lookup must not search")
	}
	if got.order == nil {
		t.Fatal("structurally different build needs an order remap")
	}
	if st := s.Stats(); st.Universes != 1 {
		t.Fatalf("isomorphic shapes must share one universe, stats %+v", st)
	}
	// Every served match, re-expressed through order, must be a valid
	// embedding of ringB into the availability graph, and the candidate
	// *set* must equal ringB's own enumeration (same canonical keys).
	wantKeys := map[string]bool{}
	_, keys := match.FindAllDedupedCappedKeys(ringB, avail, 0)
	for _, k := range keys {
		wantKeys[k] = true
	}
	if len(got.keys) != len(keys) {
		t.Fatalf("served %d candidates, direct enumeration %d", len(got.keys), len(keys))
	}
	for i, m := range got.matches {
		rm := match.Match{Pattern: got.order, Data: m.Data}
		if !match.IsEmbedding(ringB, avail, rm) {
			t.Fatalf("candidate %d is not a valid embedding of the requester's pattern", i)
		}
		if !wantKeys[got.keys[i]] {
			t.Fatalf("candidate %d key %q not in the direct enumeration", i, got.keys[i])
		}
	}
}

// TestTruncatedFilterRejectedForRemappedShape: a binding cap admits
// only the search's emission-order prefix, which the table does not
// keep, so the view declines and lets the policy search — for the
// identical shape and for a remapped one, whose emission order differs.
func TestTruncatedFilterRejectedForRemappedShape(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	ringA := appgraph.Ring(4)
	ringB := ring0213()
	s.Warm(0, ringA)

	// A cap that truncates is declined for both builds…
	if _, ok := candidatesOn(s, ringA, nil, 2); ok {
		t.Fatal("a truncated list for the identical shape must be declined")
	}
	if _, ok := candidatesOn(s, ringB, nil, 2); ok {
		t.Fatal("a truncated list for a remapped shape must be declined")
	}
	// …and both are served when the cap does not bind.
	if got, ok := candidatesOn(s, ringA, nil, 210); !ok || len(got.keys) != 210 {
		t.Fatalf("a cap equal to the candidate count must be served (ok=%v, %d candidates)", ok, len(got.keys))
	}
	if _, ok := candidatesOn(s, ringB, nil, 0); !ok {
		t.Fatal("uncapped list for a remapped shape must be served")
	}
}

// TestWarmRacesWithReaders interleaves a concurrent Warm with
// NewViews/SelectLive readers on the same store — the concurrent-warm
// contract: the store serves soundly at every
// point while warming is in flight (a reader needing a shape mid-build
// blocks on that shape only), and Warm's return still means every
// requested universe is resident. Run under -race in CI.
func TestWarmRacesWithReaders(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	shapes := appgraph.AllShapes(5)
	pattern := appgraph.Ring(3)
	avail := without(top.Graph, []int{0, 5})
	_, wantKeys := match.FindAllDedupedCappedKeys(pattern, avail, 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Warm(0, shapes...)
	}()
	for i := 0; i < 20; i++ {
		got, ok := candidatesOn(s, pattern, []int{0, 5}, 0)
		if !ok {
			t.Errorf("iter %d: SelectLive declined during warm", i)
			break
		}
		if len(got.keys) != len(wantKeys) {
			t.Errorf("iter %d: %d candidates, want %d", i, len(got.keys), len(wantKeys))
			break
		}
		if i%5 == 0 {
			s.Stats()
		}
	}
	<-done
	// After Warm returns every requested shape is resident: no new
	// builds for any of them.
	universes := s.Stats().Universes
	for _, p := range shapes {
		candidatesOn(s, p, nil, 0)
	}
	if got := s.Stats().Universes; got != universes {
		t.Fatalf("post-warm reads built %d more universes", got-universes)
	}
	got, _ := candidatesOn(s, pattern, []int{0, 5}, 0)
	sameKeys(t, "after warm", got.keys, wantKeys)
}

func TestStoreBound(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	if !s.Bound(top) {
		t.Fatal("store not bound to its own topology")
	}
	if s.Bound(topology.DGXV100()) {
		t.Fatal("store bound to a different topology value")
	}
	var nilStore *Store
	if nilStore.Bound(top) {
		t.Fatal("nil store reported bound")
	}
}

// TestWarmStoreResidentAllocBudget pins what a warmed store keeps
// resident: universes are closed forms and score tables hold per-set
// columns only, so a cluster-a100 store warmed on every shape up to 3
// GPUs — 121,836 GPU sets holding 241,116 embeddings — retains under
// 100 bytes per GPU set after GC, the process-wide mix memo it fills
// included (measured: 77). The memo holds one entry per link signature
// — 6 here — where keying it by GPU set held one per set, 124 bytes in
// all. Storing every embedding with its vertex list, bitset and key
// string cost ~92 bytes per embedding, ~180 per set, before the tables. It also pins that the over-capacity verdict
// enumerates nothing on the machine: Ring(6) on dgx-2 overflows the
// default capacity after at most one search, of the pattern on K_6.
func TestWarmStoreResidentAllocBudget(t *testing.T) {
	const budget = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(topology.ClusterA100(9), 0)
	s.Warm(0, appgraph.AllShapes(3)...)
	runtime.GC()
	runtime.ReadMemStats(&after)
	sets, embeddings := 0, 0
	for _, sl := range s.universes {
		sets += sl.u.Sets()
		embeddings += sl.u.Len()
	}
	if sets != 121836 || embeddings != 241116 {
		t.Fatalf("warmed %d sets holding %d embeddings, want 121836 holding 241116", sets, embeddings)
	}
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("%.1f MB retained: %.0f B per GPU set, %.0f B per embedding", retained/1e6, retained/float64(sets), retained/float64(embeddings))
	if retained > budget*float64(sets) {
		t.Errorf("warmed store retains %.0f B per GPU set, want under %d", retained/float64(sets), budget)
	}
	runtime.KeepAlive(s)

	dgx2 := NewStore(topology.DGX2(), 0)
	searches := match.Searches()
	dgx2.Ensure(appgraph.Ring(6), 0)
	st := dgx2.Stats()
	if len(st.Builds) != 1 || st.Builds[0].Complete || st.Builds[0].Classes != 0 || st.Incomplete != 1 {
		t.Fatalf("Ring(6) on dgx-2: builds %+v, want one incomplete build holding no classes", st.Builds)
	}
	if d := match.Searches() - searches; d > 1 {
		t.Fatalf("the over-capacity verdict ran %d searches, want at most 1", d)
	}
}
