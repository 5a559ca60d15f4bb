package mapa

import (
	"fmt"
	"math/rand"
	"testing"

	"mapa/internal/graph"
)

// checkAvailInvariant asserts the soundness contract of the System's
// one hardware-state mask: usable is exactly the machine's GPUs minus
// the leased and the unhealthy ones, and the System's live-view
// streams — flat and fleet — track that same mask, after any
// interleaving of operations.
func checkAvailInvariant(t *testing.T, s *System, step string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.top != nil && !s.gpus.Equal(s.top.Graph.VertexBitset()) {
		t.Fatalf("%s: GPU mask %v is not the topology's vertices", step, s.gpus.Members())
	}
	if s.fleet != nil && s.gpus.Count() != s.fleet.NumGPUs() {
		t.Fatalf("%s: GPU mask holds %d GPUs, fleet has %d", step, s.gpus.Count(), s.fleet.NumGPUs())
	}
	want := s.gpus.Clone()
	for _, gpus := range s.leases {
		for _, g := range gpus {
			want.Unset(g)
		}
	}
	for g := range s.unhealthy {
		want.Unset(g)
	}
	if !s.usable.Equal(want) {
		t.Fatalf("%s: usable is not vertices − leased − unhealthy:\n usable: %v\n want:   %v",
			step, s.usable.Members(), want.Members())
	}
	if s.views != nil && !sameMembers(s.views.Usable(), want) {
		t.Fatalf("%s: view stream tracks %v, usable is %v", step, s.views.Usable().Members(), want.Members())
	}
	if s.fviews != nil && !s.fviews.Usable().Equal(want) {
		t.Fatalf("%s: fleet view stream tracks %v, usable is %v", step, s.fviews.Usable().Members(), want.Members())
	}
}

// sameMembers reports whether two masks hold the same GPUs, whatever
// their word lengths.
func sameMembers(a, b graph.Bitset) bool { return a.SubsetOf(b) && b.SubsetOf(a) }

// TestSystemAllocateReleaseInterleavingKeepsInducedSubgraph drives a
// System through out-of-order allocate/release interleavings and
// checks the induced-subgraph invariant after every single operation.
// Releases deliberately do not mirror allocation order: the paper's
// Sec. 3.6 state update must hold for arbitrary completion orders.
func TestSystemAllocateReleaseInterleavingKeepsInducedSubgraph(t *testing.T) {
	s, err := NewSystem("dgx-v100", "preserve")
	if err != nil {
		t.Fatal(err)
	}
	checkAvailInvariant(t, s, "idle")

	// Fill the machine with four 2-GPU leases…
	var leases []*Lease
	for i := 0; i < 4; i++ {
		l, err := s.Allocate(JobRequest{NumGPUs: 2, Shape: "Ring", Sensitive: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
		checkAvailInvariant(t, s, fmt.Sprintf("allocate %d", i))
	}
	// …then release them out of order (2, 0, 3, 1), reallocating a
	// differently shaped job between releases so frees interleave with
	// new placements.
	for step, idx := range []int{2, 0, 3, 1} {
		if err := s.Release(leases[idx]); err != nil {
			t.Fatal(err)
		}
		checkAvailInvariant(t, s, fmt.Sprintf("release lease %d", idx))
		if step == 1 {
			l, err := s.Allocate(JobRequest{NumGPUs: 3, Shape: "Chain", Sensitive: true})
			if err != nil {
				t.Fatal(err)
			}
			checkAvailInvariant(t, s, "interleaved allocate")
			defer func() {
				if err := s.Release(l); err != nil {
					t.Fatal(err)
				}
			}()
		}
	}

	// Double release must fail and leave the state untouched.
	if err := s.Release(leases[2]); err == nil {
		t.Fatal("double release succeeded")
	}
	checkAvailInvariant(t, s, "after rejected double release")
}

// TestSystemRandomizedInterleavingKeepsInducedSubgraph is the seeded
// stress variant: hundreds of random allocates and out-of-order
// releases across shapes and sizes, invariant checked at every step,
// ending with a full drain back to the idle machine.
func TestSystemRandomizedInterleavingKeepsInducedSubgraph(t *testing.T) {
	s, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	var live []*Lease
	for step := 0; step < 300; step++ {
		if len(live) > 0 && (rng.Intn(2) == 0 || len(s.FreeGPUs()) < 2) {
			// Release a random live lease — not the most recent one.
			i := rng.Intn(len(live))
			if err := s.Release(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			checkAvailInvariant(t, s, fmt.Sprintf("step %d release", step))
			continue
		}
		maxK := 3
		if free := len(s.FreeGPUs()); free < maxK {
			maxK = free
		}
		k := 1 + rng.Intn(maxK)
		l, err := s.Allocate(JobRequest{NumGPUs: k, Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0})
		if err != nil {
			t.Fatalf("step %d: allocate %d GPUs with %d free: %v", step, k, len(s.FreeGPUs()), err)
		}
		live = append(live, l)
		checkAvailInvariant(t, s, fmt.Sprintf("step %d allocate", step))
	}
	for _, l := range live {
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	checkAvailInvariant(t, s, "after drain")
	if free := s.FreeGPUs(); len(free) != s.NumGPUs() {
		t.Fatalf("drained system has %d free GPUs, want %d", len(free), s.NumGPUs())
	}
}

// TestSystemChurnLiveViewParity drives two Systems through the same
// seeded >=500-step allocate/release interleaving: one running the
// full pipeline (warmed universes + delta-maintained live views), one
// stripped to plain per-decision searches. Every allocation must pick
// identical GPU sets with identical scores, the induced-subgraph
// invariant must hold throughout on the pipelined system, and at the
// end the live views — not a search — must have served its
// decisions.
func TestSystemChurnLiveViewParity(t *testing.T) {
	fast, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewSystem("dgx-a100", "preserve", searchOnly())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	type pair struct{ fast, slow *Lease }
	var live []pair
	for step := 0; step < 500; step++ {
		if len(live) > 0 && (rng.Intn(2) == 0 || len(fast.FreeGPUs()) < 2) {
			i := rng.Intn(len(live))
			if err := fast.Release(live[i].fast); err != nil {
				t.Fatal(err)
			}
			if err := slow.Release(live[i].slow); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d release", step))
			continue
		}
		maxK := 3
		if free := len(fast.FreeGPUs()); free < maxK {
			maxK = free
		}
		req := JobRequest{
			NumGPUs:   1 + rng.Intn(maxK),
			Shape:     shapes[rng.Intn(len(shapes))],
			Sensitive: rng.Intn(2) == 0,
		}
		lf, err := fast.Allocate(req)
		if err != nil {
			t.Fatalf("step %d: pipelined allocate: %v", step, err)
		}
		ls, err := slow.Allocate(req)
		if err != nil {
			t.Fatalf("step %d: plain allocate: %v", step, err)
		}
		if fmt.Sprint(lf.GPUs) != fmt.Sprint(ls.GPUs) ||
			lf.EffBW != ls.EffBW || lf.AggBW != ls.AggBW || lf.PreservedBW != ls.PreservedBW {
			t.Fatalf("step %d (%+v): pipelined decision diverged:\n got gpus=%v eff=%v agg=%v pres=%v\nwant gpus=%v eff=%v agg=%v pres=%v",
				step, req, lf.GPUs, lf.EffBW, lf.AggBW, lf.PreservedBW, ls.GPUs, ls.EffBW, ls.AggBW, ls.PreservedBW)
		}
		live = append(live, pair{lf, ls})
		checkAvailInvariant(t, fast, fmt.Sprintf("step %d allocate", step))
	}
	st := fast.CacheStats()
	// The fast system's slow twin scored every candidate dynamically,
	// so the 500-step byte-parity above is also the system-level
	// table-vs-dynamic-scoring check — provided the fast side really
	// took the table path.
	if st.TableServed == 0 || st.ScoreTables == 0 {
		t.Fatalf("churn was not table-served: %+v", st)
	}
	if st.ViewRejected != 0 {
		t.Fatalf("live views rejected %d decisions mid-churn: %+v", st.ViewRejected, st)
	}
}
