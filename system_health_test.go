package mapa

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mapa/internal/journal"
	"mapa/internal/match"
)

// twinSystems builds the fast/slow pair every parity suite drives: one
// System running the full warmed pipeline, one stripped to plain
// per-decision searches — the rebuild-from-scratch oracle.
func twinSystems(t *testing.T, topo string) (fast, slow *System) {
	t.Helper()
	fast, err := NewSystem(topo, "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	slow, err = NewSystem(topo, "preserve", searchOnly())
	if err != nil {
		t.Fatal(err)
	}
	return fast, slow
}

// leasePair tracks one job's lease on both twins.
type leasePair struct{ fast, slow *Lease }

// allocateBoth places the same request on both twins and fails the
// test on any decision divergence — GPU set or any score.
func allocateBoth(t *testing.T, fast, slow *System, req JobRequest, step int) leasePair {
	t.Helper()
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
	return leasePair{lf, ls}
}

// assertChurnWasTableServed pins the cost model of a fault-churn run:
// every decision came from the delta-maintained view streams and their
// score tables, never a search.
func assertChurnWasTableServed(t *testing.T, s *System) {
	t.Helper()
	st := s.CacheStats()
	if st.TableServed == 0 || st.ScoreTables == 0 {
		t.Fatalf("churn was not table-served: %+v", st)
	}
	if st.ViewRejected != 0 {
		t.Fatalf("live views rejected %d decisions mid-churn: %+v", st.ViewRejected, st)
	}
}

// TestSystemFaultChurnParity drives twin Systems through a 500-step
// interleaving of allocations, releases, device failures, and
// recoveries: the warmed pipeline (health masks on posting lists,
// table-served selection) against plain per-decision searches over the
// rebuilt availability graph. Every decision must be byte-identical,
// the induced-subgraph invariant must hold throughout, and at the end
// the churn must have been table-served — health events are O(posting
// list) deltas, not rebuilds.
func TestSystemFaultChurnParity(t *testing.T) {
	fast, slow := twinSystems(t, "dgx-a100")
	rng := rand.New(rand.NewSource(4242))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	var live []leasePair
	var down []int
	faults := 0
	for step := 0; step < 500; step++ {
		free := len(fast.FreeGPUs())
		op := rng.Intn(10)
		switch {
		case op < 3 && len(live) > 0, free == 0 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := fast.Release(live[i].fast); err != nil {
				t.Fatalf("step %d: pipelined release: %v", step, err)
			}
			if err := slow.Release(live[i].slow); err != nil {
				t.Fatalf("step %d: plain release: %v", step, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d release", step))
		case op == 3 && free > 1:
			// Fail a random free device on both twins.
			gs := fast.FreeGPUs()
			g := gs[rng.Intn(len(gs))]
			if err := fast.MarkUnhealthy(g); err != nil {
				t.Fatalf("step %d: pipelined MarkUnhealthy(%d): %v", step, g, err)
			}
			if err := slow.MarkUnhealthy(g); err != nil {
				t.Fatalf("step %d: plain MarkUnhealthy(%d): %v", step, g, err)
			}
			down = append(down, g)
			faults++
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d fault", step))
		case op == 4 && len(down) > 0:
			i := rng.Intn(len(down))
			g := down[i]
			if err := fast.Restore(g); err != nil {
				t.Fatalf("step %d: pipelined Restore(%d): %v", step, g, err)
			}
			if err := slow.Restore(g); err != nil {
				t.Fatalf("step %d: plain Restore(%d): %v", step, g, err)
			}
			down[i] = down[len(down)-1]
			down = down[:len(down)-1]
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d recovery", step))
		default:
			if free == 0 {
				continue
			}
			maxK := 3
			if free < maxK {
				maxK = free
			}
			req := JobRequest{
				NumGPUs:   1 + rng.Intn(maxK),
				Shape:     shapes[rng.Intn(len(shapes))],
				Sensitive: rng.Intn(2) == 0,
			}
			live = append(live, allocateBoth(t, fast, slow, req, step))
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d allocate", step))
		}
		if fmt.Sprint(fast.UnhealthyGPUs()) != fmt.Sprint(slow.UnhealthyGPUs()) {
			t.Fatalf("step %d: twin health state diverged: %v vs %v", step, fast.UnhealthyGPUs(), slow.UnhealthyGPUs())
		}
	}
	if faults < 10 {
		t.Fatalf("churn injected only %d faults; the suite must exercise health events", faults)
	}
	assertChurnWasTableServed(t, fast)
}

// TestSystemHealthChurnZeroSearches is the fast-side cost pin: across a
// post-warm fault/recovery churn, the warmed System must run zero
// subgraph-isomorphism searches and zero universe filter scans — the
// process-global matcher counters stand still while decisions flow.
func TestSystemHealthChurnZeroSearches(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	s.WaitWarm() // the warm itself searches; snapshot counters after it
	rng := rand.New(rand.NewSource(777))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	// The singleton pattern is not part of the warm set — its universe
	// is built lazily on the first 1-GPU request. Prime it once per
	// shape so the churn below measures steady state.
	for _, shape := range shapes {
		l, err := s.Allocate(JobRequest{NumGPUs: 1, Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	searches0, filters0 := match.Searches(), match.Filters()
	var live []*Lease
	decisions := 0
	for step := 0; step < 300; step++ {
		free := len(s.FreeGPUs())
		switch op := rng.Intn(8); {
		case op < 3 && len(live) > 0, free == 0 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := s.Release(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 3 && free > 1:
			gs := s.FreeGPUs()
			g := gs[rng.Intn(len(gs))]
			if err := s.MarkUnhealthy(g); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(g); err != nil {
				t.Fatal(err)
			}
		default:
			if free == 0 {
				continue
			}
			maxK := 3
			if free < maxK {
				maxK = free
			}
			req := JobRequest{NumGPUs: 1 + rng.Intn(maxK), Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0}
			l, err := s.Allocate(req)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, l)
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatal("churn made no decisions")
	}
	if ds := match.Searches() - searches0; ds != 0 {
		t.Fatalf("post-warm fault churn ran %d subgraph searches, want 0", ds)
	}
	if df := match.Filters() - filters0; df != 0 {
		t.Fatalf("post-warm fault churn ran %d universe filter scans, want 0", df)
	}
}

// TestSystemDegradeLinkParity degrades (and partially recovers) machine
// links mid-churn on both twins: the fast side repairs its warmed
// tables and bandwidth accounting in place, the slow side recomputes
// everything per decision from the mutated graph — decisions must stay
// byte-identical, and the fast side must have repaired, not rebuilt.
func TestSystemDegradeLinkParity(t *testing.T) {
	fast, slow := twinSystems(t, "dgx-a100")
	rng := rand.New(rand.NewSource(99))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	degradations := []struct {
		u, v int
		bw   float64
	}{
		{0, 3, 10},
		{2, 7, 5},
		{0, 3, 100}, // partial recovery of the first link
	}
	var live []leasePair
	di := 0
	for step := 0; step < 240; step++ {
		free := len(fast.FreeGPUs())
		switch {
		case step%80 == 40 && di < len(degradations):
			d := degradations[di]
			di++
			if err := fast.DegradeLink(d.u, d.v, d.bw); err != nil {
				t.Fatalf("step %d: pipelined DegradeLink%+v: %v", step, d, err)
			}
			if err := slow.DegradeLink(d.u, d.v, d.bw); err != nil {
				t.Fatalf("step %d: plain DegradeLink%+v: %v", step, d, err)
			}
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d degrade", step))
		case (rng.Intn(2) == 0 && len(live) > 0) || free < 2:
			if len(live) == 0 {
				continue
			}
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
		default:
			maxK := 3
			if free < maxK {
				maxK = free
			}
			req := JobRequest{NumGPUs: 1 + rng.Intn(maxK), Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0}
			live = append(live, allocateBoth(t, fast, slow, req, step))
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d allocate", step))
		}
	}
	if di != len(degradations) {
		t.Fatalf("only %d of %d degradation events fired", di, len(degradations))
	}
	st := fast.CacheStats()
	if st.Repairs != len(degradations) || st.RepairedCandidates == 0 {
		t.Fatalf("degradations were not absorbed by incremental repair: %+v", st)
	}
	if st.ViewRejected != 0 {
		t.Fatalf("degradation churn fell off the live path: %+v", st)
	}
}

// TestSystemRepartitionParity folds MIG repartitioning in as a live
// topology mutation: both twins re-cut the same GPUs mid-churn (leases
// surviving on unchanged instances), decisions stay byte-identical on
// the virtual machine, and a second repartition proves virtual IDs are
// fresh and deterministic.
func TestSystemRepartitionParity(t *testing.T) {
	fast, slow := twinSystems(t, "dgx-v100")
	rng := rand.New(rand.NewSource(1234))
	shapes := []string{"Ring", "Chain", "Star", "AllToAll"}
	var live []leasePair

	// Occupy part of the machine so leases straddle the repartition.
	live = append(live, allocateBoth(t, fast, slow, JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true}, -1))

	repartitions := []map[int]int{
		{7: 2},       // split GPU 7
		{6: 3},       // split GPU 6, GPU 7 keeps its slices
		{7: 1, 6: 3}, // merge GPU 7 back; 6 unchanged (no-op for it)
	}
	ri := 0
	for step := 0; step < 360; step++ {
		free := len(fast.FreeGPUs())
		switch {
		case step%120 == 60 && ri < len(repartitions):
			slices := repartitions[ri]
			ri++
			// Drain any lease touching the GPUs being re-cut.
			for i := 0; i < len(live); {
				touches := false
				for _, g := range live[i].fast.GPUs {
					for phys := range slices {
						for _, vid := range fast.Instances(phys) {
							if g == vid {
								touches = true
							}
						}
					}
				}
				if !touches {
					i++
					continue
				}
				if err := fast.Release(live[i].fast); err != nil {
					t.Fatal(err)
				}
				if err := slow.Release(live[i].slow); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := fast.Repartition(slices); err != nil {
				t.Fatalf("step %d: pipelined Repartition(%v): %v", step, slices, err)
			}
			if err := slow.Repartition(slices); err != nil {
				t.Fatalf("step %d: plain Repartition(%v): %v", step, slices, err)
			}
			if fast.NumGPUs() != slow.NumGPUs() {
				t.Fatalf("step %d: twin machines diverged: %d vs %d GPUs", step, fast.NumGPUs(), slow.NumGPUs())
			}
			if fmt.Sprint(fast.FreeGPUs()) != fmt.Sprint(slow.FreeGPUs()) {
				t.Fatalf("step %d: free sets diverged after repartition:\n fast %v\n slow %v", step, fast.FreeGPUs(), slow.FreeGPUs())
			}
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d repartition", step))
		case (rng.Intn(2) == 0 && len(live) > 1) || free < 2:
			if len(live) == 0 {
				continue
			}
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
		default:
			maxK := 3
			if free < maxK {
				maxK = free
			}
			req := JobRequest{NumGPUs: 1 + rng.Intn(maxK), Shape: shapes[rng.Intn(len(shapes))], Sensitive: rng.Intn(2) == 0}
			live = append(live, allocateBoth(t, fast, slow, req, step))
			checkAvailInvariant(t, fast, fmt.Sprintf("step %d allocate", step))
		}
	}
	if ri != len(repartitions) {
		t.Fatalf("only %d of %d repartitions fired", ri, len(repartitions))
	}
	// Deterministic fresh IDs: capacity was 8, so GPU 7 first took
	// {8,9}, GPU 6 took {10,11,12}, and the merged GPU 7 took {13}.
	if got := fmt.Sprint(fast.Instances(6)); got != "[10 11 12]" {
		t.Fatalf("Instances(6) = %s, want [10 11 12]", got)
	}
	if got := fmt.Sprint(fast.Instances(7)); got != "[13]" {
		t.Fatalf("Instances(7) = %s, want [13]", got)
	}
	if f := fast.InstanceFraction(11); f != 1.0/3 {
		t.Fatalf("InstanceFraction(11) = %v, want 1/3", f)
	}
}

// TestSystemMarkUnhealthyLeased pins the leased-device semantics: a GPU
// failing under a live lease stays out of the free pool on release
// until restored, and restoring it mid-lease makes it rejoin on
// release.
func TestSystemMarkUnhealthyLeased(t *testing.T) {
	s, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(3))
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Allocate(JobRequest{NumGPUs: 2, Shape: "Ring"})
	if err != nil {
		t.Fatal(err)
	}
	victim := l.GPUs[0]
	if err := s.MarkUnhealthy(victim); err != nil {
		t.Fatal(err)
	}
	if got := len(s.FreeGPUs()); got != 6 {
		t.Fatalf("marking a leased GPU changed the free pool: %d free, want 6", got)
	}
	if err := s.Release(l); err != nil {
		t.Fatal(err)
	}
	checkAvailInvariant(t, s, "release with unhealthy member")
	if got := len(s.FreeGPUs()); got != 7 {
		t.Fatalf("unhealthy GPU rejoined on release: %d free, want 7", got)
	}
	if err := s.Restore(victim); err != nil {
		t.Fatal(err)
	}
	checkAvailInvariant(t, s, "restore after release")
	if got := len(s.FreeGPUs()); got != 8 {
		t.Fatalf("restored GPU missing from free pool: %d free, want 8", got)
	}
	// The pipeline stayed live through the whole exchange.
	l2, err := s.Allocate(JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(l2); err != nil {
		t.Fatal(err)
	}
}

// TestSystemFailedMutationsLeaveStateIdentical is the failed-mutation
// invariant suite: every erroring mutation — bad allocate, bad release,
// bad health event, bad degradation, bad repartition — must leave the
// System byte-identical to its pre-call state, proven twin-style: the
// control System never sees the erroring calls, and both must keep
// deciding identically afterwards.
func TestSystemFailedMutationsLeaveStateIdentical(t *testing.T) {
	subject, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ subject, control *Lease }
	var live []pair
	alloc := func(req JobRequest, step string) {
		t.Helper()
		ls, err := subject.Allocate(req)
		if err != nil {
			t.Fatalf("%s: subject allocate: %v", step, err)
		}
		lc, err := control.Allocate(req)
		if err != nil {
			t.Fatalf("%s: control allocate: %v", step, err)
		}
		if fmt.Sprint(ls.GPUs) != fmt.Sprint(lc.GPUs) || ls.EffBW != lc.EffBW || ls.PreservedBW != lc.PreservedBW {
			t.Fatalf("%s: decisions diverged after failed mutations: %v vs %v", step, ls.GPUs, lc.GPUs)
		}
		live = append(live, pair{ls, lc})
	}
	same := func(step string) {
		t.Helper()
		if fmt.Sprint(subject.FreeGPUs()) != fmt.Sprint(control.FreeGPUs()) {
			t.Fatalf("%s: free sets diverged:\n subject %v\n control %v", step, subject.FreeGPUs(), control.FreeGPUs())
		}
		if fmt.Sprint(subject.UnhealthyGPUs()) != fmt.Sprint(control.UnhealthyGPUs()) {
			t.Fatalf("%s: health state diverged", step)
		}
		checkAvailInvariant(t, subject, step)
	}

	alloc(JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true}, "setup")
	if err := subject.MarkUnhealthy(7); err != nil {
		t.Fatal(err)
	}
	if err := control.MarkUnhealthy(7); err != nil {
		t.Fatal(err)
	}
	same("setup")

	// Every erroring mutation hits only the subject.
	failures := []struct {
		name string
		call func() error
	}{
		{"oversized allocate", func() error {
			_, err := subject.Allocate(JobRequest{NumGPUs: 6, Shape: "Ring"})
			return err
		}},
		{"unknown shape", func() error {
			_, err := subject.Allocate(JobRequest{NumGPUs: 2, Shape: "Moebius"})
			return err
		}},
		{"nil release", func() error { return subject.Release(nil) }},
		{"unknown lease", func() error { return subject.Release(&Lease{ID: 999}) }},
		{"unknown GPU unhealthy", func() error { return subject.MarkUnhealthy(42) }},
		{"double unhealthy", func() error { return subject.MarkUnhealthy(7) }},
		{"duplicate in one event", func() error { return subject.MarkUnhealthy(1, 1) }},
		{"restore healthy GPU", func() error { return subject.Restore(0) }},
		{"atomic batch: one bad member", func() error { return subject.MarkUnhealthy(1, 7) }},
		{"degrade missing link", func() error { return subject.DegradeLink(0, 99, 5) }},
		{"degrade negative bw", func() error { return subject.DegradeLink(0, 1, -3) }},
		{"degrade NaN bw", func() error { return subject.DegradeLink(0, 1, math.NaN()) }},
		{"degrade +Inf bw", func() error { return subject.DegradeLink(0, 1, math.Inf(1)) }},
		{"degrade -Inf bw", func() error { return subject.DegradeLink(0, 1, math.Inf(-1)) }},
		{"degrade fractional bw", func() error {
			err := subject.DegradeLink(0, 1, 12.5)
			if !errors.Is(err, ErrFractionalBandwidth) {
				t.Errorf("DegradeLink(12.5) = %v, want ErrFractionalBandwidth", err)
			}
			return err
		}},
		{"degrade tiny fractional bw", func() error { return subject.DegradeLink(0, 1, 1e-9) }},
		{"repartition unknown GPU", func() error { return subject.Repartition(map[int]int{42: 2}) }},
		{"repartition out of range", func() error { return subject.Repartition(map[int]int{0: 9}) }},
		{"repartition leased GPU", func() error {
			return subject.Repartition(map[int]int{live[0].subject.GPUs[0]: 2})
		}},
		{"repartition unhealthy GPU", func() error { return subject.Repartition(map[int]int{7: 2}) }},
	}
	for _, f := range failures {
		if err := f.call(); err == nil {
			t.Fatalf("%s: mutation unexpectedly succeeded", f.name)
		}
		same(f.name)
	}

	// The twins must still agree on fresh decisions and a full drain.
	alloc(JobRequest{NumGPUs: 2, Shape: "Chain"}, "post-failure allocate")
	for _, p := range live {
		if err := subject.Release(p.subject); err != nil {
			t.Fatal(err)
		}
		if err := control.Release(p.control); err != nil {
			t.Fatal(err)
		}
	}
	same("post-failure drain")
}

// TestSystemReleaseFailureInjection: with availability a mask, a
// release has no half-way point left to fail at — the one failure a
// validated mutation can still meet is its journal append. On a
// journaled System whose journal is closed, Allocate, Release,
// MarkUnhealthy, Restore and DegradeLink must each error and leave the
// lease tables, the usable mask, the view stream and the pipeline
// counters as they were, and reopening the directory must recover
// exactly that state.
func TestSystemReleaseFailureInjection(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-v100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	held, err := s.Allocate(JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true, Owner: "a", TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	other, err := tn.Allocate(JobRequest{NumGPUs: 2, Shape: "Chain"})
	if err != nil {
		t.Fatal(err)
	}
	free := s.FreeGPUs()
	// One GPU unhealthy while leased, one unhealthy while free, one
	// link degraded: every kind of state a failed call could damage.
	if err := s.MarkUnhealthy(other.GPUs[0], free[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.DegradeLink(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fingerprint := func() string {
		// An Allocate decides before it journals, so TableServed counts
		// the refused decision; every other counter must stand.
		stats := s.CacheStats()
		stats.TableServed = 0
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Sprint(s.leases, s.leasedBy, s.owners, s.expiry, s.unhealthy, s.nextID,
			s.usable, s.views.Usable(), sortedEdges(s.top.Graph), sortedEdges(s.top.Physical), stats)
	}
	before := fingerprint()
	for _, f := range []struct {
		name string
		call func() error
	}{
		{"allocate", func() error { _, err := s.Allocate(JobRequest{NumGPUs: 2, Shape: "Chain"}); return err }},
		{"tenant allocate", func() error { _, err := tn.Allocate(JobRequest{NumGPUs: 2, Shape: "Chain"}); return err }},
		{"release", func() error { return s.Release(held) }},
		{"release with unhealthy member", func() error { return s.Release(other) }},
		{"renew", func() error { _, err := s.Renew(held.ID, time.Minute); return err }},
		{"mark unhealthy", func() error { return s.MarkUnhealthy(free[1]) }},
		{"restore free", func() error { return s.Restore(free[0]) }},
		{"restore leased", func() error { return s.Restore(other.GPUs[0]) }},
		{"degrade link", func() error { return s.DegradeLink(2, 3, 7) }},
	} {
		if err := f.call(); err == nil {
			t.Fatalf("%s: committed without a journal", f.name)
		}
		if got := fingerprint(); got != before {
			t.Fatalf("%s: failed call mutated the System:\n before %s\n after  %s", f.name, before, got)
		}
		checkAvailInvariant(t, s, f.name)
	}

	rec, err := NewSystem("dgx-v100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	assertSystemsEqual(t, "reopened", rec, s)
	checkAvailInvariant(t, rec, "reopened")
}
