package mapa

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/jobs"
	"mapa/internal/match"
	"mapa/internal/policy"
	"mapa/internal/sched"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// traceConfig selects how a parity run decides: through the
// table-served pipeline (optionally prewarmed) or, searchOnly, by the
// bare policy's fresh search — with the given worker count either way.
type traceConfig struct {
	workers    int
	searchOnly bool
	warm       bool // prewarm universes for the job-mix shapes
}

// allocationTrace runs the job list through a freshly configured
// engine and renders every record's allocation-relevant fields, so two
// traces compare byte-identically only if every decision matched. The
// engine is returned for counter inspection.
func allocationTrace(t *testing.T, top *topology.Topology, policyName string, jobList []jobs.Job, cfg traceConfig) ([]string, *sched.Engine) {
	t.Helper()
	scorer := score.NewScorer(effbw.TrainedFor(top))
	p, err := policy.ByName(policyName, scorer)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workers > 1 {
		policy.SetParallelism(p, cfg.workers)
	}
	e := sched.NewEngine(top, p)
	if cfg.searchOnly {
		e.Universes = nil
	} else if cfg.warm {
		e.Universes.Warm(cfg.workers, appgraph.AllShapes(5)...)
	}
	res, err := e.Run(jobList)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]string, len(res.Records))
	for i, r := range res.Records {
		trace[i] = fmt.Sprintf("job=%d gpus=%v start=%.6f end=%.6f agg=%.6f eff=%.6f pres=%.6f",
			r.Job.ID, r.GPUs, r.Start, r.End, r.AggBW, r.PredictedEffBW, r.PreservedBW)
	}
	return trace, e
}

// TestCachedAndParallelMatchSequentialAllocations is the acceptance
// check for the match pipeline: on the integration-test workloads, the
// table-served pipeline — cold or prewarmed, built sequentially or with
// four workers — and the parallel search must each produce
// byte-identical allocation sequences to the plain sequential search.
func TestCachedAndParallelMatchSequentialAllocations(t *testing.T) {
	cases := []struct {
		topo   string
		policy string
		njobs  int
	}{
		{"dgx-v100", "preserve", 150},
		{"dgx-v100", "greedy", 150},
		{"dgx-a100", "preserve", 100},
		{"torus-2d", "preserve", 60},
	}
	for _, tc := range cases {
		t.Run(tc.topo+"/"+tc.policy, func(t *testing.T) {
			top, err := topology.ByName(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			jobList := jobs.PaperMix(1)[:tc.njobs]

			sequential, _ := allocationTrace(t, top, tc.policy, jobList, traceConfig{workers: 1, searchOnly: true})
			compare := func(name string, got []string) {
				t.Helper()
				if len(got) != len(sequential) {
					t.Fatalf("%s produced %d records, sequential %d", name, len(got), len(sequential))
				}
				for i := range sequential {
					if got[i] != sequential[i] {
						t.Fatalf("%s diverged from sequential at record %d:\n  seq: %s\n  got: %s",
							name, i, sequential[i], got[i])
					}
				}
			}

			parallel, _ := allocationTrace(t, top, tc.policy, jobList, traceConfig{workers: 4, searchOnly: true})
			compare("parallel search", parallel)
			for _, cfg := range []traceConfig{{workers: 1}, {workers: 4}, {workers: 1, warm: true}, {workers: 4, warm: true}} {
				name := fmt.Sprintf("table-served %+v", cfg)
				searches := match.Searches()
				trace, eng := allocationTrace(t, top, tc.policy, jobList, cfg)
				compare(name, trace)
				// Every decision must have come off a live view, and the
				// only searches of the whole run are the universe builds
				// (one per root and worker session at most — far fewer
				// than one per decision).
				vs, st := eng.Views.Stats(), eng.Universes.Stats()
				if vs.TableServed != uint64(len(jobList)) || vs.Rejected != 0 || st.Universes == 0 {
					t.Fatalf("%s did not serve the run: store %+v views %+v", name, st, vs)
				}
				if cfg.workers == 1 {
					if d := match.Searches() - searches; d != uint64(len(st.Builds)) {
						t.Fatalf("%s ran %d searches for %d universe builds", name, d, len(st.Builds))
					}
				}
			}
		})
	}
}

// TestSystemSteadyStateUsesCache verifies the live-allocator wiring of
// the steady-state fast path: allocate/release cycling is served
// entirely by the table path (precomputed score tables over the live
// views — zero searches after the shape's one build) and decides
// exactly like a System that searches afresh every time.
func TestSystemSteadyStateUsesCache(t *testing.T) {
	cycle := func(t *testing.T, s *System) *Lease {
		t.Helper()
		req := JobRequest{NumGPUs: 3, Shape: "Ring", Sensitive: true}
		var first *Lease
		for i := 0; i < 5; i++ {
			l, err := s.Allocate(req)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = l
			} else if fmt.Sprint(l.GPUs) != fmt.Sprint(first.GPUs) {
				t.Fatalf("iteration %d allocated %v, first %v — decisions must be reproducible", i, l.GPUs, first.GPUs)
			}
			if err := s.Release(l); err != nil {
				t.Fatal(err)
			}
		}
		return first
	}

	tabled, err := NewSystem("dgx-v100", "preserve")
	if err != nil {
		t.Fatal(err)
	}
	lt := cycle(t, tabled)
	if st := tabled.CacheStats(); st.TableServed != 5 || st.ViewRejected != 0 || st.ScoreTables != 1 || st.Universes != 1 {
		t.Fatalf("steady-state cycling was not table-served: %+v", st)
	}

	searched, err := NewSystem("dgx-v100", "preserve", searchOnly())
	if err != nil {
		t.Fatal(err)
	}
	before := match.Searches()
	ls := cycle(t, searched)
	if d := match.Searches() - before; d != 5 {
		t.Fatalf("search-only system ran %d searches for 5 decisions", d)
	}
	if st := searched.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("search-only system built or served from a pipeline: %+v", st)
	}
	if fmt.Sprint(lt.GPUs) != fmt.Sprint(ls.GPUs) ||
		lt.EffBW != ls.EffBW || lt.AggBW != ls.AggBW || lt.PreservedBW != ls.PreservedBW {
		t.Fatalf("table-served and searched decisions diverged:\n table:  %+v\n search: %+v", lt, ls)
	}
}

// TestSystemWarmedServesFirstDecisionByFilter verifies the public
// warming option end to end: a warmed System answers its very first
// request for a warmed shape off the resident universe and score table
// — never from a search — and agrees with an unwarmed System and with
// one that searches.
func TestSystemWarmedServesFirstDecisionByFilter(t *testing.T) {
	s, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(5))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Universes == 0 || st.ScoreTables != st.Universes {
		t.Fatalf("WithWarmShapes built no universes or tables: %+v", st)
	}
	req := JobRequest{NumGPUs: 4, Shape: "Ring", Sensitive: true}
	searches, universes := match.Searches(), s.CacheStats().Universes
	lw, err := s.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if d := match.Searches() - searches; d != 0 {
		t.Fatalf("warmed first decision ran %d searches", d)
	}
	if st := s.CacheStats(); st.TableServed != 1 || st.Universes != universes {
		t.Fatalf("first decision was not served from the warmed universe: %+v", st)
	}
	for name, opts := range map[string][]SystemOption{"unwarmed": nil, "search-only": {searchOnly()}} {
		other, err := NewSystem("dgx-v100", "preserve", opts...)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := other.Allocate(req)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(lo.GPUs) != fmt.Sprint(lw.GPUs) {
			t.Fatalf("warmed system allocated %v, %s %v", lw.GPUs, name, lo.GPUs)
		}
	}
}

// TestSystemBackgroundWarmingParity verifies the overlap option: a
// System built with WithBackgroundWarming serves decisions immediately
// (on-demand builds share the warmer's sync.Once — never duplicated),
// WaitWarm parks until the warm set is resident, and every decision is
// byte-identical to a synchronously warmed System's.
func TestSystemBackgroundWarmingParity(t *testing.T) {
	sync1, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewSystem("dgx-v100", "preserve", WithWarmShapes(5), WithWorkers(4), WithBackgroundWarming())
	if err != nil {
		t.Fatal(err)
	}
	// Decide while warming may still be in flight.
	req := JobRequest{NumGPUs: 4, Shape: "Ring", Sensitive: true}
	lSync, err := sync1.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	lBg, err := bg.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lBg.GPUs) != fmt.Sprint(lSync.GPUs) {
		t.Fatalf("background-warmed system allocated %v, synchronous %v", lBg.GPUs, lSync.GPUs)
	}
	bg.WaitWarm()
	bg.WaitWarm() // idempotent
	stSync, stBg := sync1.CacheStats(), bg.CacheStats()
	if stBg.Universes != stSync.Universes {
		t.Fatalf("after WaitWarm %d universes, synchronous warm %d", stBg.Universes, stSync.Universes)
	}
	if stBg.UniverseBuildTime <= 0 || stSync.UniverseBuildTime <= 0 {
		t.Fatalf("universe build time not surfaced: bg=%v sync=%v", stBg.UniverseBuildTime, stSync.UniverseBuildTime)
	}
	// WaitWarm on a system without background warming returns at once.
	sync1.WaitWarm()
}

// liveViewChurnVerify asserts the byte-identity the decision path
// relies on: the embeddings live on the stream's delta-maintained
// usable mask — every closed-form embedding on a set of usable GPUs,
// in emission order — and a fresh deduplicated search on the induced
// availability subgraph must agree on keys and representative
// assignment sequences.
func liveViewChurnVerify(t *testing.T, u *match.Universe, bw *match.BandwidthAccounting, top *topology.Topology, pattern *graph.Graph, free []int, step string) {
	t.Helper()
	avail := top.Graph.InducedSubgraph(free)
	live := closedFormLive(u, bw.Usable())
	ms, keys := match.FindAllDedupedCappedKeys(pattern, avail, 0)
	if len(ms) != len(live) {
		t.Fatalf("%s: fresh search found %d classes, live view %d", step, len(ms), len(live))
	}
	for j, got := range live {
		if key := got.Key(pattern, top.Graph); key != keys[j] {
			t.Fatalf("%s class %d: live-view key %q, search key %q", step, j, key, keys[j])
		}
		if !slices.Equal(got.Data, ms[j].Data) || !slices.Equal(got.Pattern, ms[j].Pattern) {
			t.Fatalf("%s class %d: representative differs:\n got %v->%v\nwant %v->%v",
				step, j, got.Pattern, got.Data, ms[j].Pattern, ms[j].Data)
		}
	}
}

// closedFormLive lists a universe's embeddings on the sets whose
// vertices all lie in usable — each set's ascending vertices composed
// with every permutation — in the search's emission order,
// lexicographic in the data tuple.
func closedFormLive(u *match.Universe, usable graph.Bitset) []match.Match {
	verts, k := u.Vertices(), len(u.Order())
	pos := make([]int, k)
	for i := range pos {
		pos[i] = i
	}
	var out []match.Match
	for ok := u.Sets() > 0; ok; ok = match.NextSubset(pos, len(verts)) {
		live := true
		for _, p := range pos {
			live = live && usable.Has(verts[p])
		}
		for p := 0; live && p < u.Perms(); p++ {
			data := make([]int, k)
			for j, q := range u.Perm(p) {
				data[j] = verts[pos[q]]
			}
			out = append(out, match.Match{Pattern: u.Order(), Data: data})
		}
	}
	slices.SortFunc(out, func(a, b match.Match) int { return slices.Compare(a.Data, b.Data) })
	return out
}

// TestLiveViewChurnParityRandomized is the headline churn-parity
// suite: >=500 seeded, interleaved allocate/release steps on the
// DGX-A100 and on the 9-node 72-GPU cluster (whose masks span multiple
// bitset words), with the stream's usable mask over the closed-form
// universe and a fresh FindAllDedupedCapped search cross-checked
// byte-for-byte after every single step.
func TestLiveViewChurnParityRandomized(t *testing.T) {
	cases := []struct {
		name              string
		top               *topology.Topology
		steps             int
		freeLow, freeHigh int
	}{
		// The DGX churns across its whole range; the cluster churns in
		// a mostly-busy window (the realistic multi-tenant regime) so
		// the per-step oracle search stays tractable while free masks
		// still straddle the 64-bit word boundary.
		{"dgx-a100", topology.DGXA100(), 500, 2, 8},
		{"cluster-a100", topology.ClusterA100(9), 500, 8, 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pattern := appgraph.Ring(3)
			u := match.BuildUniverse(pattern, tc.top.Graph, 0)
			if !u.Complete() {
				t.Fatal("idle-state universe must be complete")
			}
			bw := match.NewBandwidthAccounting(tc.top.Graph, tc.top.Graph.VertexBitset(), graph.Capacity(tc.top.Graph))
			rng := rand.New(rand.NewSource(99))

			free := append([]int(nil), tc.top.GPUs()...)
			var deltas [][]int // outstanding allocations, released in random order
			takeFree := func(k int) []int {
				out := make([]int, 0, k)
				for len(out) < k {
					i := rng.Intn(len(free))
					out = append(out, free[i])
					free[i] = free[len(free)-1]
					free = free[:len(free)-1]
				}
				return out
			}
			// Drain the machine into the churn window before the
			// measured steps (setup, not asserted per step).
			for len(free) > tc.freeHigh {
				k := 1 + rng.Intn(4)
				if len(free)-k < tc.freeLow {
					k = len(free) - tc.freeLow
				}
				d := takeFree(k)
				deltas = append(deltas, d)
				bw.Allocate(d)
			}
			for step := 0; step < tc.steps; step++ {
				k := 1 + rng.Intn(3)
				release := len(free)-k < tc.freeLow ||
					(len(free)+1 <= tc.freeHigh && len(deltas) > 0 && rng.Intn(2) == 0)
				if release {
					i := rng.Intn(len(deltas))
					d := deltas[i]
					deltas[i] = deltas[len(deltas)-1]
					deltas = deltas[:len(deltas)-1]
					bw.Release(d)
					free = append(free, d...)
				} else {
					d := takeFree(k)
					deltas = append(deltas, d)
					bw.Allocate(d)
				}
				liveViewChurnVerify(t, u, bw, tc.top, pattern, free, fmt.Sprintf("step %d", step))
			}
			// Full drain must restore the idle state exactly.
			for _, d := range deltas {
				bw.Release(d)
				free = append(free, d...)
			}
			liveViewChurnVerify(t, u, bw, tc.top, pattern, free, "after drain")
			if bw.UsableCount() != tc.top.NumGPUs() {
				t.Fatalf("drained stream holds %d usable GPUs, machine %d", bw.UsableCount(), tc.top.NumGPUs())
			}
		})
	}
}
