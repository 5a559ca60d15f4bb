package score

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// TestTableMatchesDynamicScorer pins the table's static columns, read
// off the topology's pair table, against the dynamic evaluators, which
// walk the hardware graph, candidate by candidate on the idle machine:
// AggBW, the ring-channel mix, the Eq. 2 prediction, and the Eq. 3
// decomposition (idle total − incident sum + internal == the full-graph
// PreservedBandwidth sweep, which the ledger must also match) must agree
// exactly. It covers every shape of sizes 2–5 on
// four machines plus the 72-GPU cluster's Chain(3), whose GPU IDs span
// two bitset words. A degraded leg then halves a link, drops the
// topology's mixes and pair table (InvalidateMixes), repairs every table
// (RepairEdge) and compares again: a stale pair table fails it.
func TestTableMatchesDynamicScorer(t *testing.T) {
	type leg struct {
		top      string
		patterns []*graph.Graph
	}
	legs := []leg{{"cluster-a100", []*graph.Graph{appgraph.Chain(3)}}}
	for _, name := range []string{"dgx-v100", "dgx-a100", "torus-2d", "cubemesh-16"} {
		legs = append(legs, leg{name, appgraph.AllShapes(5)})
	}
	s := NewScorer(nil)
	sweeps := make(map[string]map[string]eq3Sweep)
	for _, l := range legs {
		t.Run(l.top, func(t *testing.T) {
			for _, pattern := range l.patterns {
				// A fresh machine per pattern: the degraded leg mutates it.
				top, err := topology.ByName(l.top)
				if err != nil {
					t.Fatal(err)
				}
				u := match.BuildUniverse(pattern, top.Graph, 0)
				if !u.Complete() {
					t.Fatal("universe must be complete")
				}
				seq, par := BuildTable(top, pattern, u, 1), BuildTable(top, pattern, u, 4)
				checkTable(t, "idle", s, top, pattern, seq, par, sweeps)
				e := top.Graph.Edges()[0]
				top.Graph.MustAddEdge(e.U, e.V, math.Floor(e.Weight/2), e.Label)
				if pe, ok := top.Physical.EdgeBetween(e.U, e.V); ok {
					top.Physical.MustAddEdge(e.U, e.V, math.Floor(e.Weight/2), pe.Label)
				}
				InvalidateMixes(top)
				if seq.RepairEdge(e.U, e.V) == 0 || par.RepairEdge(e.U, e.V) == 0 {
					if pattern.NumVertices() < 4 {
						continue // no small pattern need cross the halved link
					}
					t.Fatalf("%v: no candidate holds link (%d,%d): the degraded leg is vacuous", pattern.Edges(), e.U, e.V)
				}
				checkTable(t, "degraded", s, top, pattern, seq, par, sweeps)
			}
		})
	}
}

// eq3Sweep is the full-graph Eq. 3 reference for one GPU set on one
// machine state: PreservedBandwidth's sweep and the set's incident
// weight, summed over IncidentEdges.
type eq3Sweep struct{ ref, incident float64 }

// checkTable compares every candidate of tbl with the dynamic scorer on
// top's idle machine, and par — the same table built in parallel —
// with tbl column by column. sweeps memoizes the Eq. 3 reference by the
// machine's fingerprint and the GPU set, since it depends on nothing else.
func checkTable(t *testing.T, leg string, s *Scorer, top *topology.Topology, pattern *graph.Graph, tbl, par *Table, sweeps map[string]map[string]eq3Sweep) {
	t.Helper()
	u := tbl.Universe()
	if tbl.Len() != u.Len() || par.Len() != u.Len() {
		t.Fatalf("%s: tables hold %d and %d rows, universe %d", leg, tbl.Len(), par.Len(), u.Len())
	}
	for s := 0; s < u.Sets(); s++ {
		if tbl.KeyRep(s) != par.KeyRep(s) || tbl.AggRep(s) != par.AggRep(s) {
			t.Fatalf("%s set %d: representatives %d/%d, parallel build %d/%d",
				leg, s, tbl.KeyRep(s), tbl.AggRep(s), par.KeyRep(s), par.AggRep(s))
		}
		if par.SetAggBW(s) != tbl.SetAggBW(s) || par.SetMix(s) != tbl.SetMix(s) || par.SetInternal(s) != tbl.SetInternal(s) {
			t.Fatalf("%s set %d: parallel build differs", leg, s)
		}
	}
	mt := tbl.ForModel(s.Model)
	led := NewLedger(top.Graph)
	idle := top.Graph.TotalWeight()
	state := sweeps[top.Graph.Fingerprint()]
	if state == nil {
		state = make(map[string]eq3Sweep)
		sweeps[top.Graph.Fingerprint()] = state
	}
	for i := 0; i < u.Len(); i++ {
		set, p := i/u.Perms(), i%u.Perms()
		m := embedding(tbl, set, p)
		want := s.ScoreLedger(top, pattern, top.Graph, m, led)
		if got := tbl.AggBW(set, p); got != want.AggBW || par.AggBW(set, p) != got {
			t.Fatalf("%s %v candidate %d: AggBW %g (parallel build %g), dynamic %g", leg, m.Data, i, got, par.AggBW(set, p), want.AggBW)
		}
		if tbl.SetMix(set) != want.Mix {
			t.Fatalf("%s %v candidate %d: mix %+v, dynamic %+v", leg, m.Data, i, tbl.SetMix(set), want.Mix)
		}
		if mt.SetEffBW(set) != want.EffBW {
			t.Fatalf("%s %v candidate %d: EffBW %g, dynamic %g", leg, m.Data, i, mt.SetEffBW(set), want.EffBW)
		}
		// Eq. 3 decomposition against the full-graph sweep: the state
		// terms are the whole machine's totals, walked edge by edge rather
		// than read off the ledger.
		gpus := tbl.SetGPUs(set)
		if !slices.Equal(gpus, m.DataVertices()) {
			t.Fatalf("%s candidate %d: set %v, embedding %v", leg, i, gpus, m.Data)
		}
		key := fmt.Sprint(gpus)
		sw, ok := state[key]
		if !ok {
			sw.ref = PreservedBandwidth(top.Graph, gpus)
			for _, g := range gpus {
				for _, e := range top.Graph.IncidentEdges(g) {
					sw.incident += e.Weight
				}
			}
			state[key] = sw
		}
		if got := idle - sw.incident + tbl.SetInternal(set); got != sw.ref {
			t.Fatalf("%s %v candidate %d: delta-decomposed PreservedBW %g, full-graph sweep %g", leg, m.Data, i, got, sw.ref)
		}
		if want.PreservedBW != sw.ref {
			t.Fatalf("%s %v candidate %d: ledger PreservedBW %g, full-graph sweep %g", leg, m.Data, i, want.PreservedBW, sw.ref)
		}
	}
}

// embedding returns candidate (s, p) of the table's universe as a
// Match: set s's GPUs composed with permutation p.
func embedding(tbl *Table, s, p int) match.Match {
	data := make([]int, tbl.k)
	tbl.embed(data, s, p)
	return match.Match{Pattern: tbl.Universe().Order(), Data: data}
}

// TestPairTablePreservedMatchesInducedSubgraph pins the pair table's
// Eq. 3, read off the usable mask's words, against PreservedBandwidth
// on the induced availability graph, on random masks of the 72-GPU
// cluster with chosen GPUs in both words — the second word's masking is
// what a single-word machine never exercises.
func TestPairTablePreservedMatchesInducedSubgraph(t *testing.T) {
	top, err := topology.ByName("cluster-a100")
	if err != nil {
		t.Fatal(err)
	}
	pt := mixesOf(top).pairsOf()
	n := top.NumGPUs()
	if n <= 64 {
		t.Fatalf("%d GPUs fit one word", n)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		usable := graph.NewBitset(n)
		for g := 0; g < n; g++ {
			if rng.Intn(3) > 0 {
				usable.Set(g)
			}
		}
		members := usable.Members()
		var gpus []int
		for _, g := range rng.Perm(len(members)) {
			if g := members[g]; g >= 64 || rng.Intn(4) == 0 {
				gpus = append(gpus, g)
			}
			if len(gpus) == 1+trial%5 {
				break
			}
		}
		slices.Sort(gpus)
		want := PreservedBandwidth(top.Graph.InducedSubgraph(members), gpus)
		if got := pt.preserved(usable, gpus); got != want {
			t.Fatalf("trial %d: preserved(%v) = %g, induced subgraph %g", trial, gpus, got, want)
		}
	}
}

// TestTableOrders pins the precomputed set orders and the per-set
// representatives, on a Ring(4) universe where every GPU set holds
// three embeddings of differing AggBW: KeyRep must be the set's
// minimum-key permutation and AggRep its maximum-AggBW one (ties to the
// minimum key), SetAggBW the AggRep's; AggGroups must sort the sets under the full Greedy
// order of their AggRep (SetAggBW desc, EffBW desc, GPU set — a strict
// total order, since sets differ in their GPUs), EffGroups by EffBW
// descending; and both group-end indexes must delimit exactly the
// equal-primary runs.
func TestTableOrders(t *testing.T) {
	top := topology.DGXV100()
	pattern := ringPattern(4)
	u := match.BuildUniverse(pattern, top.Graph, 0)
	tbl := BuildTable(top, pattern, u, 1)
	model := effbw.PaperModel()
	mt := tbl.ForModel(model)

	if u.Perms() != 3 {
		t.Fatalf("Ring(4) universe has %d embeddings per set, want 3", u.Perms())
	}
	ky := match.NewKeyer(pattern, u.Order())
	keyOf := func(s, p int) string { return string(ky.KeyBytes(embedding(tbl, s, p))) }
	spread := false
	for s := 0; s < u.Sets(); s++ {
		kr, ar := tbl.KeyRep(s), tbl.AggRep(s)
		for p := 0; p < u.Perms(); p++ {
			if keyOf(s, p) < keyOf(s, kr) {
				t.Fatalf("set %d: KeyRep %d, but embedding %d has a smaller key", s, kr, p)
			}
			if tbl.AggBW(s, p) > tbl.AggBW(s, ar) || (tbl.AggBW(s, p) == tbl.AggBW(s, ar) && keyOf(s, p) < keyOf(s, ar)) {
				t.Fatalf("set %d: AggRep %d, but embedding %d precedes it", s, ar, p)
			}
			spread = spread || tbl.AggBW(s, p) != tbl.AggBW(s, ar)
		}
		if tbl.SetAggBW(s) != tbl.AggBW(s, ar) {
			t.Fatalf("set %d: SetAggBW %g, its AggRep's %g", s, tbl.SetAggBW(s), tbl.AggBW(s, ar))
		}
	}
	if !spread {
		t.Fatal("no set's embeddings differ in AggBW: AggRep is untested")
	}

	agg, aggEnds := mt.AggGroups()
	if len(agg) != u.Sets() {
		t.Fatalf("AggGroups has %d entries, want %d sets", len(agg), u.Sets())
	}
	for n := 1; n < len(agg); n++ {
		i, j := int(agg[n-1]), int(agg[n])
		switch {
		case tbl.SetAggBW(i) > tbl.SetAggBW(j):
		case tbl.SetAggBW(i) < tbl.SetAggBW(j):
			t.Fatalf("AggGroups[%d..]: AggBW ascends (%g < %g)", n-1, tbl.SetAggBW(i), tbl.SetAggBW(j))
		case mt.SetEffBW(i) > mt.SetEffBW(j):
		case mt.SetEffBW(i) < mt.SetEffBW(j):
			t.Fatalf("AggGroups[%d..]: EffBW tie-break ascends", n-1)
		case compareInts(tbl.SetGPUs(i), tbl.SetGPUs(j)) >= 0:
			t.Fatalf("AggGroups[%d..]: GPU tie-break out of order (total order violated)", n-1)
		}
	}
	eff, effEnds := mt.EffGroups()
	for n := 1; n < len(eff); n++ {
		if mt.SetEffBW(int(eff[n-1])) < mt.SetEffBW(int(eff[n])) {
			t.Fatalf("EffGroups[%d..]: EffBW ascends", n-1)
		}
	}
	for _, tc := range []struct {
		name      string
		ord, ends []int32
		val       func(s int) float64
	}{{"AggGroups", agg, aggEnds, tbl.SetAggBW}, {"EffGroups", eff, effEnds, mt.SetEffBW}} {
		for j := range tc.ord {
			e := int(tc.ends[j])
			if e <= j || e > len(tc.ord) || tc.val(int(tc.ord[e-1])) != tc.val(int(tc.ord[j])) ||
				(e < len(tc.ord) && tc.val(int(tc.ord[e])) == tc.val(int(tc.ord[j]))) {
				t.Fatalf("%s: ends[%d] = %d does not close the equal-primary run", tc.name, j, e)
			}
		}
	}
	// Per-model artifacts are memoized by model identity.
	if tbl.ForModel(model) != mt {
		t.Fatal("ForModel must memoize per model")
	}
	if tbl.ForModel(effbw.PaperModel()) == mt {
		t.Fatal("distinct model values must get distinct views")
	}
}

// TestMixMemoKeyedByTopologyInstance is the regression test for the
// process-wide mix memo's key: distinct topology values sharing a Name
// (e.g. different MIG splits of one machine both render as
// "name+MIG") must not serve each other's ring-channel decompositions.
func TestMixMemoKeyedByTopologyInstance(t *testing.T) {
	base := topology.DGXV100()
	a := topology.DGXV100()
	// Same name, different link structure: drop every NVLink so only
	// PCIe remains — any shared {0,1} decomposition would differ.
	pcie := graphAllPCIe(base)
	b := &topology.Topology{Name: a.Name, Graph: pcie, Physical: pcie, Sockets: base.Sockets}
	s := NewScorer(nil)
	mixA := s.AllocationMix(a, []int{0, 1})
	mixB := s.AllocationMix(b, []int{0, 1})
	if mixA == mixB {
		t.Fatalf("same-name topologies with different links got one memoized mix: %+v", mixA)
	}
	if mixA.Y != 1 || mixB.Z != 1 {
		t.Fatalf("mixes wrong: NVLink pair %+v, PCIe-only pair %+v", mixA, mixB)
	}
}

// graphAllPCIe rebuilds a topology's graph with every link demoted to
// PCIe.
func graphAllPCIe(top *topology.Topology) *graph.Graph {
	g := graph.New()
	for _, e := range top.Graph.Edges() {
		g.MustAddEdge(e.U, e.V, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
	}
	return g
}

// TestLedgerMatchesPreservedBandwidth pins the per-decision ledger
// against the reference Eq. 3 evaluator.
func TestLedgerMatchesPreservedBandwidth(t *testing.T) {
	top := topology.DGXV100()
	avail := top.Graph.InducedSubgraph([]int{0, 1, 3, 4, 6, 7})
	led := NewLedger(avail)
	for _, set := range [][]int{nil, {0}, {0, 1}, {0, 3, 4}, {1, 6, 7}} {
		if got, want := led.Preserved(set), PreservedBandwidth(avail, set); got != want {
			t.Fatalf("Preserved(%v) = %g, reference %g", set, got, want)
		}
	}
}
