package policy

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// refScoredArgmaxPreserved is the PreservedBW-primary selection as a
// full scan: every live set — every set whose GPUs are all usable — is
// priced with Eq. 3 from its table internal weight, and the argmax runs
// under PreservedBW, then the secondary metric, then the GPU set. It is
// the reference the bounded walk (preservedArgmax) must reproduce.
func refScoredArgmaxPreserved(bw *match.BandwidthAccounting, tbl *score.Table, mt *score.ModelTable, sec metric) int {
	u := tbl.Universe()
	live := graph.NewBitset(u.Sets())
	for s := 0; s < u.Sets(); s++ {
		if liveSet(bw.Usable(), tbl.SetGPUs(s)) {
			live.Set(s)
		}
	}
	inc := bw.IncidentView()
	tot := bw.FreeWeight()
	best := -1
	var bestP, bestS float64
	hasBestS := false
	for wi, w := range live {
		for ; w != 0; w &= w - 1 {
			s := wi*64 + bits.TrailingZeros64(w)
			var drop float64
			for _, g := range tbl.SetGPUs(s) {
				drop += inc[g]
			}
			ps := tot - drop + tbl.SetInternal(s)
			if ps > bestP || best < 0 {
				best, bestP, hasBestS = s, ps, false
			} else if ps == bestP {
				if !hasBestS {
					bestS = setMetric(bw, tbl, mt, sec, best)
					hasBestS = true
				}
				ss := setMetric(bw, tbl, mt, sec, s)
				if ss > bestS || (ss == bestS && lexLess(tbl.SetGPUs(s), tbl.SetGPUs(best))) {
					best, bestS = s, ss
				}
			}
		}
	}
	return best
}

// walkMachine is one machine of the walk fuzzer with its score tables
// by pattern size, built once per process.
type walkMachine struct {
	top    *topology.Topology
	maxK   int
	tables map[int]*score.Table
}

var walkMachines []*walkMachine

// walkMachineAt returns machine i of the fuzzer's catalog — dgx-a100,
// dgx-v100, torus-2d, the 72-GPU cluster (sizes up to 3: larger
// universes overflow the default capacity) and one node of a DGX-A100
// fleet — with its table for pattern size k built on first use.
func walkMachineAt(t *testing.T, i, k int) (*walkMachine, *score.Table) {
	if walkMachines == nil {
		for _, name := range []string{"dgx-a100", "dgx-v100", "torus-2d", "cluster-a100"} {
			top, err := topology.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			maxK := 5
			if top.NumGPUs() > 16 {
				maxK = 3
			}
			walkMachines = append(walkMachines, &walkMachine{top: top, maxK: maxK, tables: map[int]*score.Table{}})
		}
		node := topology.NewFleet(topology.DGXA100(), 4).Class(0)
		walkMachines = append(walkMachines, &walkMachine{top: node, maxK: 5, tables: map[int]*score.Table{}})
	}
	m := walkMachines[i%len(walkMachines)]
	k = 2 + k%(m.maxK-1)
	tbl, ok := m.tables[k]
	if !ok {
		pattern := appgraph.Chain(k)
		if k > 2 {
			pattern = appgraph.Ring(k)
		}
		tbl = score.BuildTable(m.top, pattern, match.BuildUniverse(pattern, m.top.Graph, 0))
		m.tables[k] = tbl
	}
	return m, tbl
}

// degradeEdge sets the weight of machine edge (u,v) and repairs the
// table, as a System's DegradeLink does; it returns the old weight.
func degradeEdge(top *topology.Topology, tbl *score.Table, u, v int, w float64) float64 {
	e, _ := top.Graph.EdgeBetween(u, v)
	top.Graph.MustAddEdge(u, v, w, e.Label)
	score.InvalidateMixes(top)
	tbl.RepairEdge(u, v)
	return e.Weight
}

// FuzzPreservedWalk pins the bounded PreservedBW walk against the full
// live-set scan: on a random usable mask, random health marks and
// randomly degraded links, both must pick the same set under both
// secondary metrics, with bit-identical PreservedBW. Degraded links are
// restored after each input, so the cached tables are reused intact.
func FuzzPreservedWalk(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1), uint8(255), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(2), int64(2), uint8(180), uint8(3), uint8(2))
	f.Add(uint8(2), uint8(3), int64(3), uint8(120), uint8(1), uint8(1))
	f.Add(uint8(3), uint8(1), int64(4), uint8(230), uint8(4), uint8(3))
	f.Add(uint8(3), uint8(0), int64(5), uint8(255), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(2), int64(6), uint8(255), uint8(0), uint8(2))
	// Idle switch-uniform nodes: every set ties on PreservedBW and the
	// secondary metric, so the tie cut must keep the lexicographically
	// first set.
	f.Add(uint8(4), uint8(3), int64(7), uint8(255), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(0), int64(8), uint8(255), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, machine, kRaw uint8, seed int64, density, sick, degrade uint8) {
		m, tbl := walkMachineAt(t, int(machine), int(kRaw))
		top := m.top
		rng := rand.New(rand.NewSource(seed))
		gpus := top.GPUs()
		for d := 0; d < int(degrade%4); d++ {
			u, v := gpus[rng.Intn(len(gpus))], gpus[rng.Intn(len(gpus))]
			if u == v {
				continue
			}
			old := degradeEdge(top, tbl, u, v, float64(rng.Intn(60)))
			defer degradeEdge(top, tbl, u, v, old)
		}
		free := graph.NewBitset(graph.Capacity(top.Graph))
		for _, g := range gpus {
			if rng.Intn(256) < int(density) {
				free.Set(g)
			}
		}
		bw := match.NewBandwidthAccounting(top.Graph, free, graph.Capacity(top.Graph))
		for i := 0; i < int(sick%6); i++ {
			if g := gpus[rng.Intn(len(gpus))]; bw.Usable().Has(g) {
				bw.MarkUnhealthy([]int{g})
			}
		}
		k := len(tbl.SetGPUs(0))
		if bw.UsableCount() < k {
			return
		}
		mt := tbl.ForModel(effbw.PaperModel())
		var w preservedWalk
		for _, sec := range []metric{metricEffBW, metricAggBW} {
			got := w.preservedArgmax(bw, tbl, mt, sec, k)
			want := refScoredArgmaxPreserved(bw, tbl, mt, sec)
			gp := setMetric(bw, tbl, mt, metricPreservedBW, got)
			wp := setMetric(bw, tbl, mt, metricPreservedBW, want)
			if got != want || math.Float64bits(gp) != math.Float64bits(wp) {
				t.Fatalf("%s k=%d sec=%d: walk picked set %d %v (PreservedBW %v), scan %d %v (%v)",
					top.Name, k, sec, got, tbl.SetGPUs(got), gp, want, tbl.SetGPUs(want), wp)
			}
		}
	})
}
