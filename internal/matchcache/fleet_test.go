package matchcache

import (
	"testing"
	"time"

	"mapa/internal/appgraph"
	"mapa/internal/match"
	"mapa/internal/topology"
)

// TestFleetTemplateGoldenCounts pins the closed-form template sizes on
// the DGX-A100 class (a switch-uniform complete graph on 8 GPUs):
// ring-3 has one equivalence class per 3-set — C(8,3) = 56 — and
// ring-4 has the three distinct Hamiltonian-cycle edge sets per 4-set
// — 3·C(8,4) = 210.
func TestFleetTemplateGoldenCounts(t *testing.T) {
	tmpl := topology.DGXA100()
	for _, tc := range []struct {
		k, want int
	}{
		{3, 56},
		{4, 210},
	} {
		u := match.BuildUniverse(appgraph.Ring(tc.k), tmpl.Graph, 0)
		if !u.Complete() {
			t.Fatalf("ring-%d class universe incomplete", tc.k)
		}
		if u.Len() != tc.want {
			t.Fatalf("ring-%d class universe = %d candidates, want %d", tc.k, u.Len(), tc.want)
		}
	}
}

// TestFleetStoreSizeIsNodeCountInvariant pins the tentpole memory
// claim: warming a 1,000-node single-class fleet builds exactly the
// template set a 2-node fleet does — same universe count, same table
// count, same candidates — because cost is O(distinct classes ×
// shapes), never O(nodes × shapes).
func TestFleetStoreSizeIsNodeCountInvariant(t *testing.T) {
	tmpl := topology.DGXA100()
	shapes := appgraph.AllShapes(4)
	small := NewFleetStore(topology.NewFleet(tmpl, 2), 0)
	large := NewFleetStore(topology.NewFleet(tmpl, 1000), 0)
	nSmall := small.Warm(1, shapes...)
	nLarge := large.Warm(1, shapes...)
	if nSmall == 0 {
		t.Fatal("warm built no universes")
	}
	if nSmall != nLarge {
		t.Fatalf("warm built %d universes at 2 nodes, %d at 1000", nSmall, nLarge)
	}
	ss, ls := small.Stats(), large.Stats()
	if ss.Universes != ls.Universes || ss.Tables != ls.Tables {
		t.Fatalf("store footprint differs: 2 nodes %d universes / %d tables, 1000 nodes %d / %d",
			ss.Universes, ss.Tables, ls.Universes, ls.Tables)
	}
}

// TestFleetTemplateBuildWithinFlatBudget is the acceptance timing
// bound: building the full 1,000-node fleet's template store must cost
// no more than twice the 9-node flat machine's store build for the
// same shapes. (In practice it is orders of magnitude cheaper — the
// template build enumerates one 8-GPU class, the flat build a 72-GPU
// machine.)
func TestFleetTemplateBuildWithinFlatBudget(t *testing.T) {
	shapes := appgraph.AllShapes(4)
	flatStart := time.Now()
	flatStore := NewStore(topology.ClusterA100(9), 0)
	flatStore.Warm(4, shapes...)
	flatDur := time.Since(flatStart)

	tmplStart := time.Now()
	tmplStore := NewFleetStore(topology.NewFleet(topology.DGXA100(), 1000), 0)
	tmplStore.Warm(4, shapes...)
	tmplDur := time.Since(tmplStart)

	if tmplDur > 2*flatDur {
		t.Fatalf("1000-node template build %v exceeds 2x the 9-node flat build %v", tmplDur, flatDur)
	}
	t.Logf("template build %v vs flat build %v", tmplDur, flatDur)
}
