package matchcache

import (
	"testing"
	"time"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
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
		u := match.BuildUniverse(appgraph.Ring(tc.k), tmpl.Graph, 0, 1)
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

// TestFleetViewsWalkPostingsOnlyOnConsult pins the cost model of the
// lazy node views by count, on a 1,000-node DGX-A100 fleet with nine
// streams (a System's and eight tenants') fed the same deltas: deltas
// alone walk no posting list, however many node views are
// materialized; a consult walks, on the nodes that can host the
// pattern, the postings of the GPUs whose usability changed since that
// node's previous consult — a node too drained to host it is skipped
// and pays nothing; and a second consult on an unchanged stream walks
// nothing. On the complete 8-GPU class a GPU sits in C(7,2) = 21 ring-3
// and C(7,3) = 35 ring-4 GPU sets.
func TestFleetViewsWalkPostingsOnlyOnConsult(t *testing.T) {
	const nodes, hosts = 1000, 10
	fleet := topology.NewFleet(topology.DGXA100(), nodes)
	fs := NewFleetStore(fleet, 0)
	streams := make([]*FleetViews, 9)
	for i := range streams {
		streams[i] = fs.NewFleetViews()
	}
	publish := func(op func(*FleetViews, []int), gpus ...int) {
		for _, fv := range streams {
			op(fv, gpus)
		}
	}
	walked := func() (n uint64) {
		for _, fv := range streams {
			for _, nv := range fv.nodes {
				n += nv.walked
			}
		}
		return n
	}
	gpu := func(node, local int) int { return fleet.Offset(node) + local }
	drain := func(op func(*FleetViews, []int), node int) {
		publish(op, gpu(node, 0), gpu(node, 1), gpu(node, 2), gpu(node, 3), gpu(node, 4), gpu(node, 5))
	}
	ring3, ring4 := appgraph.Ring(3), appgraph.Ring(4)
	consult := func(pattern *graph.Graph) {
		t.Helper()
		for _, fv := range streams {
			if !fv.SelectNodes(pattern, fv.Usable(), 0, 1, func(*NodeDecision) {}) {
				t.Fatal("in-sync consult was declined")
			}
		}
	}

	// Every node past the first few keeps 2 usable GPUs: too few to host
	// either ring, so no consult below reaches them.
	for j := hosts; j < nodes; j++ {
		drain((*FleetViews).Allocate, j)
	}
	consult(ring3)
	consult(ring4)
	if n := walked(); n != 0 {
		t.Fatalf("deltas and first consults walked %d postings", n)
	}
	for _, fv := range streams {
		if vs := fv.Stats(); vs.Views != 2*hosts {
			t.Fatalf("stream materialized %d node views, want %d", vs.Views, 2*hosts)
		}
	}
	for i := 0; i < 50; i++ {
		publish((*FleetViews).Allocate, gpu(3, 0), gpu(3, 1), gpu(3, 2))
		publish((*FleetViews).MarkUnhealthy, gpu(5, 6))
		publish((*FleetViews).Release, gpu(500, 0))
		publish((*FleetViews).Allocate, gpu(500, 0))
		publish((*FleetViews).RestoreHealth, gpu(5, 6))
		publish((*FleetViews).Release, gpu(3, 0), gpu(3, 1), gpu(3, 2))
	}
	if n := walked(); n != 0 {
		t.Fatalf("300 deltas per stream over %d node views walked %d postings", 9*2*hosts, n)
	}
	// ...and neither does a consult after deltas that cancelled.
	consult(ring3)
	consult(ring4)
	if n := walked(); n != 0 {
		t.Fatalf("consults after cancelled deltas walked %d postings", n)
	}

	// A consult pays for its hosting nodes' net change, once: GPU 1 of
	// node 2 and GPU 0 of node 7 — not the six GPUs node 9 lost, since
	// node 9 can no longer host a ring.
	publish((*FleetViews).Allocate, gpu(2, 1), gpu(7, 0), gpu(7, 5))
	drain((*FleetViews).Allocate, 9)
	publish((*FleetViews).Release, gpu(7, 5))
	consult(ring3)
	u3 := streams[0].nodes[2].slots[canon.info(ring3).canon].lv.Universe()
	want := uint64(len(streams)) * setPostings(u3, 1, 0)
	if n := walked(); want == 0 || n != want {
		t.Fatalf("ring-3 consult walked %d postings, the changed GPUs hold %d", n, want)
	}
	consult(ring3)
	if n := walked(); n != want {
		t.Fatalf("a second consult on an unchanged stream walked %d more postings", n-want)
	}
	consult(ring4)
	u4 := streams[0].nodes[2].slots[canon.info(ring4).canon].lv.Universe()
	if want += uint64(len(streams)) * setPostings(u4, 1, 0); walked() != want || want != 9*(2*21+2*35) {
		t.Fatalf("after the ring-4 consult %d postings walked, want %d (%d)", walked(), want, 9*(2*21+2*35))
	}
	// Node 9 regains its GPUs before it next hosts a consult: its views
	// never see the round trip.
	drain((*FleetViews).Release, 9)
	consult(ring3)
	consult(ring4)
	if n := walked(); n != want {
		t.Fatalf("node 9's cancelled drain walked %d postings", n-want)
	}
}
