package policy

import (
	"math/rand"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/match"
	"mapa/internal/matchcache"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// TestWarmedShapeChurnServedByLiveViewOnly is the acceptance check for
// the view set: with a warmed idle-state universe and a view set fed
// the allocate/release deltas, *every* Preserve decision under
// sustained churn must be served from the stream's delta-maintained
// usable mask and accounting — zero backtracking searches
// (match.Searches) AND zero full-universe mask scans (match.Filters) —
// while remaining byte-identical to the plain sequential search trace.
func TestWarmedShapeChurnServedByLiveViewOnly(t *testing.T) {
	top := topology.DGXA100()
	pattern := appgraph.Ring(3)

	live := NewPreserve(score.NewScorer(nil))
	store := matchcache.NewStore(top, 0)
	store.Warm(1, pattern)
	AttachUniverses(live, store)
	views := store.NewViews()
	AttachViews(live, views)

	vanilla := NewPreserve(score.NewScorer(nil))

	avail := top.Graph.Clone()
	free := func() []int { return avail.Vertices() }
	var leases [][]int
	rng := rand.New(rand.NewSource(7))
	req := Request{Pattern: pattern, Sensitive: true}

	decisions := 0
	for step := 0; step < 120; step++ {
		if len(leases) > 0 && (len(free()) < 3 || rng.Intn(2) == 0) {
			i := rng.Intn(len(leases))
			for _, g := range leases[i] {
				avail.AddVertex(g)
				for _, v := range avail.Vertices() {
					if v != g {
						e, _ := top.Graph.EdgeBetween(g, v)
						avail.MustAddEdge(g, v, e.Weight, e.Label)
					}
				}
			}
			views.Release(leases[i])
			leases[i] = leases[len(leases)-1]
			leases = leases[:len(leases)-1]
			continue
		}
		// The counters are pinned around the live decision alone — the
		// vanilla comparator below legitimately searches.
		searches, filters := match.Searches(), match.Filters()
		got, err := live.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if d := match.Searches() - searches; d != 0 {
			t.Fatalf("step %d: live-view decision ran %d searches, want 0", step, d)
		}
		if d := match.Filters() - filters; d != 0 {
			t.Fatalf("step %d: live-view decision ran %d full-universe scans, want 0", step, d)
		}
		want, err := vanilla.Allocate(top, avail.VertexBitset(), req)
		if err != nil {
			t.Fatal(err)
		}
		if allocString(got) != allocString(want) {
			t.Fatalf("step %d: live-view decision diverged:\n got %s\nwant %s",
				step, allocString(got), allocString(want))
		}
		if !match.IsEmbedding(pattern, avail, got.Match) {
			t.Fatalf("step %d: live-view decision returned an invalid embedding", step)
		}
		for _, g := range got.GPUs {
			avail.RemoveVertex(g)
		}
		views.Allocate(got.GPUs)
		leases = append(leases, got.GPUs)
		decisions++
	}
	if vs := views.Stats(); decisions == 0 || uint64(decisions) != vs.TableServed || vs.Rejected != 0 {
		t.Fatalf("%d decisions but view stats %+v — every churn decision must be view-served", decisions, vs)
	}
}
