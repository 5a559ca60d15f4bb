package matchcache

import (
	"testing"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

func tableRing(k int) *graph.Graph {
	g := graph.New()
	for v := 0; v < k; v++ {
		g.MustAddEdge(v, (v+1)%k, 1, 0)
	}
	return g
}

// TestWarmBuildsScoreTables: Warm must leave each complete shape with a
// built score table (counted in the stats), and SelectLive must serve
// from it with the counters advancing.
func TestWarmBuildsScoreTables(t *testing.T) {
	top := topology.DGXV100()
	s := NewStore(top, 0)
	ring := tableRing(3)
	s.Warm(0, ring, tableRing(4))
	st := s.Stats()
	if st.Tables != 2 || st.TableTime <= 0 {
		t.Fatalf("Warm built %d tables in %v, want 2 in > 0", st.Tables, st.TableTime)
	}

	v := s.NewViews()
	called := false
	ok := v.SelectLive(ring, top.Graph.VertexBitset(), 0, func(bw *match.BandwidthAccounting, tbl *score.Table, order []int) {
		called = true
		if bw == nil {
			t.Error("SelectLive must hand out the stream's bandwidth accounting")
		} else if bw.FreeWeight() != top.Graph.TotalWeight() {
			t.Errorf("idle FreeWeight = %g, want %g", bw.FreeWeight(), top.Graph.TotalWeight())
		}
		if tbl == nil || tbl.Len() != s.universe(canon.info(ring), ring).u.Len() {
			t.Errorf("table misaligned with universe")
		}
		if order != nil {
			t.Errorf("structurally identical request needs no remap, got %v", order)
		}
	})
	if !ok || !called {
		t.Fatalf("SelectLive declined a warmed shape (ok=%v called=%v)", ok, called)
	}
	if vs := v.Stats(); vs.TableServed != 1 || vs.Rejected != 0 {
		t.Fatalf("SelectLive counters: %+v", vs)
	}
}

// TestSelectLiveDisabledAndOutOfSync: a policy with no view set
// attached (nil) is declined without counting anything; a mask that
// disagrees with the tracked stream is declined and counted Rejected —
// SelectLive is the only place left that can count it.
func TestSelectLiveDisabledAndOutOfSync(t *testing.T) {
	top := topology.DGXV100()
	ring := tableRing(3)
	sel := func(*match.BandwidthAccounting, *score.Table, []int) {
		t.Error("a declined SelectLive must not run the selection")
	}

	var none *Views
	if none.SelectLive(ring, top.Graph.VertexBitset(), 0, sel) {
		t.Fatal("SelectLive must decline on a nil view set")
	}
	if vs := none.Stats(); vs != (ViewStats{}) {
		t.Fatalf("a nil view set must count nothing: %+v", vs)
	}

	on := NewStore(top, 0)
	on.Warm(0, ring)
	v := on.NewViews()
	// Mask out of sync: the view tracks an idle machine but the request
	// claims GPU 0 is busy.
	stale := without(top.Graph, []int{0})
	if v.SelectLive(ring, stale.VertexBitset(), 0, sel) {
		t.Fatal("SelectLive must decline an out-of-sync mask")
	}
	if vs := v.Stats(); vs.TableServed != 0 || vs.Rejected != 1 {
		t.Fatalf("declined SelectLive must count one rejection: %+v", vs)
	}
}
