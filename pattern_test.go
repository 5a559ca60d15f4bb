package mapa

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/policy"
)

func TestNewPattern(t *testing.T) {
	p, err := NewPattern("Ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs() != 4 || p.NumEdges() != 4 {
		t.Fatalf("ring pattern: V=%d E=%d", p.NumGPUs(), p.NumEdges())
	}
	if _, err := NewPattern("Pentagram", 4); err == nil {
		t.Error("unknown shape should error")
	}
	if _, err := NewPattern("Ring", 0); err == nil {
		t.Error("zero GPUs should error")
	}
}

func TestPatternFromCalls(t *testing.T) {
	p, err := PatternFromCalls([]CollectiveCall{
		{API: CallAllReduce, Devices: []int{0, 1, 2, 3}, Bytes: 1 << 24},
		{API: CallMemcpyPeer, Devices: []int{0, 2}, Bytes: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs() != 4 {
		t.Fatalf("pattern GPUs = %d", p.NumGPUs())
	}
	// Ring (4 edges) plus the explicit 0-2 copy.
	if p.NumEdges() != 5 {
		t.Fatalf("pattern edges = %d, want 5", p.NumEdges())
	}
	if _, err := PatternFromCalls(nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := PatternFromCalls([]CollectiveCall{{API: "cudaLaunchKernel", Devices: []int{0, 1}}}); err == nil {
		t.Error("unknown API should error")
	}
}

func TestPatternFromProfile(t *testing.T) {
	profile := "0 1 2000000\n1 2 3000000\n2 0 100\n"
	p, err := PatternFromProfile(strings.NewReader(profile), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs() != 3 || p.NumEdges() != 2 {
		t.Fatalf("pattern: V=%d E=%d", p.NumGPUs(), p.NumEdges())
	}
	if !strings.Contains(p.DOT(), "graph") {
		t.Error("DOT output malformed")
	}
	if _, err := PatternFromProfile(strings.NewReader("garbage"), 0); err == nil {
		t.Error("bad profile should error")
	}
}

func TestAllocatePattern(t *testing.T) {
	sys, err := NewSystem("dgx-v100", "preserve")
	if err != nil {
		t.Fatal(err)
	}
	p, err := PatternFromCalls([]CollectiveCall{
		{API: CallAllReduce, Devices: []int{0, 1, 2}, Bytes: 1 << 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := sys.AllocatePattern(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.GPUs) != 3 || lease.EffBW <= 0 {
		t.Fatalf("lease = %+v", lease)
	}
	if err := sys.Release(lease); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AllocatePattern(nil, true); err == nil {
		t.Error("nil pattern should error")
	}
}

func TestAllocatePatternExhaustion(t *testing.T) {
	sys, err := NewSystem("summit", "greedy")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPattern("Ring", 5)
	if _, err := sys.AllocatePattern(p, true); err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPattern("Ring", 2)
	if _, err := sys.AllocatePattern(p2, true); err == nil {
		t.Error("second allocation should fail with 1 GPU free")
	}
}

// TestRequestPatternMemo pins what a System's pattern memo holds: one
// graph per parsed (shape, size) whose universe a store keeps, shared by
// every later request however the shape is spelled, and nothing for a
// refused request, an unknown shape or a pattern no store keeps. A
// pipeline swap drops it.
func TestRequestPatternMemo(t *testing.T) {
	memo := func(s *System) map[patternKey]*graph.Graph {
		s.mu.Lock()
		defer s.mu.Unlock()
		return maps.Clone(s.patterns)
	}
	cycle := func(s *System, req JobRequest) {
		t.Helper()
		l, err := s.Allocate(req)
		if err != nil {
			t.Fatalf("allocate %+v: %v", req, err)
		}
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(3))
	if err != nil {
		t.Fatal(err)
	}
	ringKey := patternKey{appgraph.ShapeRing, 3}
	cycle(s, JobRequest{NumGPUs: 3})
	ring := memo(s)[ringKey]
	for _, shape := range []string{"Ring", "RING"} {
		cycle(s, JobRequest{NumGPUs: 3, Shape: shape})
	}
	if _, err := s.Allocate(JobRequest{NumGPUs: 9}); !errors.Is(err, policy.ErrNoAllocation) {
		t.Fatalf("9 GPUs on dgx-a100: %v, want ErrNoAllocation", err)
	}
	if _, err := s.Allocate(JobRequest{NumGPUs: 2, Shape: "Pentagram"}); err == nil {
		t.Fatal("unknown shape allocated")
	}
	if m := memo(s); len(m) != 1 || ring == nil || m[ringKey] != ring {
		t.Fatalf("memo = %v, want only the first Ring(3) graph %p", m, ring)
	}
	if err := s.Repartition(map[int]int{0: 2}); err != nil {
		t.Fatal(err)
	}
	if m := memo(s); len(m) != 0 {
		t.Fatalf("memo after Repartition = %v, want empty", m)
	}
	cycle(s, JobRequest{NumGPUs: 3})
	if m := memo(s); len(m) != 1 || m[ringKey] == nil || m[ringKey] == ring {
		t.Fatalf("memo after a post-Repartition request = %v, want one fresh Ring(3) graph", m)
	}

	// A 1,000-node fleet has no flat store: an AllToAll spanning nodes is
	// built, refused and pinned nowhere; a node-local request is memoized
	// for the class templates.
	f, err := NewFleetSystem("dgx-a100", 1000, "preserve")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(JobRequest{NumGPUs: 100, Shape: "AllToAll"}); !errors.Is(err, policy.ErrNoAllocation) {
		t.Fatalf("node-spanning AllToAll(100): %v, want ErrNoAllocation", err)
	}
	cycle(f, JobRequest{NumGPUs: 2})
	if m := memo(f); len(m) != 1 || m[patternKey{appgraph.ShapeRing, 2}] == nil {
		t.Fatalf("fleet memo = %v, want only Ring(2)", m)
	}
}
