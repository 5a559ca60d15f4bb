package mig

import (
	"testing"

	"mapa/internal/topology"
)

func TestSplitNoSlicesIsIdentityShape(t *testing.T) {
	top := topology.DGXV100()
	vt, err := Split(top, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vt.NumGPUs() != 8 {
		t.Fatalf("virtual GPUs = %d", vt.NumGPUs())
	}
	for v := 0; v < 8; v++ {
		if vt.PhysicalOf[v] != v || vt.Fraction[v] != 1 {
			t.Fatalf("vertex %d: physical %d fraction %g", v, vt.PhysicalOf[v], vt.Fraction[v])
		}
	}
	// Links preserved.
	if vt.Link(0, 4) != topology.LinkNVLink2x2 {
		t.Errorf("link(0,4) = %s", vt.Link(0, 4))
	}
}

func TestSplitCreatesInstances(t *testing.T) {
	top := topology.DGXV100()
	vt, err := Split(top, map[int]int{0: 2, 3: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 8 physical - 2 split + 2 + 3 = 11 virtual.
	if vt.NumGPUs() != 11 {
		t.Fatalf("virtual GPUs = %d, want 11", vt.NumGPUs())
	}
	if err := vt.Validate(); err != nil {
		t.Fatal(err)
	}
	// GPU 0 -> virtual {0,1}, GPU 1 -> {2}, GPU 2 -> {3}, GPU 3 -> {4,5,6}.
	if got := vt.Instances(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("instances(0) = %v", got)
	}
	if got := vt.Instances(3); len(got) != 3 || got[0] != 4 {
		t.Fatalf("instances(3) = %v", got)
	}
	// Fractions.
	if vt.Fraction[0] != 0.5 || vt.Fraction[4] != 1.0/3 || vt.Fraction[2] != 1 {
		t.Fatalf("fractions = %v", vt.Fraction)
	}
	// Siblings ride the on-die path.
	if vt.Link(0, 1) != topology.LinkIntraGPU {
		t.Errorf("sibling link = %s", vt.Link(0, 1))
	}
	// Physical NVLink stays with instance 0: physical 0-3 was double
	// NVLink; virtual 0 (first of GPU 0) to virtual 4 (first of GPU 3).
	if vt.Link(0, 4) != topology.LinkNVLink2x2 {
		t.Errorf("inherited link = %s", vt.Link(0, 4))
	}
	// Non-first instances fall back to the host path externally.
	if vt.Link(1, 4) != topology.LinkPCIe {
		t.Errorf("secondary instance link = %s", vt.Link(1, 4))
	}
}

func TestSplitValidation(t *testing.T) {
	top := topology.DGXV100()
	if _, err := Split(top, map[int]int{42: 2}); err == nil {
		t.Error("unknown GPU should error")
	}
	if _, err := Split(top, map[int]int{0: 0}); err == nil {
		t.Error("zero instances should error")
	}
	if _, err := Split(top, map[int]int{0: 8}); err == nil {
		t.Error("8 instances exceeds the MIG limit")
	}
}

func TestSocketsInherited(t *testing.T) {
	top := topology.DGXV100()
	vt, err := Split(top, map[int]int{0: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual 0 and 1 (physical 0) are in socket 0.
	if vt.SocketOf(0) != vt.SocketOf(1) {
		t.Error("siblings must share a socket")
	}
}
