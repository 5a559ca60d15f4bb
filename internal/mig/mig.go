// Package mig implements the virtualized-accelerator extension the
// paper sketches (Sec. 3.2/3.3): NVIDIA Multi-Instance GPU partitions
// one physical GPU into up to seven isolated instances, so jobs map
// many-to-one onto hardware. Following the paper's proposal, virtual
// GPUs become separate vertices of the hardware graph, each recording
// the fraction of physical resources it carries, and are allocated as
// plain vertices by the same pattern matching as whole GPUs.
//
// Link model for a split GPU (conservative, interference-aware per the
// paper's note): sibling instances communicate over the on-die path
// (LinkIntraGPU); the physical GPU's NVLink ports remain attached to
// its first instance; the remaining instances reach other devices over
// the PCIe/host path.
package mig

import (
	"fmt"
	"sort"

	"mapa/internal/graph"
	"mapa/internal/topology"
)

// MaxInstances is the MIG hardware limit per physical GPU.
const MaxInstances = 7

// VirtualTopology is a machine whose physical GPUs may be split into
// MIG instances.
type VirtualTopology struct {
	// Topology is the virtual machine: one vertex per instance.
	*topology.Topology
	// PhysicalOf maps virtual GPU ID to its physical GPU ID.
	PhysicalOf map[int]int
	// Fraction maps virtual GPU ID to its share of the physical
	// device's compute resources (1.0 for unsplit GPUs).
	Fraction map[int]float64
	// byPhysical is the inverse index of PhysicalOf: physical GPU ->
	// its virtual instance IDs in ascending order, built once at
	// construction and served directly by Instances.
	byPhysical map[int][]int
}

// Split partitions the given physical GPUs into MIG instances.
// slices maps physical GPU ID to instance count (1..MaxInstances);
// GPUs not listed remain whole. Virtual IDs are assigned contiguously
// in ascending physical-GPU order, so an unsplit machine keeps its
// numbering.
func Split(top *topology.Topology, slices map[int]int) (*VirtualTopology, error) {
	for g, n := range slices {
		if !top.Graph.HasVertex(g) {
			return nil, fmt.Errorf("mig: physical GPU %d not in topology %s", g, top.Name)
		}
		if n < 1 || n > MaxInstances {
			return nil, fmt.Errorf("mig: GPU %d split into %d instances; MIG supports 1..%d", g, n, MaxInstances)
		}
	}

	instances := make(map[int][]int) // physical -> all virtual ids
	next := 0
	for _, g := range top.GPUs() {
		n := slices[g]
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			instances[g] = append(instances[g], next)
			next++
		}
	}
	return Compose(top, instances)
}

// Compose builds the virtual machine for an explicit instance
// numbering: instances maps every physical GPU of base to the virtual
// IDs it hosts (1..MaxInstances each, globally unique, any
// non-negative values). Where Split renumbers the whole machine
// contiguously, Compose lets the caller pin virtual IDs — the
// primitive behind live repartitioning, where instances of unchanged
// physical GPUs must keep their IDs so leases, health marks, and
// availability streams survive the topology swap, and only the re-cut
// GPUs take fresh IDs.
//
// The link model matches Split: sibling instances communicate over the
// on-die path, each physical GPU's NVLink ports attach to its
// lowest-ID instance, everything else reaches other devices over the
// PCIe/host fallback, and instances inherit their physical GPU's
// socket.
func Compose(base *topology.Topology, instances map[int][]int) (*VirtualTopology, error) {
	physical := base.GPUs()
	for g := range instances {
		if !base.Graph.HasVertex(g) {
			return nil, fmt.Errorf("mig: physical GPU %d not in topology %s", g, base.Name)
		}
	}
	physOf := make(map[int]int)
	fraction := make(map[int]float64)
	firstInstance := make(map[int]int) // physical -> lowest virtual id
	byPhysical := make(map[int][]int)
	var all []int
	for _, g := range physical {
		vs, ok := instances[g]
		if !ok || len(vs) == 0 {
			return nil, fmt.Errorf("mig: physical GPU %d has no instances", g)
		}
		if len(vs) > MaxInstances {
			return nil, fmt.Errorf("mig: GPU %d split into %d instances; MIG supports 1..%d", g, len(vs), MaxInstances)
		}
		sorted := append([]int(nil), vs...)
		sort.Ints(sorted)
		for _, v := range sorted {
			if v < 0 {
				return nil, fmt.Errorf("mig: negative virtual GPU ID %d on physical GPU %d", v, g)
			}
			if _, dup := physOf[v]; dup {
				return nil, fmt.Errorf("mig: virtual GPU ID %d assigned twice", v)
			}
			physOf[v] = g
			fraction[v] = 1 / float64(len(sorted))
		}
		firstInstance[g] = sorted[0]
		byPhysical[g] = sorted
		all = append(all, sorted...)
	}
	sort.Ints(all)

	phys := graph.New()
	for _, v := range all {
		phys.AddVertex(v)
	}
	// Sibling instances: on-die path.
	for _, vs := range byPhysical {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				phys.MustAddEdge(vs[i], vs[j], topology.LinkIntraGPU.Bandwidth(), int(topology.LinkIntraGPU))
			}
		}
	}
	// Physical NVLink ports stay with the lowest-ID instance of each
	// device.
	for _, e := range base.Physical.Edges() {
		phys.MustAddEdge(firstInstance[e.U], firstInstance[e.V], e.Weight, e.Label)
	}
	// Complete the hardware graph with the PCIe/host fallback.
	full := phys.Clone()
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if !full.HasEdge(all[i], all[j]) {
				full.MustAddEdge(all[i], all[j], topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
			}
		}
	}

	// Sockets: instances inherit their physical GPU's socket.
	var sockets [][]int
	for _, s := range base.SortedSockets() {
		var vs []int
		for _, g := range s {
			vs = append(vs, byPhysical[g]...)
		}
		sort.Ints(vs)
		sockets = append(sockets, vs)
	}

	vt := &VirtualTopology{
		Topology: &topology.Topology{
			Name:     base.Name + "+MIG",
			Graph:    full,
			Physical: phys,
			Sockets:  sockets,
		},
		PhysicalOf: physOf,
		Fraction:   fraction,
		byPhysical: byPhysical,
	}
	if err := vt.Validate(); err != nil {
		return nil, err
	}
	return vt, nil
}

// Instances returns the virtual IDs hosted by the physical GPU, in
// ascending order — served directly from the index built at
// construction. The slice is read-only; callers must not mutate it.
func (vt *VirtualTopology) Instances(physical int) []int {
	return vt.byPhysical[physical]
}
