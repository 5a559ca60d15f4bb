// Package ncclsim simulates NCCL-style ring all-reduce over an
// allocation of GPUs on a hardware topology. It substitutes for the
// NCCL all-reduce microbenchmark the paper runs on a real DGX-1 V100 to
// measure the Effective Bandwidth of an allocation (Sec. 3.4.1).
//
// Mechanism (mirroring NCCL's documented behaviour): the collective
// library builds one or more communication rings over the allocated
// GPUs. A ring's throughput is limited by its slowest link, and
// additional rings can be layered on leftover link capacity. The
// effective (bus) bandwidth of the allocation is the sum of the ring
// bottlenecks. NVLink rings are preferred; the PCIe/host path is a
// shared resource used only when no all-NVLink ring exists.
//
// Simplifications (documented in DESIGN.md): capacities are continuous
// rather than integral channel counts, and link duplex is not modeled.
// Neither affects the property MAPA relies on — effective bandwidth is
// a monotone function of the link-type mix of the allocation.
package ncclsim

import (
	"fmt"
	"sort"

	"mapa/internal/linkmodel"
	"mapa/internal/topology"
)

const (
	// maxRings bounds the greedy ring decomposition; real NCCL builds
	// at most a dozen channels.
	maxRings = 8
	// minBottleneck is the smallest ring bandwidth (GB/s) worth
	// layering; below this NCCL would not add a channel.
	minBottleneck = 1.0
)

// Ring is one communication ring over an allocation.
type Ring struct {
	// Order lists the GPUs in ring order. For a 2-GPU "ring" it has
	// both endpoints.
	Order []int
	// Bottleneck is the ring's limiting bandwidth in GB/s.
	Bottleneck float64
	// BottleneckLink is the link type of the limiting hop, which
	// controls how fast the ring saturates with message size.
	BottleneckLink topology.LinkType
	// UsesPCIe marks rings that traverse the shared host path.
	UsesPCIe bool
}

// Result is a ring decomposition of an allocation.
type Result struct {
	Rings []Ring
	// PeakEffBW is the sum of ring bottlenecks in GB/s: the effective
	// bandwidth achieved by saturating transfers.
	PeakEffBW float64
}

// edgeKey identifies an undirected GPU pair.
type edgeKey struct{ u, v int }

func key(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// capacityState tracks remaining NVLink capacity per pair plus the
// shared PCIe pool.
type capacityState struct {
	nvlink   map[edgeKey]float64
	nvType   map[edgeKey]topology.LinkType
	pcie     float64
	vertices []int
}

func newCapacityState(top *topology.Topology, gpus []int) *capacityState {
	for _, g := range gpus {
		if !top.Graph.HasVertex(g) {
			panic(fmt.Sprintf("ncclsim: GPU %d not in topology %s", g, top.Name))
		}
	}
	st := &capacityState{
		nvlink: make(map[edgeKey]float64),
		nvType: make(map[edgeKey]topology.LinkType),
		pcie:   topology.LinkPCIe.Bandwidth(),
	}
	st.vertices = append(st.vertices, gpus...)
	sort.Ints(st.vertices)
	// The links among the allocation: k² lookups, not a sweep of every
	// link of a machine that may hold many more GPUs than the job.
	for i, u := range st.vertices {
		for _, v := range st.vertices[i+1:] {
			if e, ok := top.Physical.EdgeBetween(u, v); ok && topology.LinkType(e.Label) != topology.LinkPCIe {
				k := key(u, v)
				st.nvlink[k] = e.Weight
				st.nvType[k] = topology.LinkType(e.Label)
			}
		}
	}
	return st
}

// capacity returns the usable bandwidth between u and v and the link
// type providing it. allowPCIe enables the shared host path fallback.
func (st *capacityState) capacity(u, v int, allowPCIe bool) (float64, topology.LinkType, bool) {
	k := key(u, v)
	if c, ok := st.nvlink[k]; ok && c >= minBottleneck {
		return c, st.nvType[k], true
	}
	if allowPCIe && st.pcie >= minBottleneck {
		return st.pcie, topology.LinkPCIe, true
	}
	return 0, topology.LinkPCIe, false
}

// bestRing finds the Hamiltonian cycle over st.vertices maximizing the
// minimum hop capacity. It returns ok=false when no cycle exists under
// the current capacities.
func (st *capacityState) bestRing(allowPCIe bool) (Ring, bool) {
	vs := st.vertices
	n := len(vs)
	if n < 2 {
		return Ring{}, false
	}
	if n == 2 {
		c, lt, ok := st.capacity(vs[0], vs[1], allowPCIe)
		if !ok {
			return Ring{}, false
		}
		return Ring{
			Order:          []int{vs[0], vs[1]},
			Bottleneck:     c,
			BottleneckLink: lt,
			UsesPCIe:       lt == topology.LinkPCIe,
		}, true
	}

	best := Ring{}
	bestBottleneck := 0.0
	order := make([]int, n)
	used := make([]bool, n)
	order[0] = vs[0]
	used[0] = true

	var rec func(depth int, minCap float64, minType topology.LinkType, pcieUsed bool)
	rec = func(depth int, minCap float64, minType topology.LinkType, pcieUsed bool) {
		if depth == n {
			c, lt, ok := st.capacity(order[n-1], order[0], allowPCIe)
			if !ok {
				return
			}
			b, bt, pu := minCap, minType, pcieUsed
			if c < b {
				b, bt = c, lt
			}
			pu = pu || lt == topology.LinkPCIe
			if b > bestBottleneck {
				bestBottleneck = b
				best = Ring{
					Order:          append([]int(nil), order...),
					Bottleneck:     b,
					BottleneckLink: bt,
					UsesPCIe:       pu,
				}
			}
			return
		}
		for i := 1; i < n; i++ {
			if used[i] {
				continue
			}
			c, lt, ok := st.capacity(order[depth-1], vs[i], allowPCIe)
			if !ok {
				continue
			}
			b, bt := minCap, minType
			if c < b {
				b, bt = c, lt
			}
			if b <= bestBottleneck { // cannot improve; prune
				continue
			}
			used[i] = true
			order[depth] = vs[i]
			rec(depth+1, b, bt, pcieUsed || lt == topology.LinkPCIe)
			used[i] = false
		}
	}
	const inf = 1e18
	rec(1, inf, topology.LinkNVSwitch, false)
	if bestBottleneck < minBottleneck {
		return Ring{}, false
	}
	return best, true
}

// consume subtracts the ring's bottleneck bandwidth from every hop it
// uses; PCIe hops draw from the shared pool once per hop.
func (st *capacityState) consume(r Ring) {
	n := len(r.Order)
	hops := n
	if n == 2 {
		hops = 1
	}
	for i := 0; i < hops; i++ {
		u, v := r.Order[i], r.Order[(i+1)%n]
		k := key(u, v)
		if c, ok := st.nvlink[k]; ok && c >= r.Bottleneck {
			st.nvlink[k] = c - r.Bottleneck
		} else {
			st.pcie -= r.Bottleneck
		}
	}
	if st.pcie < 0 {
		st.pcie = 0
	}
}

// Decompose computes the ring decomposition of an allocation: NVLink
// rings are layered greedily (largest bottleneck first); if no all-
// NVLink ring exists, a single ring using the shared host path is
// built instead.
func Decompose(top *topology.Topology, gpus []int) Result {
	if len(gpus) < 2 {
		return Result{}
	}
	st := newCapacityState(top, gpus)
	var res Result
	for len(res.Rings) < maxRings {
		r, ok := st.bestRing(false)
		if !ok {
			break
		}
		st.consume(r)
		res.Rings = append(res.Rings, r)
		res.PeakEffBW += r.Bottleneck
	}
	if len(res.Rings) == 0 {
		if r, ok := st.bestRing(true); ok {
			st.consume(r)
			res.Rings = append(res.Rings, r)
			res.PeakEffBW += r.Bottleneck
		}
	}
	return res
}

// PeakEffectiveBandwidth returns the saturating-transfer effective
// bandwidth (GB/s) of the allocation: the quantity the paper's
// microbenchmark measures and Eq. 2 predicts.
func PeakEffectiveBandwidth(top *topology.Topology, gpus []int) float64 {
	return Decompose(top, gpus).PeakEffBW
}

// EffectiveBandwidth returns the effective bandwidth (GB/s) the
// decomposition achieves all-reducing messages of msgBytes, including
// the small-transfer ramp of Fig. 2a.
func (res Result) EffectiveBandwidth(msgBytes float64) float64 {
	var bw float64
	for _, r := range res.Rings {
		bw += r.Bottleneck * linkmodel.Ramp(r.BottleneckLink, msgBytes)
	}
	return bw
}

// AllReduceTime returns the seconds one ring all-reduce of msgBytes
// takes over the decomposition of a k-GPU allocation:
// t = 2(k-1)/k * S / effBW(S), plus per-step startup latency.
// Allocations of fewer than two GPUs take no communication time. A
// decomposition is a pure function of the GPU set, so callers placing
// many jobs on few distinct sets keep the Result and pay only this
// arithmetic per job.
func (res Result) AllReduceTime(k int, msgBytes float64) float64 {
	if k < 2 || msgBytes <= 0 {
		return 0
	}
	bw := res.EffectiveBandwidth(msgBytes)
	if bw <= 0 {
		// No usable path even over PCIe; should not happen on complete
		// hardware graphs, but avoid dividing by zero.
		bw = minBottleneck
	}
	steps := float64(2 * (k - 1))
	factor := steps / float64(k)
	return factor*msgBytes/(bw*1e9) + steps*linkmodel.StartupLatency
}

// EffectiveBandwidth is Result.EffectiveBandwidth of the allocation's
// decomposition.
func EffectiveBandwidth(top *topology.Topology, gpus []int, msgBytes float64) float64 {
	return Decompose(top, gpus).EffectiveBandwidth(msgBytes)
}

// AllReduceTime is Result.AllReduceTime of the allocation's
// decomposition.
func AllReduceTime(top *topology.Topology, gpus []int, msgBytes float64) float64 {
	return Decompose(top, gpus).AllReduceTime(len(gpus), msgBytes)
}

// EdgeCapacities reports the NVLink capacity (GB/s) between every GPU
// pair of the allocation before any rings are built. Primarily a
// debugging and test aid.
func EdgeCapacities(top *topology.Topology, gpus []int) map[[2]int]float64 {
	st := newCapacityState(top, gpus)
	out := make(map[[2]int]float64, len(st.nvlink))
	for k, c := range st.nvlink {
		out[[2]int{k.u, k.v}] = c
	}
	return out
}

// UsedLinks converts a decomposition back to the multiset of hops per
// link type, useful for cross-checking against score.LinkMix.
func UsedLinks(top *topology.Topology, res Result) map[topology.LinkType]int {
	counts := make(map[topology.LinkType]int)
	for _, r := range res.Rings {
		n := len(r.Order)
		hops := n
		if n == 2 {
			hops = 1
		}
		for i := 0; i < hops; i++ {
			u, v := r.Order[i], r.Order[(i+1)%n]
			e, ok := top.Physical.EdgeBetween(u, v)
			if ok {
				counts[topology.LinkType(e.Label)]++
			} else {
				counts[topology.LinkPCIe]++
			}
		}
	}
	return counts
}
