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

// capacityState tracks remaining NVLink capacity per pair plus the
// shared PCIe pool. Pairs are indexed by the GPUs' positions in the
// sorted vertex list, so the pair table is a dense k×k slice instead
// of a map: pair (i, j) with i < j lives at i*k+j.
type capacityState struct {
	pairs    []pairLink
	pcie     float64
	vertices []int
}

// pairLink is one GPU pair's NVLink-class link, if it has one: its
// type and remaining capacity.
type pairLink struct {
	nv  bool
	typ topology.LinkType
	cap float64
}

// pair returns the table index of the pair at positions i and j.
func (st *capacityState) pair(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*len(st.vertices) + j
}

func newCapacityState(top *topology.Topology, gpus []int) capacityState {
	for _, g := range gpus {
		if !top.Graph.HasVertex(g) {
			panic(fmt.Sprintf("ncclsim: GPU %d not in topology %s", g, top.Name))
		}
	}
	k := len(gpus)
	st := capacityState{
		pairs:    make([]pairLink, k*k),
		pcie:     topology.LinkPCIe.Bandwidth(),
		vertices: append([]int(nil), gpus...),
	}
	sort.Ints(st.vertices)
	// The links among the allocation: k² lookups, not a sweep of every
	// link of a machine that may hold many more GPUs than the job.
	for i, u := range st.vertices {
		for j := i + 1; j < k; j++ {
			if e, ok := top.Physical.EdgeBetween(u, st.vertices[j]); ok && topology.LinkType(e.Label) != topology.LinkPCIe {
				st.pairs[st.pair(i, j)] = pairLink{nv: true, typ: topology.LinkType(e.Label), cap: e.Weight}
			}
		}
	}
	return st
}

// capacity returns the usable bandwidth between the GPUs at positions
// i and j and the link type providing it. allowPCIe enables the shared
// host path fallback.
func (st *capacityState) capacity(i, j int, allowPCIe bool) (float64, topology.LinkType, bool) {
	if pl := st.pairs[st.pair(i, j)]; pl.nv && pl.cap >= minBottleneck {
		return pl.cap, pl.typ, true
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
		c, lt, ok := st.capacity(0, 1, allowPCIe)
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
	order := make([]int, n) // positions in vs
	used := make([]bool, n)
	order[0] = 0
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
				ring := make([]int, n)
				for d, i := range order {
					ring[d] = vs[i]
				}
				best = Ring{
					Order:          ring,
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
			c, lt, ok := st.capacity(order[depth-1], i, allowPCIe)
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
			order[depth] = i
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
		p := st.pair(sort.SearchInts(st.vertices, r.Order[i]), sort.SearchInts(st.vertices, r.Order[(i+1)%n]))
		if pl := &st.pairs[p]; pl.nv && pl.cap >= r.Bottleneck {
			pl.cap -= r.Bottleneck
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
	out := make(map[[2]int]float64)
	for i, u := range st.vertices {
		for j := i + 1; j < len(st.vertices); j++ {
			if pl := st.pairs[st.pair(i, j)]; pl.nv {
				out[[2]int{u, st.vertices[j]}] = pl.cap
			}
		}
	}
	return out
}

// UsedLinks converts a decomposition back to the multiset of hops per
// link type, useful for cross-checking against score.LinkMix.
func UsedLinks(top *topology.Topology, res Result) map[topology.LinkType]int {
	counts := make(map[topology.LinkType]int)
	ForEachHop(top, res, func(lt topology.LinkType) { counts[lt]++ })
	return counts
}

// ForEachHop calls fn with the link type of every hop of the
// decomposition's rings — the physical link between the hop's GPUs, or
// PCIe where there is none — so a caller can count hops without
// building UsedLinks' map.
func ForEachHop(top *topology.Topology, res Result, fn func(topology.LinkType)) {
	for _, r := range res.Rings {
		n := len(r.Order)
		hops := n
		if n == 2 {
			hops = 1
		}
		for i := 0; i < hops; i++ {
			if e, ok := top.Physical.EdgeBetween(r.Order[i], r.Order[(i+1)%n]); ok {
				fn(topology.LinkType(e.Label))
			} else {
				fn(topology.LinkPCIe)
			}
		}
	}
}
