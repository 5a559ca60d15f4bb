// Package workload models the multi-GPU workloads of the paper's
// evaluation (Sec. 4): six Caffe CNN training jobs (AlexNet, VGG-16,
// ResNet-50, Inception-v3, GoogleNet, CaffeNet) plus three non-NN
// multi-GPU codes (Cusimann, GMM, Jacobi). Each workload carries the
// communication profile of Fig. 5 — collective calls per iteration and
// characteristic transfer size — plus a compute cost per iteration,
// and an analytic execution-time model:
//
//	T = iters × (computePerIter + collectivesPerIter × allReduceTime)
//
// where allReduceTime comes from the ncclsim substrate and depends on
// the allocation's links and the transfer size. Bandwidth sensitivity
// then *emerges* exactly as the paper explains it (Sec. 2.3):
// GoogleNet's transfers are too small to exploit fast links, CaffeNet
// makes too few collective calls for link speed to matter, and
// Cusimann/GMM/Jacobi barely communicate, while AlexNet, VGG-16,
// ResNet-50, and Inception-v3 are communication-bound at sizes where
// link choice changes bandwidth several-fold.
//
// The profiles are fitted to the paper: VGG-16 gains roughly 3x
// from double NVLink over PCIe at 2 GPUs and GoogleNet is nearly flat
// (Fig. 2b); baseline job execution times land in the hundreds of
// seconds (Fig. 13).
package workload

import (
	"fmt"
	"sort"
	"strings"

	"mapa/internal/appgraph"
	"mapa/internal/ncclsim"
	"mapa/internal/topology"
)

// Workload describes one job type.
type Workload struct {
	Name string
	// CommCallsPerIter is the paper's Fig. 5b column: collective
	// communication calls triggered per GPU per iteration.
	CommCallsPerIter int
	// CollectivesPerIter is the effective number of fused collective
	// launches per iteration. NCCL and the framework batch the raw
	// calls; roughly CommCallsPerIter / 1000 for the CNNs.
	CollectivesPerIter float64
	// MsgBytes is the characteristic fused transfer size (Fig. 5a).
	MsgBytes float64
	// ComputeSecPerIter is the GPU compute time per iteration.
	ComputeSecPerIter float64
	// Sensitive is the paper's bandwidth-sensitivity annotation
	// (Fig. 5b last column; Cusimann/GMM/Jacobi are classified
	// insensitive in Sec. 4).
	Sensitive bool
	// DefaultIters is the training length used in the evaluation runs.
	DefaultIters int
	// Shape is the communication pattern the workload exhibits.
	Shape appgraph.Shape
}

// table is the workload catalog. CommCallsPerIter and Sensitive are
// verbatim from Fig. 5b; the remaining parameters are calibrated as
// described in the package comment.
var table = []Workload{
	{
		Name: "vgg-16", CommCallsPerIter: 160001, CollectivesPerIter: 160,
		MsgBytes: 5e6, ComputeSecPerIter: 0.005, Sensitive: true,
		DefaultIters: 6500, Shape: appgraph.ShapeRing,
	},
	{
		Name: "alexnet", CommCallsPerIter: 80001, CollectivesPerIter: 80,
		MsgBytes: 4e6, ComputeSecPerIter: 0.004, Sensitive: true,
		DefaultIters: 9000, Shape: appgraph.ShapeRing,
	},
	{
		Name: "resnet-50", CommCallsPerIter: 1600001, CollectivesPerIter: 1600,
		MsgBytes: 5e5, ComputeSecPerIter: 0.015, Sensitive: true,
		DefaultIters: 6000, Shape: appgraph.ShapeRing,
	},
	{
		Name: "inception-v3", CommCallsPerIter: 2830001, CollectivesPerIter: 2830,
		MsgBytes: 4e5, ComputeSecPerIter: 0.025, Sensitive: true,
		DefaultIters: 3500, Shape: appgraph.ShapeRing,
	},
	{
		Name: "caffenet", CommCallsPerIter: 84936, CollectivesPerIter: 85,
		MsgBytes: 4e6, ComputeSecPerIter: 0.3, Sensitive: false,
		DefaultIters: 2200, Shape: appgraph.ShapeRing,
	},
	{
		Name: "googlenet", CommCallsPerIter: 640001, CollectivesPerIter: 640,
		MsgBytes: 3e4, ComputeSecPerIter: 0.08, Sensitive: false,
		DefaultIters: 7000, Shape: appgraph.ShapeRing,
	},
	{
		Name: "cusimann", CommCallsPerIter: 1, CollectivesPerIter: 1,
		MsgBytes: 1e4, ComputeSecPerIter: 0.35, Sensitive: false,
		DefaultIters: 2000, Shape: appgraph.ShapeStar,
	},
	{
		Name: "gmm", CommCallsPerIter: 2, CollectivesPerIter: 2,
		MsgBytes: 2e4, ComputeSecPerIter: 0.3, Sensitive: false,
		DefaultIters: 2200, Shape: appgraph.ShapeStar,
	},
	{
		Name: "jacobi", CommCallsPerIter: 4, CollectivesPerIter: 4,
		MsgBytes: 2e5, ComputeSecPerIter: 0.25, Sensitive: false,
		DefaultIters: 2600, Shape: appgraph.ShapeChain,
	},
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range table {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// All returns every workload in catalog order.
func All() []Workload {
	return append([]Workload(nil), table...)
}

// Names returns the workload names in catalog order.
func Names() []string {
	ns := make([]string, len(table))
	for i, w := range table {
		ns[i] = w.Name
	}
	return ns
}

// CNNs returns the six Caffe training workloads.
func CNNs() []Workload {
	var out []Workload
	for _, w := range table {
		switch w.Name {
		case "vgg-16", "alexnet", "resnet-50", "inception-v3", "caffenet", "googlenet":
			out = append(out, w)
		}
	}
	return out
}

// Sensitive returns the bandwidth-sensitive workloads.
func Sensitive() []Workload {
	var out []Workload
	for _, w := range table {
		if w.Sensitive {
			out = append(out, w)
		}
	}
	return out
}

// Insensitive returns the bandwidth-insensitive workloads.
func Insensitive() []Workload {
	var out []Workload
	for _, w := range table {
		if !w.Sensitive {
			out = append(out, w)
		}
	}
	return out
}

// BytesPerIter returns the total bytes the workload all-reduces per
// iteration.
func (w Workload) BytesPerIter() float64 {
	return w.CollectivesPerIter * w.MsgBytes
}

// ExecTime returns the modeled execution time in seconds of iters
// iterations on the given allocation. Single-GPU allocations have no
// inter-GPU communication.
func (w Workload) ExecTime(top *topology.Topology, gpus []int, iters int) float64 {
	return w.ExecTimeOn(ncclsim.Decompose(top, gpus), len(gpus), iters)
}

// ExecTimeOn is ExecTime given the ring decomposition of a k-GPU
// allocation, for callers that keep decompositions across jobs.
func (w Workload) ExecTimeOn(res ncclsim.Result, k, iters int) float64 {
	if iters <= 0 {
		return 0
	}
	comm := w.CollectivesPerIter * res.AllReduceTime(k, w.MsgBytes)
	return float64(iters) * (w.ComputeSecPerIter + comm)
}

// ExecTimeAtBandwidth returns the modeled execution time given an
// effective bandwidth (GB/s) directly, for k participating GPUs. This
// is the "effective bandwidth as a proxy for execution time" mode the
// paper's simulator uses (Sec. 5.1), and also generates the
// EffBW-vs-time curves of Fig. 16.
func (w Workload) ExecTimeAtBandwidth(effBW float64, k, iters int) float64 {
	if iters <= 0 {
		return 0
	}
	if k < 2 || effBW <= 0 {
		return float64(iters) * w.ComputeSecPerIter
	}
	factor := float64(2*(k-1)) / float64(k)
	perCollective := factor * w.MsgBytes / (effBW * 1e9)
	comm := w.CollectivesPerIter * perCollective
	return float64(iters) * (w.ComputeSecPerIter + comm)
}

// SpeedupOverPCIe returns the workload's modeled 2-GPU speedup when
// moving from a PCIe pair to the given link type — the quantity
// Fig. 2b plots.
func (w Workload) SpeedupOverPCIe(l topology.LinkType) float64 {
	fast := topology.FullyConnected(2, l)
	slow := topology.FullyConnected(2, topology.LinkPCIe)
	tf := w.ExecTime(fast, fast.GPUs(), w.DefaultIters)
	ts := w.ExecTime(slow, slow.GPUs(), w.DefaultIters)
	return ts / tf
}

// CommFraction returns the fraction of execution time spent
// communicating on the given allocation — a direct sensitivity
// indicator.
func (w Workload) CommFraction(top *topology.Topology, gpus []int) float64 {
	if len(gpus) < 2 {
		return 0
	}
	comm := w.CollectivesPerIter * ncclsim.AllReduceTime(top, gpus, w.MsgBytes)
	return comm / (comm + w.ComputeSecPerIter)
}

// SortedNames returns all workload names sorted alphabetically, for
// deterministic report output.
func SortedNames() []string {
	ns := Names()
	sort.Strings(ns)
	return ns
}
