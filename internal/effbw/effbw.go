// Package effbw implements MAPA's Predicted Effective Bandwidth model
// (Sec. 3.4.3, Eq. 2, Table 2): a 14-term regression that predicts the
// effective bandwidth of an allocation from its link mix (x, y, z) —
// the number of double-NVLink, single-NVLink, and PCIe links the
// allocation uses — so the scheduler never has to run a
// microbenchmark per candidate match.
//
// Two models are provided: PaperModel carries the exact Table 2
// coefficients learned by the authors on a real DGX-1 V100, and Train
// re-learns the coefficients against this repository's ncclsim
// microbenchmark substitute, reproducing the paper's training pipeline
// (exhaustively sample allocations with unique (x, y, z), measure
// effective bandwidth, solve the regression).
package effbw

import (
	"fmt"
	"sort"
	"sync"

	"mapa/internal/graph"
	"mapa/internal/ncclsim"
	"mapa/internal/regress"
	"mapa/internal/topology"
)

// LinkCounts is the allocation link mix of Eq. 2: X double-NVLink
// links, Y single-NVLink links (v1 or v2), Z PCIe links.
type LinkCounts struct {
	X, Y, Z int
}

// CountLinks classifies a set of hardware-graph edges into the
// (x, y, z) mix. NVSwitch links count as doubles (the fastest class).
func CountLinks(edges []graph.Edge) LinkCounts {
	var c LinkCounts
	for _, e := range edges {
		switch topology.LinkType(e.Label) {
		case topology.LinkNVLink2x2, topology.LinkNVSwitch, topology.LinkIntraGPU:
			c.X++
		case topology.LinkNVLink1, topology.LinkNVLink2:
			c.Y++
		case topology.LinkPCIe:
			c.Z++
		default:
			panic(fmt.Sprintf("effbw: unknown link label %d", e.Label))
		}
	}
	return c
}

// NumFeatures is the number of terms in Eq. 2.
const NumFeatures = 14

// Features expands a link mix into the paper's 14-term basis:
// linear (x, y, z), inverse-linear, pairwise, inverse-pairwise,
// triplet, inverse-triplet.
func Features(c LinkCounts) []float64 {
	f := basis(c)
	return f[:]
}

// basis is Features by value, so Predict expands a mix on the stack.
func basis(c LinkCounts) [NumFeatures]float64 {
	x, y, z := float64(c.X), float64(c.Y), float64(c.Z)
	return [NumFeatures]float64{
		x, y, z,
		1 / (x + 1), 1 / (y + 1), 1 / (z + 1),
		x * y, y * z, z * x,
		1 / (x*y + 1), 1 / (y*z + 1), 1 / (z*x + 1),
		x * y * z,
		1 / (x*y*z + 1),
	}
}

// Model is a fitted Eq. 2 predictor.
type Model struct {
	// Theta holds the 14 coefficients θ1..θ14.
	Theta []float64
	// Metrics summarizes fit quality on the training set (zero value
	// for PaperModel, whose training data is not reproducible here).
	Metrics regress.Metrics
}

// Predict returns the predicted effective bandwidth (GB/s) of an
// allocation with the given link mix. Predictions are clamped at zero:
// the regression basis can dip below zero far outside its training
// range, and a negative bandwidth is meaningless to the policies.
func (m *Model) Predict(c LinkCounts) float64 {
	f := basis(c)
	v := regress.Predict(m.Theta, f[:])
	if v < 0 {
		return 0
	}
	return v
}

// PredictEdges is Predict over an explicit used-edge set.
func (m *Model) PredictEdges(edges []graph.Edge) float64 {
	return m.Predict(CountLinks(edges))
}

// PaperModel returns Eq. 2 with the exact Table 2 coefficients from
// the paper.
func PaperModel() *Model {
	return &Model{Theta: []float64{
		16.396, 4.536, 1.556,
		-20.694, -9.467, 7.615,
		-7.973, 12.733, -4.195,
		-8.413, 62.851, 27.418,
		-5.114, -46.973,
	}}
}

// Sample is one training point: a link mix and the measured effective
// bandwidth of a representative allocation with that mix.
type Sample struct {
	Counts LinkCounts
	EffBW  float64
	// GPUs is the representative allocation measured.
	GPUs []int
}

// MixFromDecomposition converts a ring decomposition into the (x,y,z)
// link mix of the hops the collective actually traverses. This is the
// paper's notion of "links in a given matching pattern M": the links
// the communication uses, not every pairwise link of the allocation.
func MixFromDecomposition(top *topology.Topology, res ncclsim.Result) LinkCounts {
	var c LinkCounts
	ncclsim.ForEachHop(top, res, func(lt topology.LinkType) {
		switch lt {
		case topology.LinkNVLink2x2, topology.LinkNVSwitch, topology.LinkIntraGPU:
			c.X++
		case topology.LinkNVLink1, topology.LinkNVLink2:
			c.Y++
		default:
			c.Z++
		}
	})
	return c
}

// CollectSamples enumerates every induced allocation of the given
// sizes on the topology, measures its effective bandwidth with the
// ncclsim microbenchmark, and keeps one averaged sample per unique
// (x, y, z) mix of used links — the paper's training-set construction,
// which yielded 31 samples for sizes 2..5 on the DGX-V.
func CollectSamples(top *topology.Topology, sizes []int) []Sample {
	type acc struct {
		sum  float64
		n    int
		gpus []int
	}
	byMix := make(map[LinkCounts]*acc)
	gpus := top.GPUs()
	for _, k := range sizes {
		if k < 2 || k > len(gpus) {
			continue
		}
		subset := make([]int, k)
		var rec func(start, depth int)
		rec = func(start, depth int) {
			if depth == k {
				res := ncclsim.Decompose(top, subset)
				mix := MixFromDecomposition(top, res)
				bw := res.PeakEffBW
				a, ok := byMix[mix]
				if !ok {
					a = &acc{gpus: append([]int(nil), subset...)}
					byMix[mix] = a
				}
				a.sum += bw
				a.n++
				return
			}
			for i := start; i <= len(gpus)-(k-depth); i++ {
				subset[depth] = gpus[i]
				rec(i+1, depth+1)
			}
		}
		rec(0, 0)
	}
	samples := make([]Sample, 0, len(byMix))
	for mix, a := range byMix {
		samples = append(samples, Sample{
			Counts: mix,
			EffBW:  a.sum / float64(a.n),
			GPUs:   a.gpus,
		})
	}
	sort.Slice(samples, func(i, j int) bool {
		a, b := samples[i].Counts, samples[j].Counts
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	return samples
}

// Train fits Eq. 2 against ncclsim measurements on the topology,
// reproducing the paper's regression pipeline. sizes selects the
// allocation sizes sampled (the paper uses 2..5). A small ridge
// penalty regularizes the nearly-collinear 14-term basis.
func Train(top *topology.Topology, sizes []int) (*Model, []Sample, error) {
	samples := CollectSamples(top, sizes)
	if len(samples) < NumFeatures {
		return nil, samples, fmt.Errorf("effbw: only %d unique link mixes on %s; need at least %d",
			len(samples), top.Name, NumFeatures)
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = Features(s.Counts)
		y[i] = s.EffBW
	}
	theta, err := regress.Ridge(x, y, 1e-6)
	if err != nil {
		return nil, samples, fmt.Errorf("effbw: fitting Eq. 2: %w", err)
	}
	m := &Model{Theta: theta}
	pred := make([]float64, len(samples))
	for i, s := range samples {
		pred[i] = m.Predict(s.Counts)
	}
	metrics, err := regress.Evaluate(pred, y)
	if err != nil {
		return nil, samples, err
	}
	m.Metrics = metrics
	return m, samples, nil
}

// DefaultSizes is the allocation-size range the paper trains on.
func DefaultSizes() []int { return []int{2, 3, 4, 5} }

var (
	modelCacheMu sync.Mutex
	modelCache   = make(map[string]*Model)
)

// TrainOnMaxGPUs bounds the machine size TrainedFor will train on:
// training-set collection enumerates every C(n, k) allocation for
// k in DefaultSizes, which is combinatorial in n. Multi-node machines
// beyond the bound use the paper's Table 2 model instead.
const TrainOnMaxGPUs = 16

// TrainedFor returns an Eq. 2 model trained against the ncclsim
// microbenchmark on the given topology, caching one model per topology
// name. If the topology has too few distinct link mixes to fit the
// 14-term basis (tiny machines), or too many GPUs to enumerate a
// training set (multi-node clusters), it falls back to the paper's
// Table 2 model, which at least preserves the link-mix ordering.
func TrainedFor(top *topology.Topology) *Model {
	modelCacheMu.Lock()
	defer modelCacheMu.Unlock()
	if m, ok := modelCache[top.Name]; ok {
		return m
	}
	var m *Model
	if top.NumGPUs() > TrainOnMaxGPUs {
		m = PaperModel()
	} else if trained, _, err := Train(top, DefaultSizes()); err == nil {
		m = trained
	} else {
		m = PaperModel()
	}
	modelCache[top.Name] = m
	return m
}
