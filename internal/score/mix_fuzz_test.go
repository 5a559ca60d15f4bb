package score

import (
	"math/rand"
	"testing"

	"mapa/internal/graph"
	"mapa/internal/topology"
)

// FuzzMixSignature pins the signature-keyed mix memo against the direct
// ring decomposition on random machines: up to 10 GPUs with IDs that
// may leave gaps, every pair joined by a physical link of a random
// label and a small integral weight (so labels and weights collide
// across links, and weights below the ring threshold occur) or by the
// PCIe fallback alone. Every GPU set of 2..5 GPUs, ascending and in a
// shuffled order, must get the mix of its own decomposition — a key
// that dropped a link's label or weight would serve one set's mix to
// another that differs only there.
func FuzzMixSignature(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(0), uint8(4), uint8(160))
	f.Add(int64(2), uint8(9), uint8(3), uint8(2), uint8(255))
	f.Add(int64(3), uint8(5), uint8(1), uint8(7), uint8(96))
	f.Add(int64(4), uint8(10), uint8(2), uint8(1), uint8(200))
	f.Add(int64(-17), uint8(107), uint8(104), uint8(226), uint8(96))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, stepRaw, maxWRaw, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%9
		step, maxW := 1+int(stepRaw)%3, 1+int(maxWRaw)%8
		links := []topology.LinkType{topology.LinkPCIe, topology.LinkNVLink1, topology.LinkNVLink2, topology.LinkNVLink2x2, topology.LinkNVSwitch, topology.LinkIntraGPU}
		g, physical := graph.New(), graph.New()
		for i := 0; i < n; i++ {
			g.AddVertex(i * step)
			physical.AddVertex(i * step)
			for j := 0; j < i; j++ {
				u, v := i*step, j*step
				if rng.Intn(256) < int(density) {
					lt := links[rng.Intn(len(links))]
					w := float64(rng.Intn(maxW + 1))
					physical.MustAddEdge(u, v, w, int(lt))
					g.MustAddEdge(u, v, w, int(lt))
				} else {
					g.MustAddEdge(u, v, topology.LinkPCIe.Bandwidth(), int(topology.LinkPCIe))
				}
			}
		}
		top := &topology.Topology{Name: "fuzz", Graph: g, Physical: physical}
		tm := mixesOf(top)
		forEachSet(top, 5, func(set []int) {
			order := append([]int(nil), set...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for _, gpus := range [][]int{set, order} {
				if got, want := tm.mix(gpus), directMix(top, gpus); got != want {
					t.Fatalf("%v: memoized mix %+v, direct decomposition %+v", gpus, got, want)
				}
			}
		})
	})
}
