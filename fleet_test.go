// Fleet parity suites: the hierarchical template path must reproduce
// the flat matcher's decisions.
//
// Two pins, matching the two halves of the determinism contract:
//
//   - Churn parity (greedy): on switch-uniform node classes, an
//     AggBW-primary winner inside a node strictly dominates every
//     node-spanning candidate whenever any node can host the pattern,
//     so fleet System decisions — hierarchical path plus flat fallback —
//     are byte-identical to a flat System's, lease for lease, through
//     allocate/release/health churn.
//   - Node-local oracle (all four selection-order variants): the
//     hierarchical path's winner equals a from-first-principles oracle
//     over every single-node candidate on the flattened fleet, under
//     the policies' exact total order (primary desc, secondary desc,
//     lexicographic GPU set) with fleet-global Eq. 3 values.
package mapa

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/journal"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// flatRig drives a policy against a flattened machine exactly the way
// System does — usable mask, view stream, health masks — without the
// lease plumbing. It is the flat reference for fleets of sizes that
// have no named topology.
type flatRig struct {
	t         *testing.T
	top       *topology.Topology
	alloc     policy.Allocator
	usable    graph.Bitset
	views     *matchcache.Views
	leased    map[int]bool
	unhealthy map[int]bool
}

func newFlatRig(t *testing.T, top *topology.Topology, policyName string) *flatRig {
	t.Helper()
	scorer := score.NewScorer(effbw.TrainedFor(top))
	alloc, err := policy.ByName(policyName, scorer)
	if err != nil {
		t.Fatal(err)
	}
	store := matchcache.NewStore(top, 0)
	views := store.NewViews()
	policy.AttachUniverses(alloc, store)
	policy.AttachViews(alloc, views)
	return &flatRig{
		t:         t,
		top:       top,
		alloc:     alloc,
		usable:    top.Graph.VertexBitset(),
		views:     views,
		leased:    make(map[int]bool),
		unhealthy: make(map[int]bool),
	}
}

func (r *flatRig) allocate(req JobRequest) (policy.Allocation, error) {
	key, err := patternKeyOf(req)
	if err != nil {
		r.t.Fatal(err)
	}
	pattern, err := appgraph.Build(key.shape, key.n)
	if err != nil {
		r.t.Fatal(err)
	}
	a, err := r.alloc.Allocate(r.top, r.usable, policy.Request{Pattern: pattern, Sensitive: req.Sensitive})
	if err != nil {
		return policy.Allocation{}, err
	}
	for _, g := range a.GPUs {
		r.usable.Unset(g)
		r.leased[g] = true
	}
	r.views.Allocate(a.GPUs)
	return a, nil
}

func (r *flatRig) release(gpus []int) {
	for _, g := range gpus {
		delete(r.leased, g)
		if !r.unhealthy[g] {
			r.usable.Set(g)
		}
	}
	r.views.Release(gpus)
}

func (r *flatRig) markUnhealthy(gpus []int) {
	for _, g := range gpus {
		r.unhealthy[g] = true
		if !r.leased[g] {
			r.usable.Unset(g)
		}
	}
	r.views.MarkUnhealthy(gpus)
}

func (r *flatRig) restore(gpus []int) {
	for _, g := range gpus {
		delete(r.unhealthy, g)
		if !r.leased[g] {
			r.usable.Set(g)
		}
	}
	r.views.RestoreHealth(gpus)
}

// churnOp is one step of a deterministic churn script.
type churnOp struct {
	kind  string // "alloc", "release", "mark", "restore"
	gpus  int    // alloc: request size
	shape string // alloc: shape name ("" = ring)
	idx   int    // release: index into the granted-lease log
	set   []int  // mark/restore: GPU IDs
}

// TestFleetGreedyChurnParity drives a fleet System and a flat reference
// through the same allocate/release/health script and requires every
// lease byte-identical: GPUs and all three scores. The scripts force
// all three serving modes — hierarchical template decisions, the flat
// fallback after the hierarchy answers "no node can host" (machine
// drained to single free GPUs per node), and direct flat decisions for
// node-spanning patterns.
//
// Byte-parity is asserted on the sizes the flat matcher itself serves
// exactly. At 72 GPUs a ring-4 has ~3 million distinct candidates —
// past the universe capacity — so the flat path truncates its
// enumeration and returns a best-of-prefix winner; the template path
// has no such limit (class universes are node-sized), so on those
// sizes TestFleetBeatsTruncatedFlat below asserts dominance instead.
func TestFleetGreedyChurnParity(t *testing.T) {
	for _, nodes := range []int{2, 9} {
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			fs, err := NewFleetSystemFor(topology.NewFleet(topology.DGXA100(), nodes), "greedy")
			if err != nil {
				t.Fatal(err)
			}
			rig := newFlatRig(t, topology.ClusterA100(nodes), "greedy")

			var script []churnOp
			if nodes == 2 {
				// 16 GPUs: every ring size up to 5 (and ring-8) has a
				// complete flat universe, so the whole script is exact on
				// both sides. The tail drains the machine until no node
				// hosts a pair — the hierarchy must answer
				// ErrNoAllocation and the flat fallback must find the
				// node-spanning placement both sides agree on — then
				// requests a 9-GPU ring, which spans nodes outright.
				script = []churnOp{
					{kind: "alloc", gpus: 3},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 4},
					{kind: "mark", set: []int{5, 9}},
					{kind: "alloc", gpus: 3},
					{kind: "release", idx: 1},
					{kind: "alloc", gpus: 8, shape: "ring"},
					{kind: "alloc", gpus: 2},
					{kind: "restore", set: []int{5, 9}},
					{kind: "alloc", gpus: 4},
					{kind: "alloc", gpus: 3},
					{kind: "release", idx: 0},
					{kind: "alloc", gpus: 5},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 4},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 2}, // cross-node fallback
					{kind: "alloc", gpus: 9}, // spans: direct flat
				}
			} else {
				// 72 GPUs: ring-2 (2,556 candidates) and ring-3 (59,640)
				// stay under the flat universe capacity, so those sizes
				// are byte-exact on both sides through churn and health
				// events.
				script = []churnOp{
					{kind: "alloc", gpus: 3},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 3},
					{kind: "mark", set: []int{5, 9}},
					{kind: "alloc", gpus: 3},
					{kind: "release", idx: 1},
					{kind: "alloc", gpus: 2},
					{kind: "alloc", gpus: 3},
					{kind: "restore", set: []int{5, 9}},
					{kind: "alloc", gpus: 3},
					{kind: "alloc", gpus: 2},
					{kind: "release", idx: 0},
					{kind: "alloc", gpus: 3},
					{kind: "alloc", gpus: 3},
				}
			}

			var fleetLeases []*Lease
			var rigLeases [][]int
			for step, op := range script {
				switch op.kind {
				case "alloc":
					req := JobRequest{NumGPUs: op.gpus, Shape: op.shape}
					lease, ferr := fs.Allocate(req)
					want, rerr := rig.allocate(req)
					if (ferr != nil) != (rerr != nil) {
						t.Fatalf("step %d: fleet err=%v, flat err=%v", step, ferr, rerr)
					}
					if ferr != nil {
						if !errors.Is(ferr, policy.ErrNoAllocation) {
							t.Fatalf("step %d: unexpected error %v", step, ferr)
						}
						fleetLeases = append(fleetLeases, nil)
						rigLeases = append(rigLeases, nil)
						continue
					}
					if fmt.Sprint(lease.GPUs) != fmt.Sprint(want.GPUs) {
						t.Fatalf("step %d (k=%d): fleet GPUs %v, flat GPUs %v",
							step, op.gpus, lease.GPUs, want.GPUs)
					}
					if lease.AggBW != want.Scores.AggBW ||
						lease.EffBW != want.Scores.EffBW ||
						lease.PreservedBW != want.Scores.PreservedBW {
						t.Fatalf("step %d: fleet scores (%v %v %v), flat scores %+v",
							step, lease.AggBW, lease.EffBW, lease.PreservedBW, want.Scores)
					}
					fleetLeases = append(fleetLeases, lease)
					rigLeases = append(rigLeases, want.GPUs)
				case "release":
					if err := fs.Release(fleetLeases[op.idx]); err != nil {
						t.Fatalf("step %d: release: %v", step, err)
					}
					rig.release(rigLeases[op.idx])
				case "mark":
					if err := fs.MarkUnhealthy(op.set...); err != nil {
						t.Fatalf("step %d: mark: %v", step, err)
					}
					rig.markUnhealthy(op.set)
				case "restore":
					if err := fs.Restore(op.set...); err != nil {
						t.Fatalf("step %d: restore: %v", step, err)
					}
					rig.restore(op.set)
				}
			}
			st := fs.CacheStats()
			if st.FleetServed == 0 {
				t.Fatal("no decision took the hierarchical template path")
			}
			if nodes == 2 && st.TableServed+st.ViewRejected == 0 {
				t.Fatal("2-node script never exercised the flat fallback")
			}
		})
	}
}

// TestFleetBeatsTruncatedFlat pins the quality half of the fleet
// story: for a size whose flat universe overflows capacity (ring-4 at
// 72 GPUs has ~3 million candidates), the flat matcher truncates its
// enumeration and settles for a best-of-prefix winner with inter-node
// PCIe edges, while the template path — whose per-class universes are
// node-sized and always complete — returns the true all-NVSwitch
// argmax.
func TestFleetBeatsTruncatedFlat(t *testing.T) {
	fs, err := NewFleetSystemFor(topology.NewFleet(topology.DGXA100(), 9), "greedy")
	if err != nil {
		t.Fatal(err)
	}
	rig := newFlatRig(t, topology.ClusterA100(9), "greedy")
	// Drain node 0 to three free GPUs: every candidate the flat
	// matcher's truncated enumeration prefix reaches straddles the node
	// boundary (the prefix exhausts sets containing the low free IDs
	// 5..7 before it ever reaches one fully inside node 1), while the
	// template path jumps straight to node 1's complete universe.
	for _, k := range []int{3, 2} {
		req := JobRequest{NumGPUs: k}
		if _, err := fs.Allocate(req); err != nil {
			t.Fatal(err)
		}
		if _, err := rig.allocate(req); err != nil {
			t.Fatal(err)
		}
	}
	req := JobRequest{NumGPUs: 4}
	lease, err := fs.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := rig.allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg := 4 * topology.LinkNVSwitch.Bandwidth()
	if lease.AggBW != wantAgg {
		t.Fatalf("template ring-4 AggBW = %v, want all-NVSwitch %v", lease.AggBW, wantAgg)
	}
	if flat.Scores.AggBW >= lease.AggBW {
		t.Fatalf("flat truncated AggBW = %v, expected strictly below template %v (flat GPUs %v, template %v)",
			flat.Scores.AggBW, lease.AggBW, flat.GPUs, lease.GPUs)
	}
}

// combinations appends every k-subset of set (ascending) to out.
func combinations(set []int, k int, out *[][]int) {
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			*out = append(*out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= len(set)-(k-len(cur)); i++ {
			rec(i+1, append(cur, set[i]))
		}
	}
	rec(0, nil)
}

// fleetOracle models a DGX-A100 fleet's flattened graph from first
// principles: intra-node usable pairs weigh NVSwitch bandwidth,
// inter-node pairs the PCIe fallback. It enumerates every single-node
// candidate and selects under the policy's total order with exact
// fleet-global Eq. 3 values.
type fleetOracle struct {
	nodes   int
	perNode int
	leased  map[int]bool
	sick    map[int]bool
}

func newFleetOracle(nodes int) *fleetOracle {
	return &fleetOracle{nodes: nodes, perNode: 8, leased: make(map[int]bool), sick: make(map[int]bool)}
}

func (o *fleetOracle) usable() []int {
	var out []int
	for g := 0; g < o.nodes*o.perNode; g++ {
		if !o.leased[g] && !o.sick[g] {
			out = append(out, g)
		}
	}
	return out
}

func (o *fleetOracle) weight(u, v int) float64 {
	if u/o.perNode == v/o.perNode {
		return topology.LinkNVSwitch.Bandwidth()
	}
	return topology.LinkPCIe.Bandwidth()
}

// preserved computes the fleet-global Eq. 3 value of candidate S over
// the current usable set: totalFree − Σ incident + internal.
func (o *fleetOracle) preserved(s []int) float64 {
	usable := o.usable()
	total := 0.0
	for i, u := range usable {
		for _, v := range usable[i+1:] {
			total += o.weight(u, v)
		}
	}
	inSet := make(map[int]bool, len(s))
	for _, g := range s {
		inSet[g] = true
	}
	incident := 0.0
	for _, g := range s {
		for _, v := range usable {
			if v != g {
				incident += o.weight(g, v)
			}
		}
	}
	internal := 0.0
	for i, u := range s {
		for _, v := range s[i+1:] {
			_ = inSet
			internal += o.weight(u, v)
		}
	}
	return total - incident + internal
}

// selectBest returns the winning single-node k-subset under the
// policy's order. On a switch-uniform class every candidate ties on
// AggBW and EffBW, so the order reduces to: maximize PreservedBW when
// it appears in the policy's rank (preserve variants), pure
// lexicographic-first otherwise (greedy); ties resolve lexicographic,
// i.e. first generated.
func (o *fleetOracle) selectBest(k int, usePreserved bool) ([]int, float64, bool) {
	var candidates [][]int
	for n := 0; n < o.nodes; n++ {
		var local []int
		for _, g := range o.usable() {
			if g/o.perNode == n {
				local = append(local, g)
			}
		}
		if len(local) >= k {
			combinations(local, k, &candidates)
		}
	}
	if len(candidates) == 0 {
		return nil, 0, false
	}
	best := candidates[0]
	bestP := o.preserved(best)
	if usePreserved {
		for _, c := range candidates[1:] {
			if p := o.preserved(c); p > bestP {
				best, bestP = c, p
			}
		}
	}
	return best, bestP, true
}

func (o *fleetOracle) commit(gpus []int) {
	for _, g := range gpus {
		o.leased[g] = true
	}
}

// TestFleetNodeLocalOracle pins all four selection-order variants of
// the hierarchical path against the first-principles oracle through a
// churn script with health events: same GPU sets, same AggBW (pattern
// edges × NVSwitch bandwidth), same fleet-global PreservedBW.
func TestFleetNodeLocalOracle(t *testing.T) {
	variants := []struct {
		name         string
		policy       string
		sensitive    bool
		usePreserved bool
	}{
		{"greedy", "greedy", true, false},
		{"preserve-sensitive", "preserve", true, true},
		{"preserve-insensitive", "preserve", false, true},
		{"preserve-aggbw-insensitive", "preserve-aggbw", false, true},
	}
	const nodes = 3
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			fs, err := NewFleetSystemFor(topology.NewFleet(topology.DGXA100(), nodes), v.policy)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newFleetOracle(nodes)
			var leases []*Lease
			script := []churnOp{
				{kind: "alloc", gpus: 3},
				{kind: "alloc", gpus: 2},
				{kind: "mark", set: []int{9}},
				{kind: "alloc", gpus: 4},
				{kind: "alloc", gpus: 3},
				{kind: "release", idx: 0},
				{kind: "alloc", gpus: 2},
				{kind: "restore", set: []int{9}},
				{kind: "alloc", gpus: 3},
			}
			for step, op := range script {
				switch op.kind {
				case "alloc":
					want, wantPreserved, ok := oracle.selectBest(op.gpus, v.usePreserved)
					lease, err := fs.Allocate(JobRequest{NumGPUs: op.gpus, Sensitive: v.sensitive})
					if !ok {
						t.Fatalf("step %d: oracle found no single-node candidate; rework the script", step)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if fmt.Sprint(lease.GPUs) != fmt.Sprint(want) {
						t.Fatalf("step %d (k=%d): fleet GPUs %v, oracle %v", step, op.gpus, lease.GPUs, want)
					}
					edges := op.gpus
					if op.gpus == 2 {
						edges = 1
					}
					if want := float64(edges) * topology.LinkNVSwitch.Bandwidth(); lease.AggBW != want {
						t.Fatalf("step %d: AggBW %v, want %v", step, lease.AggBW, want)
					}
					if lease.PreservedBW != wantPreserved {
						t.Fatalf("step %d: PreservedBW %v, oracle %v", step, lease.PreservedBW, wantPreserved)
					}
					oracle.commit(lease.GPUs)
					leases = append(leases, lease)
				case "release":
					if err := fs.Release(leases[op.idx]); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, g := range leases[op.idx].GPUs {
						delete(oracle.leased, g)
					}
				case "mark":
					if err := fs.MarkUnhealthy(op.set...); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, g := range op.set {
						oracle.sick[g] = true
					}
				case "restore":
					if err := fs.Restore(op.set...); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, g := range op.set {
						delete(oracle.sick, g)
					}
				}
			}
			if st := fs.CacheStats(); st.FleetServed != 6 {
				t.Fatalf("hierarchical served %d of 6 decisions", st.FleetServed)
			}
		})
	}
}

// TestFleetSystemLifecycle covers the surround: accessors, release and
// health error paths, DegradeLink and Repartition rejection, and a
// fleet too large to flatten — no flat graph or store, node-local
// grants, and the spanning-pattern error.
func TestFleetSystemLifecycle(t *testing.T) {
	fs, err := NewFleetSystem("dgx-a100", 2, "preserve")
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumGPUs() != 16 || fs.fleet.NumNodes() != 2 {
		t.Fatalf("size = %d GPUs / %d nodes, want 16/2", fs.NumGPUs(), fs.fleet.NumNodes())
	}
	if fs.Policy() != "preserve" {
		t.Fatalf("policy = %q", fs.Policy())
	}
	lease, err := fs.Allocate(JobRequest{NumGPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fs.ActiveLeases() != 1 || len(fs.FreeGPUs()) != 13 {
		t.Fatalf("leases=%d free=%d, want 1/13", fs.ActiveLeases(), len(fs.FreeGPUs()))
	}
	if err := fs.DegradeLink(0, 1, 10); err == nil {
		t.Fatal("DegradeLink should be rejected on fleets")
	}
	if err := fs.Repartition(map[int]int{0: 2}); err == nil {
		t.Fatal("Repartition should be rejected on fleets")
	}
	if err := fs.MarkUnhealthy(16); err == nil {
		t.Fatal("marking a GPU outside the fleet should error")
	}
	if err := fs.MarkUnhealthy(lease.GPUs[0]); err != nil {
		t.Fatal(err)
	}
	if err := fs.MarkUnhealthy(lease.GPUs[0]); err == nil {
		t.Fatal("double mark should error")
	}
	if err := fs.Release(lease); err != nil {
		t.Fatal(err)
	}
	if err := fs.Release(lease); err == nil {
		t.Fatal("double release should error")
	}
	// The marked GPU stays out of the free pool until restored.
	if got := len(fs.FreeGPUs()); got != 15 {
		t.Fatalf("free=%d after release with one unhealthy, want 15", got)
	}
	if err := fs.Restore(lease.GPUs[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(fs.FreeGPUs()); got != 16 {
		t.Fatalf("free=%d after restore, want 16", got)
	}

	big, err := NewFleetSystem("dgx-a100", 1000, "preserve")
	if err != nil {
		t.Fatal(err)
	}
	if big.NumGPUs() != 8000 {
		t.Fatalf("big fleet = %d GPUs", big.NumGPUs())
	}
	if big.top != nil || big.store != nil || big.views != nil {
		t.Fatal("fleet above the flatten limit built a flat topology or pipeline")
	}
	// Fitting pattern: hierarchical path serves it without any flat
	// pipeline.
	l, err := big.Allocate(JobRequest{NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(l.GPUs) != fmt.Sprint([]int{0, 1, 2, 3}) {
		t.Fatalf("idle 1000-node allocation = %v, want first node's first GPUs", l.GPUs)
	}
	// Spanning pattern: no flat fallback above the flatten limit.
	if _, err := big.Allocate(JobRequest{NumGPUs: 9}); !errors.Is(err, policy.ErrNoAllocation) {
		t.Fatalf("spanning pattern on unflattenable fleet: err=%v, want ErrNoAllocation", err)
	}
}

// eachFleetSize runs fn on a fleet small enough to flatten (2 nodes,
// 16 GPUs) and one far above FleetFlattenLimit (1,000 nodes), handing
// it a constructor for fresh fleet Systems of that size.
func eachFleetSize(t *testing.T, policyName string, fn func(t *testing.T, nodes int, build func() *System)) {
	for _, nodes := range []int{2, 1000} {
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			fn(t, nodes, func() *System {
				s, err := NewFleetSystem("dgx-a100", nodes, policyName)
				if err != nil {
					t.Fatal(err)
				}
				return s
			})
		})
	}
}

// sameLease reports whether two grants are byte-identical: GPUs and
// all three scores.
func sameLease(a, b *Lease) bool {
	return fmt.Sprint(a.GPUs) == fmt.Sprint(b.GPUs) &&
		a.AggBW == b.AggBW && a.EffBW == b.EffBW && a.PreservedBW == b.PreservedBW
}

// TestFleetAllocateBatchMatchesSequential: a fleet System inherits
// AllocateBatch — one batch of ring-3 requests decides exactly like
// the same requests made one by one, through the hierarchical path,
// the flat fallback (2 nodes: the fifth request finds no node with 3
// free GPUs) and the exhausted machine.
func TestFleetAllocateBatchMatchesSequential(t *testing.T) {
	eachFleetSize(t, "preserve", func(t *testing.T, nodes int, build func() *System) {
		a, b := build(), build()
		req := JobRequest{NumGPUs: 3, Sensitive: true}
		batched, errs := a.AllocateBatch(req, 6)
		for i := range batched {
			seq, err := b.Allocate(req)
			if (errs[i] == nil) != (err == nil) {
				t.Fatalf("slot %d: batch err %v, sequential err %v", i, errs[i], err)
			}
			if err != nil {
				if !errors.Is(err, policy.ErrNoAllocation) || nodes != 2 || i != 5 {
					t.Fatalf("slot %d: %v", i, err)
				}
				continue
			}
			if batched[i].ID != seq.ID || !sameLease(batched[i], seq) {
				t.Fatalf("slot %d: batch %d %v, sequential %d %v", i, batched[i].ID, batched[i].GPUs, seq.ID, seq.GPUs)
			}
		}
		if fmt.Sprint(a.FreeGPUs()) != fmt.Sprint(b.FreeGPUs()) {
			t.Fatal("free sets diverge")
		}
		checkAvailInvariant(t, a, "after batch")
		if st := a.CacheStats(); nodes == 2 && st.TableServed+st.ViewRejected == 0 {
			t.Fatalf("batch never reached the flat fallback: %+v", st)
		}
	})
}

// TestFleetLeaseTTL: TTL leases on a fleet System renew, clear and
// expire exactly as on a flat one.
func TestFleetLeaseTTL(t *testing.T) {
	eachFleetSize(t, "preserve", func(t *testing.T, nodes int, build func() *System) {
		s := build()
		kept, err := s.Allocate(JobRequest{NumGPUs: 2, TTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		doomed, err := s.Allocate(JobRequest{NumGPUs: 4, TTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if kept.Deadline == 0 || doomed.Deadline == 0 {
			t.Fatal("TTL leases carry no deadline")
		}
		if dl, err := s.Renew(kept.ID, 0); err != nil || dl != 0 {
			t.Fatalf("clearing the TTL: deadline %d, err %v", dl, err)
		}
		if _, err := s.Renew(999, time.Hour); err == nil {
			t.Fatal("renewing an unknown lease should error")
		}
		reaped, err := s.ReapExpired(time.Now().Add(2 * time.Hour))
		if err != nil || fmt.Sprint(reaped) != fmt.Sprint([]int{doomed.ID}) {
			t.Fatalf("reaped %v (err %v), want [%d]", reaped, err, doomed.ID)
		}
		if s.Reaped() != 1 || s.ActiveLeases() != 1 || len(s.FreeGPUs()) != s.NumGPUs()-2 {
			t.Fatalf("after reap: %d reaped, %d leases, %d free", s.Reaped(), s.ActiveLeases(), len(s.FreeGPUs()))
		}
		checkAvailInvariant(t, s, "after reap")
		// The reaped GPUs serve again, through the template path.
		again, err := s.Allocate(JobRequest{NumGPUs: 4})
		if err != nil || fmt.Sprint(again.GPUs) != fmt.Sprint(doomed.GPUs) {
			t.Fatalf("reallocation after reap = %v (err %v), want %v", again, err, doomed.GPUs)
		}
	})
}

// TestFleetTenantDecisionsMatchSystem: on a fleet, a tenant handle
// decides exactly as the System does — twins driven by the same
// script, one through a tenant handle.
func TestFleetTenantDecisionsMatchSystem(t *testing.T) {
	eachFleetSize(t, "preserve", func(t *testing.T, nodes int, build func() *System) {
		s, twin := build(), build()
		tn, err := s.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		var mine, theirs []*Lease
		for step, op := range []churnOp{
			{kind: "alloc", gpus: 3},
			{kind: "alloc", gpus: 2},
			{kind: "mark", set: []int{9}},
			{kind: "alloc", gpus: 4},
			{kind: "release", idx: 0},
			{kind: "alloc", gpus: 3},
			{kind: "restore", set: []int{9}},
			{kind: "alloc", gpus: 2},
		} {
			switch op.kind {
			case "alloc":
				req := JobRequest{NumGPUs: op.gpus, Sensitive: step%2 == 0}
				got, err := tn.Allocate(req)
				if err != nil {
					t.Fatalf("step %d: tenant: %v", step, err)
				}
				want, err := twin.Allocate(req)
				if err != nil {
					t.Fatalf("step %d: system: %v", step, err)
				}
				if got.ID != want.ID || !sameLease(got, want) {
					t.Fatalf("step %d: tenant %+v, system %+v", step, got, want)
				}
				mine, theirs = append(mine, got), append(theirs, want)
			case "release":
				if err := s.Release(mine[op.idx]); err != nil {
					t.Fatal(err)
				}
				if err := twin.Release(theirs[op.idx]); err != nil {
					t.Fatal(err)
				}
			case "mark":
				if err := s.MarkUnhealthy(op.set...); err != nil {
					t.Fatal(err)
				}
				if err := twin.MarkUnhealthy(op.set...); err != nil {
					t.Fatal(err)
				}
			case "restore":
				if err := s.Restore(op.set...); err != nil {
					t.Fatal(err)
				}
				if err := twin.Restore(op.set...); err != nil {
					t.Fatal(err)
				}
			}
			checkAvailInvariant(t, s, fmt.Sprintf("step %d", step))
		}
		if st := s.CacheStats(); st.FleetServed != 5 || st.FleetRejected != 0 {
			t.Fatalf("tenant decisions: %d fleet-served, %d rejected; want 5, 0", st.FleetServed, st.FleetRejected)
		}
	})
}

// TestFleetTenantDecidesOnLiveState: a tenant handle holds no decision
// state, so a handle that served once and then sat idle through churn
// it took no part in still decides on the live state. On both fleet
// sizes its next decision is template-served, equals the twin System's
// and grants only free GPUs.
func TestFleetTenantDecidesOnLiveState(t *testing.T) {
	eachFleetSize(t, "greedy", func(t *testing.T, nodes int, build func() *System) {
		s, twin := build(), build()
		both := func(do func(*System) error) {
			t.Helper()
			if err := do(s); err != nil {
				t.Fatal(err)
			}
			if err := do(twin); err != nil {
				t.Fatal(err)
			}
		}
		a, err := s.NewTenant()
		if err != nil {
			t.Fatal(err)
		}
		// A serves once, then sits idle.
		l, err := a.Allocate(JobRequest{NumGPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
		both(func(x *System) error {
			if x == s {
				return nil
			}
			l, err := x.Allocate(JobRequest{NumGPUs: 4})
			if err != nil {
				return err
			}
			return x.Release(l)
		})
		// Churn A takes no part in: node 0 fills, node 1 takes a ring-4,
		// and a leased GPU fails.
		for _, k := range []int{4, 3, 4} {
			both(func(x *System) error { _, err := x.Allocate(JobRequest{NumGPUs: k}); return err })
		}
		both(func(x *System) error { return x.MarkUnhealthy(9) })

		free := s.FreeGPUs()
		before := s.CacheStats()
		got, err := a.Allocate(JobRequest{NumGPUs: 4})
		want, werr := twin.Allocate(JobRequest{NumGPUs: 4})
		if werr != nil {
			t.Fatal(werr)
		}
		if err != nil || !sameLease(got, want) {
			t.Fatalf("idle tenant decided %+v (err %v), System %+v", got, err, want)
		}
		if st := s.CacheStats(); st.FleetServed-before.FleetServed != 1 || st.FleetRejected != before.FleetRejected {
			t.Fatalf("idle tenant's decision: %d fleet-served, %d rejected; want 1, 0",
				st.FleetServed-before.FleetServed, st.FleetRejected-before.FleetRejected)
		}
		for _, g := range got.GPUs {
			if !slices.Contains(free, g) {
				t.Fatalf("idle tenant granted GPU %d, which was not free (%v)", g, got.GPUs)
			}
		}
		checkAvailInvariant(t, s, "after idle tenant's decision")
	})
}

// TestFleetRejectsJournal: journaled fleets have no snapshot form yet
// (snapshots rebuild catalog topologies), so WithJournal on a fleet is
// a construction error, not a silently unrecoverable journal.
func TestFleetRejectsJournal(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewFleetSystem("dgx-a100", 2, "preserve", WithJournal(dir, journal.Options{})); err == nil {
		t.Fatal("WithJournal on a fleet should fail construction")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("refused fleet touched the journal directory: %v (err %v)", entries, err)
	}
}
