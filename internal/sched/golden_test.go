package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/jobs"
	"mapa/internal/ncclsim"
	"mapa/internal/policy"
	"mapa/internal/topology"
	"mapa/internal/workload"
)

// referenceRun is the simulation engine in its naive form, kept as the
// oracle for Engine.Run: a queue that shifts the job slice on every
// removal, events re-sorted on every push, the availability kept as a
// graph — the induced subgraph over the free GPUs, rebuilt on every
// change and handed to the policy through the graph-typed AllocateInto
// — the pattern and the ring decomposition recomputed for every job,
// and a bare policy with no match pipeline attached.
func referenceRun(top *topology.Topology, alloc policy.Allocator, d Discipline, faults *FaultPlan, jobList []jobs.Job) ([]Record, error) {
	model := effbw.TrainedFor(top)
	queue := append([]jobs.Job(nil), jobList...)
	candidates := func() []int {
		switch {
		case len(queue) == 0:
			return nil
		case d == SJF:
			best, bestEst := 0, 0.0
			for i, j := range queue {
				w, err := workload.ByName(j.Workload)
				if err != nil {
					panic(err)
				}
				est := estimateDuration(&w, j)
				if i == 0 || est < bestEst {
					best, bestEst = i, est
				}
			}
			return []int{best}
		case d == Backfill:
			idx := make([]int, len(queue))
			for i := range idx {
				idx[i] = i
			}
			return idx
		}
		return []int{0}
	}

	avail := top.Graph.Clone()
	// setFree rebuilds the availability graph with gpus added to (or
	// removed from) the free set.
	setFree := func(gpus []int, free bool) {
		keep := make(map[int]bool)
		for _, v := range avail.Vertices() {
			keep[v] = true
		}
		for _, g := range gpus {
			keep[g] = free
		}
		var vs []int
		for v, in := range keep {
			if in {
				vs = append(vs, v)
			}
		}
		avail = top.Graph.InducedSubgraph(vs)
	}
	var pending []event
	push := func(ev event) {
		pending = append(pending, ev)
		sort.Slice(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
	}
	var frng *rand.Rand
	if faults != nil && faults.FailProb > 0 {
		frng = rand.New(rand.NewSource(faults.Seed))
	}
	var records []Record
	now := 0.0
	place := func(j jobs.Job) (bool, error) {
		pat, err := j.Pattern()
		if err != nil {
			return false, err
		}
		var a policy.Allocation
		if err := policy.AllocateInto(alloc, &a, avail, top, policy.Request{Pattern: pat, Sensitive: j.Sensitive}); err != nil {
			return false, nil
		}
		w, err := workload.ByName(j.Workload)
		if err != nil {
			return false, err
		}
		res := ncclsim.Decompose(top, a.GPUs)
		exec := w.ExecTime(top, a.GPUs, j.Iters)
		records = append(records, Record{
			Job: j, GPUs: a.GPUs, Start: now, End: now + exec, ExecTime: exec,
			PredictedEffBW: model.Predict(effbw.MixFromDecomposition(top, res)),
			MeasuredEffBW:  res.PeakEffBW,
			AggBW:          a.Scores.AggBW,
			PreservedBW:    a.Scores.PreservedBW,
		})
		setFree(a.GPUs, false)
		push(event{at: now + exec, job: j.ID, gpus: a.GPUs})
		return true, nil
	}
	for len(queue) > 0 || len(pending) > 0 {
		for placed := true; placed && len(queue) > 0; {
			placed = false
			for _, idx := range candidates() {
				ok, err := place(queue[idx])
				if err != nil {
					return nil, err
				}
				if ok {
					queue = append(queue[:idx], queue[idx+1:]...)
					placed = true
					break
				}
			}
		}
		if len(pending) == 0 {
			if len(queue) > 0 {
				return nil, fmt.Errorf("reference: job %d cannot be placed on an idle machine", queue[0].ID)
			}
			break
		}
		ev := pending[0]
		pending = pending[1:]
		now = ev.at
		setFree(ev.gpus, true)
		if ev.recover {
			continue
		}
		if frng != nil && frng.Float64() < faults.FailProb {
			if free := avail.Vertices(); len(free) > 0 {
				victim := free[frng.Intn(len(free))]
				setFree([]int{victim}, false)
				push(event{at: now + faults.Down, gpus: []int{victim}, recover: true})
			}
		}
	}
	return records, nil
}

// TestRunMatchesReferenceEngine is the golden-parity test of the
// engine's bookkeeping: the indexed queue, the sorted-insert event
// list, the availability mask, the reused decision buffer, the per-run
// pattern and physics memos and the lazily synced live views must log,
// field for field, what the naive engine logs — under every discipline
// and paper policy, with and without fault churn, on both DGX
// generations.
func TestRunMatchesReferenceEngine(t *testing.T) {
	jobList := smallMix(150, 17)
	for _, top := range []*topology.Topology{topology.DGXV100(), topology.DGXA100()} {
		for _, faults := range []*FaultPlan{nil, {Seed: 3, FailProb: .05, Down: 50}} {
			for _, d := range Disciplines() {
				for _, name := range PaperPolicies() {
					label := fmt.Sprintf("%s/%s/%s/faults=%v", top.Name, d, name, faults != nil)
					subject, err := policy.ByName(name, nil)
					if err != nil {
						t.Fatal(err)
					}
					oracle, err := policy.ByName(name, nil)
					if err != nil {
						t.Fatal(err)
					}
					e := NewEngine(top, subject)
					e.Queue, e.Faults = d, faults
					got, err := e.Run(jobList)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := referenceRun(top, oracle, d, faults, jobList)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if len(got.Records) != len(want) {
						t.Fatalf("%s: logged %d records, reference %d", label, len(got.Records), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got.Records[i], want[i]) {
							t.Fatalf("%s: record %d differs\n engine    %+v\n reference %+v", label, i, got.Records[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestRunAllocationsPerPlacement bounds the garbage one simulated
// placement makes on the paper's configuration (FIFO, dgx-v100, warm
// store), where the decision writes into the engine's reused buffer —
// table-served for Preserve, ranked off the pair table for Baseline —
// so what is measured is the engine's bookkeeping. With an availability
// graph edited per event that was 6.6 mallocs per placement; with a
// mask, one GPU-set copy per distinct set and the growing event list
// are what is left. A regression is paid in GC time and peak RSS on
// 20,000-job replays long before it shows in a unit test's wall time.
func TestRunAllocationsPerPlacement(t *testing.T) {
	jobList := smallMix(2000, 1)
	for _, a := range []policy.Allocator{policy.NewPreserve(nil), policy.NewBaseline(nil)} {
		e := NewEngine(topology.DGXV100(), a)
		run := func() {
			res, err := e.Run(jobList)
			if err != nil || len(res.Records) != len(jobList) {
				t.Fatalf("%s: %d records, err %v", a.Name(), len(res.Records), err)
			}
		}
		run() // builds the universes and score tables the engine keeps
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		n := float64(len(jobList))
		mallocs := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.1f mallocs, %.0f B per placement", a.Name(), mallocs, bytes)
		if mallocs > 4 || bytes > 640 {
			t.Errorf("%s: %.1f mallocs and %.0f B per placement, want at most 4 and 640", a.Name(), mallocs, bytes)
		}
	}
}
