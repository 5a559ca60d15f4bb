package sched

import (
	"fmt"
	"testing"

	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/topology"
)

// faultRun executes one engine run with the given fault plan, through
// the table-served pipeline or (searchOnly) the bare policy's fresh
// search, returning the records and view stats.
func faultRun(t *testing.T, plan *FaultPlan, searchOnly bool) ([]Record, matchcache.ViewStats) {
	t.Helper()
	top := topology.DGXV100()
	p := policy.NewPreserve(nil)
	e := NewEngine(top, p)
	e.Faults = plan
	if searchOnly {
		e.Universes = nil
	}
	res, err := e.Run(smallMix(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	return res.Records, e.Views.Stats()
}

// TestFaultChurnParityAcrossPipeline: a fault plan injects the same
// failure/recovery churn whether decisions are served from the
// delta-maintained live views or searched afresh on the availability
// graph, and every allocation decision must be byte-identical across
// the two — health events are topology deltas, not behavior changes.
func TestFaultChurnParityAcrossPipeline(t *testing.T) {
	plan := &FaultPlan{Seed: 7, FailProb: 0.35, Down: 400}
	fast, vs := faultRun(t, plan, false)
	slow, _ := faultRun(t, plan, true)
	if len(fast) != len(slow) {
		t.Fatalf("table-served run completed %d jobs, search run %d", len(fast), len(slow))
	}
	for i := range fast {
		a, b := fast[i], slow[i]
		if fmt.Sprint(a.GPUs) != fmt.Sprint(b.GPUs) || a.Start != b.Start || a.End != b.End ||
			a.PredictedEffBW != b.PredictedEffBW || a.AggBW != b.AggBW || a.PreservedBW != b.PreservedBW {
			t.Fatalf("job %d diverged under fault churn:\n  table-served %v [%g,%g] eff=%g agg=%g pres=%g\n  searched     %v [%g,%g] eff=%g agg=%g pres=%g",
				a.Job.ID, a.GPUs, a.Start, a.End, a.PredictedEffBW, a.AggBW, a.PreservedBW,
				b.GPUs, b.Start, b.End, b.PredictedEffBW, b.AggBW, b.PreservedBW)
		}
	}
	if vs.TableServed == 0 {
		t.Fatal("fault churn run never served a decision from the live views")
	}
	if vs.Rejected != 0 {
		t.Fatalf("live views rejected %d decisions under fault churn — the health mask diverged from the availability stream", vs.Rejected)
	}
}

// TestFaultPlanIsReproducible: same plan, same jobs — same schedule,
// twice.
func TestFaultPlanIsReproducible(t *testing.T) {
	plan := &FaultPlan{Seed: 3, FailProb: 0.5, Down: 250}
	a, _ := faultRun(t, plan, false)
	b, _ := faultRun(t, plan, false)
	for i := range a {
		if fmt.Sprint(a[i].GPUs) != fmt.Sprint(b[i].GPUs) || a[i].End != b[i].End {
			t.Fatalf("job %d not reproducible across identical fault runs", a[i].Job.ID)
		}
	}
}

// TestFaultChurnChangesSchedule guards against the plan being silently
// ignored: heavy churn on a saturated machine must alter the schedule
// relative to the fault-free run.
func TestFaultChurnChangesSchedule(t *testing.T) {
	faulty, _ := faultRun(t, &FaultPlan{Seed: 1, FailProb: 0.9, Down: 600}, false)
	clean, _ := faultRun(t, nil, false)
	if len(faulty) != len(clean) {
		return // all jobs still complete in both, lengths match; defensive
	}
	for i := range faulty {
		if fmt.Sprint(faulty[i].GPUs) != fmt.Sprint(clean[i].GPUs) || faulty[i].End != clean[i].End {
			return
		}
	}
	t.Fatal("90% fault churn left the schedule identical to the fault-free run")
}

// TestFaultPlanValidation: malformed plans fail fast.
func TestFaultPlanValidation(t *testing.T) {
	top := topology.DGXV100()
	for _, plan := range []*FaultPlan{
		{FailProb: -0.1, Down: 10},
		{FailProb: 1.5, Down: 10},
		{FailProb: 0.5, Down: -1},
	} {
		e := NewEngine(top, policy.NewPreserve(nil))
		e.Faults = plan
		if _, err := e.Run(smallMix(5, 1)); err == nil {
			t.Errorf("plan %+v accepted", *plan)
		}
	}
}
