package sched

import (
	"math"
	"strings"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/jobs"
	"mapa/internal/policy"
	"mapa/internal/regress"
	"mapa/internal/topology"
)

func smallMix(n int, seed int64) []jobs.Job {
	js, err := jobs.Generate(jobs.GenerateConfig{N: n, MaxGPUs: 5, Seed: seed})
	if err != nil {
		panic(err)
	}
	return js
}

func TestRunCompletesAllJobs(t *testing.T) {
	top := topology.DGXV100()
	for _, name := range PaperPolicies() {
		p, err := policy.ByName(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(top, p).Run(smallMix(40, 3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Records) != 40 {
			t.Fatalf("%s: %d records, want 40", name, len(res.Records))
		}
		if res.Policy != name {
			t.Errorf("%s: result labeled %q", name, res.Policy)
		}
		if res.Makespan <= 0 || res.Throughput <= 0 {
			t.Errorf("%s: makespan %g, throughput %g", name, res.Makespan, res.Throughput)
		}
	}
}

func TestRunRecordsAreConsistent(t *testing.T) {
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewPreserve(nil)).Run(smallMix(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if len(r.GPUs) != r.Job.NumGPUs {
			t.Errorf("job %d: %d GPUs assigned, want %d", r.Job.ID, len(r.GPUs), r.Job.NumGPUs)
		}
		if r.End < r.Start {
			t.Errorf("job %d: end %g before start %g", r.Job.ID, r.End, r.Start)
		}
		if math.Abs(r.End-r.Start-r.ExecTime) > 1e-9 {
			t.Errorf("job %d: time bookkeeping broken", r.Job.ID)
		}
		if r.ExecTime <= 0 {
			t.Errorf("job %d: non-positive exec time", r.Job.ID)
		}
		if r.PredictedEffBW < 0 || r.MeasuredEffBW < 0 {
			t.Errorf("job %d: negative bandwidth", r.Job.ID)
		}
		if r.End > res.Makespan {
			t.Errorf("job %d finishes after makespan", r.Job.ID)
		}
	}
}

func TestNoDoubleAllocation(t *testing.T) {
	// At every instant, no GPU may be assigned to two running jobs.
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewGreedy(nil)).Run(smallMix(60, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Records {
		for _, b := range res.Records[i+1:] {
			if a.Start < b.End && b.Start < a.End { // overlap in time
				for _, ga := range a.GPUs {
					for _, gb := range b.GPUs {
						if ga == gb {
							t.Fatalf("GPU %d shared by jobs %d and %d during overlap",
								ga, a.Job.ID, b.Job.ID)
						}
					}
				}
			}
		}
	}
}

func TestFIFOOrdering(t *testing.T) {
	// Jobs must start in submission order (head-of-line blocking, no
	// backfill).
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewBaseline(nil)).Run(smallMix(50, 17))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Start < res.Records[i-1].Start-1e-9 {
			t.Fatalf("job %d started before its predecessor", res.Records[i].Job.ID)
		}
	}
}

func TestGPUCapacityNeverExceeded(t *testing.T) {
	top := topology.Summit() // 6 GPUs makes contention certain
	res, err := NewEngine(top, policy.NewPreserve(nil)).Run(smallMix(30, 23))
	if err != nil {
		t.Fatal(err)
	}
	// Sweep the timeline: at each record start, count GPUs in use.
	for _, probe := range res.Records {
		used := 0
		for _, r := range res.Records {
			if r.Start <= probe.Start && probe.Start < r.End {
				used += len(r.GPUs)
			}
		}
		if used > top.NumGPUs() {
			t.Fatalf("at t=%g, %d GPUs in use on a %d-GPU machine", probe.Start, used, top.NumGPUs())
		}
	}
}

func TestRunRejectsOversizedJob(t *testing.T) {
	top := topology.Summit()
	bad := []jobs.Job{{ID: 1, Workload: "vgg-16", NumGPUs: 7, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 100}}
	if _, err := NewEngine(top, policy.NewBaseline(nil)).Run(bad); err == nil {
		t.Fatal("7-GPU job on 6-GPU Summit should fail")
	}
}

func TestRunRejectsInvalidJob(t *testing.T) {
	top := topology.DGXV100()
	bad := []jobs.Job{{ID: 1, Workload: "nope", NumGPUs: 2, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 100}}
	if _, err := NewEngine(top, policy.NewBaseline(nil)).Run(bad); err == nil {
		t.Fatal("invalid workload should fail")
	}
	// A job whose (workload, shape) an earlier job already validated still
	// fails on its own counts, with exactly Validate's error.
	ok := jobs.Job{ID: 1, Workload: "vgg-16", NumGPUs: 2, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 100}
	for _, j := range []jobs.Job{
		{ID: 2, Workload: "vgg-16", NumGPUs: 0, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 100},
		{ID: 2, Workload: "vgg-16", NumGPUs: 2, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 0},
		{ID: 2, Workload: "VGG-16", NumGPUs: 2, Shape: "bogus", Sensitive: true, Iters: 100},
	} {
		_, err := NewEngine(top, policy.NewBaseline(nil)).Run([]jobs.Job{ok, j})
		want := j.Validate()
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Run(%+v) = %v, want %v", j, err, want)
		}
	}
}

func TestRunEmptyJobList(t *testing.T) {
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewBaseline(nil)).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Makespan != 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestEngineMissingPieces(t *testing.T) {
	if _, err := (&Engine{}).Run(nil); err == nil {
		t.Fatal("engine without topology/policy should fail")
	}
}

func TestProxyModeUsesPredictedBandwidth(t *testing.T) {
	// Sec. 5.1: the simulator uses effective bandwidth as the proxy
	// for execution time. Proxy-mode times must still distinguish good
	// from bad allocations.
	top := topology.DGXV100()
	e := NewEngine(top, policy.NewPreserve(nil))
	e.Mode = ModeProxy
	res, err := e.Run(smallMix(30, 31))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 30 {
		t.Fatalf("records = %d", len(res.Records))
	}
	for _, r := range res.Records {
		if r.ExecTime <= 0 {
			t.Fatalf("job %d: exec time %g", r.Job.ID, r.ExecTime)
		}
	}
}

func TestSimulatedVsMeasuredBandwidthCorrelate(t *testing.T) {
	// Fig. 15: predicted (model) and measured (microbenchmark)
	// effective bandwidths correlate across a run.
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewPreserve(nil)).Run(smallMix(80, 37))
	if err != nil {
		t.Fatal(err)
	}
	multi := FilterMultiGPU(res.Records)
	r := regress.Pearson(PredictedEffBWs(multi), MeasuredEffBWs(multi))
	if r < 0.8 {
		t.Errorf("predicted vs measured correlation = %g, want > 0.8", r)
	}
}

func TestPreserveBeatsBaselineAtTail(t *testing.T) {
	// The paper's headline result (Table 3): Preserve improves the
	// upper tail of sensitive jobs' execution time over Baseline.
	top := topology.DGXV100()
	results, err := ComparePolicies(top, []string{"baseline", "preserve"}, jobs.PaperMix(1))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table3(results, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	var preserve SpeedupSummary
	for _, row := range rows {
		if row.Policy == "preserve" {
			preserve = row
		}
	}
	if preserve.P75 < 1.0 {
		t.Errorf("preserve 75th-pct speedup = %.3f, want >= 1", preserve.P75)
	}
	if preserve.Max < 1.0 {
		t.Errorf("preserve max-tail speedup = %.3f, want >= 1", preserve.Max)
	}
	t.Logf("Table 3 excerpt:\n%s", FormatTable3(rows))
}

// TestPipelineStatsSurfaceBuildTimings: a warmed comparison must
// surface the shared store's per-shape universe build records through
// every policy's PipelineStats, each warmed build run with the
// comparison's worker count.
func TestPipelineStatsSurfaceBuildTimings(t *testing.T) {
	top := topology.DGXV100()
	cfg := CompareConfig{
		Mode:         ModeFixed,
		Workers:      4,
		WarmPatterns: appgraph.AllShapes(4),
	}
	_, pipeStats, storeStats, err := ComparePoliciesInstrumented(top, []string{"baseline", "preserve"}, smallMix(20, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if storeStats == nil || len(storeStats.Builds) == 0 {
		t.Fatalf("store stats carry no builds: %+v", storeStats)
	}
	for _, b := range storeStats.Builds {
		if b.Workers != 4 {
			t.Fatalf("build recorded %d workers, want 4: %+v", b.Workers, b)
		}
		if b.Duration <= 0 {
			t.Fatalf("build without a duration: %+v", b)
		}
	}
	for name, ps := range pipeStats {
		if len(ps.Builds) == 0 || ps.BuildTime <= 0 {
			t.Fatalf("policy %s pipeline stats carry no build timings: %+v", name, ps)
		}
	}
}

func TestTable3Errors(t *testing.T) {
	if _, err := Table3(map[string]RunResult{}, "baseline"); err == nil {
		t.Error("missing baseline should error")
	}
	empty := map[string]RunResult{"baseline": {}}
	if _, err := Table3(empty, "baseline"); err == nil {
		t.Error("empty baseline records should error")
	}
}

func TestReportHelpers(t *testing.T) {
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewBaseline(nil)).Run(smallMix(40, 41))
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Records
	if len(ExecTimes(rs)) != len(rs) || len(PredictedEffBWs(rs)) != len(rs) || len(MeasuredEffBWs(rs)) != len(rs) {
		t.Fatal("extractors must be 1:1")
	}
	sens := FilterSensitive(rs, true)
	insens := FilterSensitive(rs, false)
	if len(sens)+len(insens) != len(rs) {
		t.Fatal("sensitivity filter must partition")
	}
	for _, r := range FilterWorkload(rs, "vgg-16") {
		if r.Job.Workload != "vgg-16" {
			t.Fatal("workload filter leaked")
		}
	}
	for _, r := range FilterMultiGPU(rs) {
		if r.Job.NumGPUs < 2 {
			t.Fatal("multi-GPU filter leaked")
		}
	}
	sums := WorkloadSummaries(rs, func(r Record) float64 { return r.ExecTime })
	if len(sums) == 0 {
		t.Fatal("no workload summaries")
	}
	if SensitivityLabel(true) != "BW-Sensitive" || SensitivityLabel(false) != "BW-Insensitive" {
		t.Fatal("labels wrong")
	}
}

func TestFragmentationQuality(t *testing.T) {
	top := topology.DGXV100()
	res, err := NewEngine(top, policy.NewBaseline(nil)).Run(smallMix(100, 43))
	if err != nil {
		t.Fatal(err)
	}
	frac := FragmentationQuality(top, res.Records)
	if len(frac) == 0 {
		t.Fatal("no fragmentation data")
	}
	for k, vals := range frac {
		if k < 2 || k > 5 {
			t.Errorf("unexpected group %d", k)
		}
		for _, v := range vals {
			if v <= 0 || v > 1+1e-9 {
				t.Errorf("quality %g outside (0,1]", v)
			}
		}
	}
}

func TestFormatTable3(t *testing.T) {
	out := FormatTable3([]SpeedupSummary{{Policy: "preserve", Min: 1, P25: 1.05, P50: 1.1, P75: 1.12, Max: 1.35, Throughput: 1.12}})
	if !strings.Contains(out, "preserve") || !strings.Contains(out, "Tput") {
		t.Fatalf("format = %q", out)
	}
}
