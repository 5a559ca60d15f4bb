package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mapa/internal/jobs"
	"mapa/internal/match"
	"mapa/internal/sched"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// simQuality is the decision quality of one paper-experiment replay:
// deterministic per seed, so every replay of a run must produce the
// same four numbers.
type simQuality struct {
	effbwMean          float64 // mean PredictedEffBW, sensitive multi-GPU jobs, preserve
	speedupP50         float64 // Table 3, preserve vs baseline
	speedupP75         float64
	worstCaseReduction float64 // 1 - max exec time preserve / max exec time baseline
}

func sensitiveMulti(r sched.RunResult) []sched.Record {
	return sched.FilterMultiGPU(sched.FilterSensitive(r.Records, true))
}

func quality(res map[string]sched.RunResult) (simQuality, error) {
	var q simQuality
	q.effbwMean = mean(sched.PredictedEffBWs(sensitiveMulti(res["preserve"])))
	rows, err := sched.Table3(res, "baseline")
	if err != nil {
		return q, err
	}
	for _, r := range rows {
		if r.Policy == "preserve" {
			q.speedupP50, q.speedupP75 = r.P50, r.P75
		}
	}
	maxExec := func(policy string) float64 {
		m := 0.0
		for _, t := range sched.ExecTimes(sensitiveMulti(res[policy])) {
			m = max(m, t)
		}
		return m
	}
	if base := maxExec("baseline"); base > 0 {
		q.worstCaseReduction = 1 - maxExec("preserve")/base
	}
	return q, nil
}

// simSetup generates the job mix and the machine, several times, and
// returns them with each repetition's wall time.
func simSetup(w *workload, seed int64, n, reps int) (*topology.Topology, []jobs.Job, []float64, error) {
	var top *topology.Topology
	var jobList []jobs.Job
	var setupS []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if top, err = topology.ByName(w.topology); err != nil {
			return nil, nil, nil, err
		}
		if jobList, err = jobs.Generate(jobs.GenerateConfig{N: n, MaxGPUs: 5, Seed: seed}); err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	return top, jobList, setupS, nil
}

// simWindow is one full replay of the paper experiment.
type simWindow struct {
	cpu        time.Duration // the process's user+system time
	placements int
}

// simRun is the raw outcome of the untraced sim-paper workload.
type simRun struct {
	setupS    []float64
	windows   []simWindow
	quality   simQuality
	tally     tally
	peakRSSMB float64
}

// placed counts the jobs every policy scheduled and tallies any job a
// policy lost.
func placed(res map[string]sched.RunResult, jobList []jobs.Job, t *tally) int {
	n := 0
	for _, p := range sched.PaperPolicies() {
		got := len(res[p].Records)
		n += got
		t.ok(got)
		for i := got; i < len(jobList); i++ {
			t.add(fmt.Errorf("policy %s scheduled %d of %d jobs", p, got, len(jobList)))
		}
	}
	return n
}

// runSim replays the paper's experiment — one generated job mix under
// the four paper policies, default pipeline, nothing pre-warmed — once
// per window, for at least minWindows windows and until dur has
// passed: the run's length is set by the clock, not by the machine's
// speed that day.
func runSim(w *workload, seed int64, jobsN, minWindows int, dur time.Duration) (*simRun, error) {
	top, jobList, setupS, err := simSetup(w, seed, jobsN, 201)
	if err != nil {
		return nil, err
	}
	run := &simRun{setupS: setupS}
	for k, begin := 0, time.Now(); k < minWindows || time.Since(begin) < dur; k++ {
		// A mapasim user runs one replay per process; collecting the
		// previous replay's garbage first keeps it out of this one's
		// time and out of the peak RSS.
		runtime.GC()
		cpu0 := selfCPU()
		res, err := sched.ComparePolicies(top, sched.PaperPolicies(), jobList)
		if err != nil {
			return nil, err
		}
		sw := simWindow{cpu: selfCPU() - cpu0}
		sw.placements = placed(res, jobList, &run.tally)
		run.windows = append(run.windows, sw)
		q, err := quality(res)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			run.quality = q
		} else if q != run.quality {
			run.tally.add(fmt.Errorf("replay %d decided differently: quality %+v, first replay %+v", k, q, run.quality))
		}
	}
	if run.peakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return run, nil
}

// runSimLayers is sim-paper's traced run: each paper policy replayed on
// its own for its share of the time, then all four through the
// instrumented comparison for the match-pipeline counts, which repeat
// exactly on this single-threaded replay.
func runSimLayers(w *workload, seed int64, n int) (*layerRun, error) {
	top, jobList, _, err := simSetup(w, seed, n, 1)
	if err != nil {
		return nil, err
	}
	lr := &layerRun{metrics: make(map[string]float64)}
	m := lr.metrics
	for _, p := range sched.PaperPolicies() {
		start := clock()
		if _, err := sched.ComparePolicies(top, []string{p}, jobList); err != nil {
			return nil, err
		}
		end := clock()
		lr.trace.add(0, 0, "sched.run."+p, start, end)
		m["sched.run_us_per_job."+p] = float64(end-start) / 1e3 / float64(n)
		lr.budget = append(lr.budget, budgetLine{"sched." + p, m["sched.run_us_per_job."+p] / float64(len(sched.PaperPolicies()))})
	}
	searches, filters, evals := match.Searches(), match.Filters(), score.Evaluations()
	start := clock()
	res, _, store, err := sched.ComparePoliciesInstrumented(top, sched.PaperPolicies(), jobList, sched.CompareConfig{})
	if err != nil {
		return nil, err
	}
	end := clock()
	lr.trace.add(0, 1, "sched.compare", start, end)
	if d := float64(placed(res, jobList, &lr.tally)); d > 0 {
		lr.clientUS = float64(end-start) / 1e3 / d
		m["match.searches_per_decision"] = float64(match.Searches()-searches) / d
		m["match.filters_per_decision"] = float64(match.Filters()-filters) / d
		m["score.evals_per_decision"] = float64(score.Evaluations()-evals) / d
	}
	for _, b := range store.Builds {
		m["matchcache.candidates"] += float64(b.Classes)
	}
	m["match.build_universe_s"] = store.BuildTime.Seconds()
	q, err := quality(res)
	if err != nil {
		return nil, err
	}
	m["policy.effbw_mean_gbps"] = q.effbwMean
	m["sched.quality_speedup_p50"] = q.speedupP50
	m["sched.quality_speedup_p75"] = q.speedupP75
	m["sched.quality_worst_case_reduction"] = q.worstCaseReduction
	return lr, nil
}
