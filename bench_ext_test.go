// Extension benchmarks: the paper's sketched-but-unevaluated features
// implemented in this repository — queue reordering (Sec. 4 notes MAPA
// is scheduler-agnostic) — and the simulator's duration semantics.
package mapa

import (
	"fmt"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/jobs"
	"mapa/internal/policy"
	"mapa/internal/sched"
	"mapa/internal/score"
	"mapa/internal/stats"
	"mapa/internal/topology"
)

// BenchmarkExtQueueDisciplines compares FIFO (the paper's
// configuration) against SJF and EASY backfill under the Preserve
// policy on the DGX-V.
func BenchmarkExtQueueDisciplines(b *testing.B) {
	top := topology.DGXV100()
	jobList := jobs.PaperMix(1)
	scorer := score.NewScorer(effbw.TrainedFor(top))
	type row struct {
		d          sched.Discipline
		makespan   float64
		throughput float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range sched.Disciplines() {
			e := sched.NewEngine(top, policy.NewPreserve(scorer))
			e.Queue = d
			res, err := e.Run(jobList)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{d, res.Makespan, res.Throughput})
		}
	}
	b.StopTimer()
	report(b, "Extension — queue disciplines under Preserve (300-job mix)", func() {
		for _, r := range rows {
			fmt.Printf("  %-10s makespan %8.0f s   throughput %.3f jobs/ks\n", r.d, r.makespan, r.throughput)
		}
	})
}

// BenchmarkExtFixedVsRealRunMode quantifies how the simulator's
// duration semantics (Sec. 5.1 fixed durations vs the real-run
// workload model) shift the Fig. 13-style distributions.
func BenchmarkExtFixedVsRealRunMode(b *testing.B) {
	top := topology.DGXV100()
	jobList := jobs.PaperMix(1)
	var realRun, fixed map[string]sched.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		realRun, err = sched.ComparePoliciesMode(top, []string{"baseline", "preserve"}, jobList, sched.ModeRealRun)
		if err != nil {
			b.Fatal(err)
		}
		fixed, err = sched.ComparePoliciesMode(top, []string{"baseline", "preserve"}, jobList, sched.ModeFixed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, "Extension — duration-mode ablation (sensitive jobs, preserve vs baseline)", func() {
		for label, results := range map[string]map[string]sched.RunResult{"real-run": realRun, "fixed": fixed} {
			for _, p := range []string{"baseline", "preserve"} {
				recs := sched.FilterMultiGPU(sched.FilterSensitive(results[p].Records, true))
				fmt.Printf("  %-9s %-9s EffBW: %s\n", label, p,
					stats.Summarize(sched.PredictedEffBWs(recs)))
			}
		}
	})
}
