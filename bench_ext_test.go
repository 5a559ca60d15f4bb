// Extension benchmarks: the paper's sketched-but-unevaluated features
// implemented in this repository — queue reordering (Sec. 4 notes MAPA
// is scheduler-agnostic), parallel match scoring (the Sec. 5.4
// overhead mitigation), and MIG many-to-one mapping (Sec. 3.2/3.3).
package mapa

import (
	"fmt"
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/jobs"
	"mapa/internal/mig"
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

// BenchmarkExtParallelScoring measures the Sec. 5.4 mitigation: one
// Preserve decision for a 5-GPU ring on the 16-GPU Cube-mesh,
// sequential vs parallel scoring.
func BenchmarkExtParallelScoring(b *testing.B) {
	top := topology.CubeMesh16()
	scorer := score.NewScorer(effbw.TrainedFor(top))
	req := policy.Request{Pattern: appgraph.Ring(5), Sensitive: true}
	report(b, "Extension — parallel match scoring (Sec. 5.4)", func() {
		fmt.Printf("  GOMAXPROCS = %d; speedup over workers=1 requires multiple cores\n",
			policy.DefaultParallelism())
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := policy.NewPreserve(scorer)
			policy.SetParallelism(p, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Allocate(top, top.Graph.VertexBitset(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtMIGAllocation exercises the many-to-one extension: a
// DGX-V with two GPUs split into MIG slices, serving a stream of
// whole-GPU and slice-tolerant jobs.
func BenchmarkExtMIGAllocation(b *testing.B) {
	top := topology.DGXV100()
	vt, err := mig.Split(top, map[int]int{0: 4, 1: 2})
	if err != nil {
		b.Fatal(err)
	}
	scorer := score.NewScorer(effbw.TrainedFor(top))
	var whole, sliced mig.Allocation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		whole, err = vt.Allocate(vt.Graph.Clone(), scorer, mig.Request{
			Pattern: appgraph.Ring(3), Sensitive: true, MinFraction: 1.0,
		})
		if err != nil {
			b.Fatal(err)
		}
		sliced, err = vt.Allocate(vt.Graph.Clone(), scorer, mig.Request{
			Pattern: appgraph.Ring(3), Sensitive: true, MinFraction: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, "Extension — MIG many-to-one mapping (DGX-V, GPUs 0 and 1 split)", func() {
		fmt.Printf("  machine: %d virtual accelerators over %d physical GPUs\n", vt.NumGPUs(), top.NumGPUs())
		fmt.Printf("  whole-GPU 3-ring: virtual %v on physical %v (EffBW %.1f GB/s)\n",
			whole.GPUs, whole.Physical, whole.Scores.EffBW)
		fmt.Printf("  slice-tolerant 3-ring: virtual %v on physical %v (EffBW %.1f GB/s)\n",
			sliced.GPUs, sliced.Physical, sliced.Scores.EffBW)
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
