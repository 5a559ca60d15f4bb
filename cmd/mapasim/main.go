// Command mapasim runs a job file through the MAPA multi-tenant
// scheduling simulator (Fig. 14 of the paper) on a chosen hardware
// topology under a chosen allocation policy, then prints the job log
// and summary statistics.
//
// Usage:
//
//	mapasim -topology dgx-v100 -policy preserve -jobs jobs.txt
//	mapasim -topology torus-2d -policy all -n 300 -seed 1
//
// With -policy all, the paper's four policies run on the same job
// stream and a Table 3-style comparison is printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mapa/internal/appgraph"
	"mapa/internal/graph"
	"mapa/internal/jobs"
	"mapa/internal/sched"
	"mapa/internal/stats"
	"mapa/internal/topology"
)

// options bundles the CLI configuration of one simulator run.
type options struct {
	topoName   string
	fleetNodes int
	policyName string
	jobFile    string
	n          int
	seed       int64
	maxGPUs    int
	workers    int
	universes  bool
	warm       bool
	cacheStats bool
	verbose    bool
	faultProb  float64
	faultDown  float64
	faultSeed  int64
	cpuProfile string
	memProfile string
}

// topologyNames lists every -topology value topology.ByName accepts:
// the single servers plus the 72-GPU cluster.
func topologyNames() []string { return append(topology.Names(), "cluster-a100") }

func main() {
	var o options
	flag.StringVar(&o.topoName, "topology", "dgx-v100", "hardware topology: "+strings.Join(topologyNames(), ", "))
	flag.IntVar(&o.fleetNodes, "fleet", 0, "treat -topology as a node template and simulate a fleet of this many nodes (flattened machine)")
	flag.StringVar(&o.policyName, "policy", "preserve", "allocation policy, or 'all' for the paper's four")
	flag.StringVar(&o.jobFile, "jobs", "", "job file path (empty generates a random mix)")
	flag.IntVar(&o.n, "n", 300, "generated job count when -jobs is empty")
	flag.Int64Var(&o.seed, "seed", 1, "generation seed when -jobs is empty")
	flag.IntVar(&o.maxGPUs, "max-gpus", 5, "max GPUs per generated job")
	flag.IntVar(&o.workers, "workers", 1, "parallel matcher/scoring and universe-build workers for MAPA policies (<2 sequential)")
	flag.BoolVar(&o.universes, "universes", true, "serve decisions from precomputed per-shape universes and score tables; false runs the paper's fresh search per decision (the reference path)")
	flag.BoolVar(&o.warm, "warm", false, "prewarm idle-state universes for every shape up to -max-gpus before scheduling")
	flag.BoolVar(&o.cacheStats, "cachestats", false, "print table-served/declined decision counters per policy and the store's universe builds")
	flag.Float64Var(&o.faultProb, "faults", 0, "per-completion probability a free GPU faults (0 disables fault churn)")
	flag.Float64Var(&o.faultDown, "fault-down", 300, "seconds a faulted GPU stays unallocatable before recovering")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed of the fault/recovery process")
	flag.BoolVar(&o.verbose, "v", false, "print the per-job log")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapasim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mapasim:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	err := run(os.Stdout, o)

	if o.memProfile != "" {
		// Collect the live heap after a GC so the profile shows what
		// the run retains, not transient garbage awaiting collection.
		runtime.GC()
		f, ferr := os.Create(o.memProfile)
		if ferr == nil {
			ferr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if ferr != nil && err == nil {
			err = ferr
		}
	}

	if err != nil {
		if o.cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintln(os.Stderr, "mapasim:", err)
		os.Exit(1)
	}
}

// warmPatterns builds every built-in shape at sizes 2..maxGPUs
// (clamped to the machine) for universe prewarming.
func warmPatterns(top *topology.Topology, maxGPUs int) []*graph.Graph {
	if maxGPUs > top.NumGPUs() {
		maxGPUs = top.NumGPUs()
	}
	return appgraph.AllShapes(maxGPUs)
}

func run(w io.Writer, o options) error {
	top, err := topology.ByName(o.topoName)
	if err != nil {
		return err
	}
	if o.fleetNodes > 0 {
		// The simulator drives the flat engine, so a fleet request is
		// served by the flattened machine: -topology names the node
		// template, inter-node pairs get the PCIe-class fallback.
		top = topology.NewFleet(top, o.fleetNodes).Flatten()
	}
	var jobList []jobs.Job
	if o.jobFile != "" {
		f, err := os.Open(o.jobFile)
		if err != nil {
			return err
		}
		defer f.Close()
		jobList, err = jobs.Parse(f)
		if err != nil {
			return err
		}
	} else {
		jobList, err = jobs.Generate(jobs.GenerateConfig{N: o.n, MaxGPUs: o.maxGPUs, Seed: o.seed})
		if err != nil {
			return err
		}
	}

	policies := []string{o.policyName}
	if o.policyName == "all" {
		policies = sched.PaperPolicies()
	}
	cfg := sched.CompareConfig{
		Mode:             sched.ModeRealRun,
		Workers:          o.workers,
		DisableUniverses: !o.universes,
	}
	if o.warm && o.universes {
		cfg.WarmPatterns = warmPatterns(top, o.maxGPUs)
	}
	if o.faultProb > 0 {
		cfg.Faults = &sched.FaultPlan{Seed: o.faultSeed, FailProb: o.faultProb, Down: o.faultDown}
	}
	results, pipeStats, storeStats, err := sched.ComparePoliciesInstrumented(top, policies, jobList, cfg)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		res := results[name]
		fmt.Fprintf(w, "== %s on %s: %d jobs, makespan %.0f s, throughput %.3f jobs/ks\n",
			name, top.Name, len(res.Records), res.Makespan, res.Throughput)
		if o.cacheStats {
			if ps, ok := pipeStats[name]; ok {
				vs := ps.Views
				fmt.Fprintf(w, "  view set: %d decisions table-served, %d declined to a search\n",
					vs.TableServed, vs.Rejected)
			}
		}
		if o.verbose {
			fmt.Fprintln(w, "  id  workload      gpus             start      end   effBW(pred)")
			for _, r := range res.Records {
				fmt.Fprintf(w, "  %-3d %-12s %-16v %8.0f %8.0f %8.2f\n",
					r.Job.ID, r.Job.Workload, r.GPUs, r.Start, r.End, r.PredictedEffBW)
			}
		}
		for _, sensitive := range []bool{true, false} {
			recs := sched.FilterMultiGPU(sched.FilterSensitive(res.Records, sensitive))
			if len(recs) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s exec time:  %s\n", sched.SensitivityLabel(sensitive),
				stats.Summarize(sched.ExecTimes(recs)))
			fmt.Fprintf(w, "  %s eff BW:     %s\n", sched.SensitivityLabel(sensitive),
				stats.Summarize(sched.PredictedEffBWs(recs)))
		}
	}

	if o.cacheStats && storeStats != nil {
		fmt.Fprintf(w, "universe store (shared): %d universes (%d incomplete)\n",
			storeStats.Universes, storeStats.Incomplete)
		if len(storeStats.Builds) > 0 {
			fmt.Fprintf(w, "universe builds: %d shapes in %v total; %d score tables in %v\n",
				len(storeStats.Builds), storeStats.BuildTime, storeStats.Tables, storeStats.TableTime)
			for _, bld := range storeStats.Builds {
				state := "complete"
				if !bld.Complete {
					state = "incomplete"
				}
				fmt.Fprintf(w, "  shape %dv/%de: %d classes (%s) in %v, workers=%d\n",
					bld.Vertices, bld.Edges, bld.Classes, state, bld.Duration, bld.Workers)
			}
		}
	}

	if len(results) > 1 {
		rows, err := sched.Table3(results, "baseline")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nTable 3 — execution-time speedup over baseline (sensitive multi-GPU jobs):")
		fmt.Fprint(w, sched.FormatTable3(rows))
	}
	return nil
}
