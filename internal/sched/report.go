package sched

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/jobs"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/stats"
	"mapa/internal/topology"
)

// ComparePolicies runs the same job list under each named policy on
// fresh engine state and returns the results keyed by policy name.
// Policies score candidate matches with an Eq. 2 model trained for the
// topology, exactly as MAPA deploys: train once per machine, then
// predict per allocation.
func ComparePolicies(top *topology.Topology, policyNames []string, jobList []jobs.Job) (map[string]RunResult, error) {
	return ComparePoliciesMode(top, policyNames, jobList, ModeRealRun)
}

// ComparePoliciesMode is ComparePolicies with an explicit engine mode.
// The paper's exploration study (Sec. 5, Fig. 18) uses ModeFixed:
// durations come from baseline measurements so the admission schedule
// is identical across policies and effective bandwidth isolates
// allocation quality.
func ComparePoliciesMode(top *topology.Topology, policyNames []string, jobList []jobs.Job, mode Mode) (map[string]RunResult, error) {
	return ComparePoliciesConfig(top, policyNames, jobList, CompareConfig{Mode: mode})
}

// CompareConfig tunes the engines ComparePoliciesConfig builds.
type CompareConfig struct {
	// Mode selects the execution-time source.
	Mode Mode
	// DisableUniverses runs every engine without a universe store:
	// each MAPA decision is a fresh subgraph-isomorphism search on the
	// availability graph — the paper's per-decision pipeline, and the
	// reference the table-served path is tested against. Decisions are
	// byte-identical either way.
	DisableUniverses bool
	// WarmPatterns are job shapes whose idle-state universes are
	// precomputed before any engine runs — the init-time build
	// paid once for the whole comparison instead of on first use.
	WarmPatterns []*graph.Graph
	// Faults injects reproducible failure/recovery churn into every
	// engine's run (each engine replays the same plan); nil runs
	// fault-free.
	Faults *FaultPlan
}

// ComparePoliciesConfig is ComparePoliciesMode with an explicit
// universe-store and fault configuration. All engines share one
// idle-state universe store bound to the topology, so each canonical
// job shape is built once for the whole comparison no matter how
// many policies run.
func ComparePoliciesConfig(top *topology.Topology, policyNames []string, jobList []jobs.Job, cfg CompareConfig) (map[string]RunResult, error) {
	out, _, _, err := ComparePoliciesInstrumented(top, policyNames, jobList, cfg)
	return out, err
}

// PipelineStats bundles one engine's per-policy match-pipeline
// counters: the run's live views (zeros without a store) and the
// per-shape universe build timings of the shared store as of this
// policy's run completing. Builds accumulate in the store shared
// across the comparison, so a later policy's snapshot includes shapes
// first built by an earlier one; BuildTime is their summed wall time.
type PipelineStats struct {
	Views matchcache.ViewStats
	// Builds/BuildTime mirror the shared store's universe builds;
	// Tables/TableTime its score-table precomputations.
	Builds    []matchcache.ShapeBuild
	BuildTime time.Duration
	Tables    int
	TableTime time.Duration
}

// ComparePoliciesInstrumented is ComparePoliciesConfig returning the
// match-pipeline counters alongside the results: the per-policy view
// stats, and the stats of the shared universe store (nil when
// universes are disabled).
func ComparePoliciesInstrumented(top *topology.Topology, policyNames []string, jobList []jobs.Job, cfg CompareConfig) (map[string]RunResult, map[string]PipelineStats, *matchcache.StoreStats, error) {
	scorer := score.NewScorer(effbw.TrainedFor(top))
	var store *matchcache.Store
	if !cfg.DisableUniverses {
		store = matchcache.NewStore(top, matchcache.DefaultUniverseCapacity)
		if len(cfg.WarmPatterns) > 0 {
			store.Warm(0, cfg.WarmPatterns...)
		}
	}
	out := make(map[string]RunResult, len(policyNames))
	pipeStats := make(map[string]PipelineStats, len(policyNames))
	for _, name := range policyNames {
		p, err := policy.ByName(name, scorer)
		if err != nil {
			return nil, nil, nil, err
		}
		e := NewEngine(top, p)
		e.Mode = cfg.Mode
		e.Universes = store
		e.Faults = cfg.Faults
		res, err := e.Run(jobList)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sched: policy %s: %w", name, err)
		}
		out[name] = res
		ps := PipelineStats{Views: e.Views.Stats()}
		if store != nil {
			ss := store.Stats()
			ps.Builds = ss.Builds
			ps.BuildTime = ss.BuildTime
			ps.Tables = ss.Tables
			ps.TableTime = ss.TableTime
		}
		pipeStats[name] = ps
	}
	if store == nil {
		return out, pipeStats, nil, nil
	}
	st := store.Stats()
	return out, pipeStats, &st, nil
}

// PaperPolicies is the evaluation policy set of Sec. 4.
func PaperPolicies() []string {
	return []string{"baseline", "topo-aware", "greedy", "preserve"}
}

// ExecTimes extracts the execution times of the records.
func ExecTimes(records []Record) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.ExecTime
	}
	return out
}

// PredictedEffBWs extracts the predicted effective bandwidths.
func PredictedEffBWs(records []Record) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.PredictedEffBW
	}
	return out
}

// MeasuredEffBWs extracts the microbenchmark effective bandwidths.
func MeasuredEffBWs(records []Record) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.MeasuredEffBW
	}
	return out
}

// filter returns the records keep accepts, in order. It counts before
// it copies: reports filter 20,000-record logs several times per
// replay, and growing the result by append made five times the
// result's size in garbage each time.
func filter(records []Record, keep func(*Record) bool) []Record {
	n := 0
	for i := range records {
		if keep(&records[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for i := range records {
		if keep(&records[i]) {
			out = append(out, records[i])
		}
	}
	return out
}

// FilterSensitive splits records by the job's bandwidth sensitivity.
func FilterSensitive(records []Record, sensitive bool) []Record {
	return filter(records, func(r *Record) bool { return r.Job.Sensitive == sensitive })
}

// FilterWorkload keeps records of one workload.
func FilterWorkload(records []Record, name string) []Record {
	return filter(records, func(r *Record) bool { return r.Job.Workload == name })
}

// FilterMultiGPU keeps records of jobs that use at least two GPUs —
// the jobs for which allocation quality is defined.
func FilterMultiGPU(records []Record) []Record {
	return filter(records, func(r *Record) bool { return r.Job.NumGPUs >= 2 })
}

// SpeedupSummary is one row of Table 3: quartiles of per-quantile
// execution-time speedup versus the baseline policy, plus normalized
// throughput.
type SpeedupSummary struct {
	Policy                  string
	Min, P25, P50, P75, Max float64
	Throughput              float64
}

// Table3 computes the paper's summary table: for each policy, the
// execution-time distribution quantiles of bandwidth-sensitive
// multi-GPU jobs normalized against the baseline's same quantile
// (higher = faster), and throughput normalized to baseline.
func Table3(results map[string]RunResult, baseline string) ([]SpeedupSummary, error) {
	base, ok := results[baseline]
	if !ok {
		return nil, fmt.Errorf("sched: baseline policy %q missing from results", baseline)
	}
	baseTimes := ExecTimes(FilterMultiGPU(FilterSensitive(base.Records, true)))
	if len(baseTimes) == 0 {
		return nil, fmt.Errorf("sched: baseline run has no sensitive multi-GPU jobs")
	}
	bs := stats.Summarize(baseTimes)

	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []SpeedupSummary
	for _, name := range names {
		res := results[name]
		times := ExecTimes(FilterMultiGPU(FilterSensitive(res.Records, true)))
		if len(times) == 0 {
			return nil, fmt.Errorf("sched: policy %q has no sensitive multi-GPU jobs", name)
		}
		s := stats.Summarize(times)
		row := SpeedupSummary{
			Policy: name,
			Min:    safeDiv(bs.Min, s.Min),
			P25:    safeDiv(bs.Q1, s.Q1),
			P50:    safeDiv(bs.Median, s.Median),
			P75:    safeDiv(bs.Q3, s.Q3),
			Max:    safeDiv(bs.Max, s.Max),
		}
		if base.Throughput > 0 {
			row.Throughput = res.Throughput / base.Throughput
		}
		out = append(out, row)
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FormatTable3 renders Table 3 rows in the paper's layout.
func FormatTable3(rows []SpeedupSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %6s %6s %6s %6s %6s\n", "Policy", "MIN", "25th%", "50th%", "75th%", "MAX", "Tput")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6.3f %6.3f %6.3f %6.3f %6.3f %6.2f\n",
			r.Policy, r.Min, r.P25, r.P50, r.P75, r.Max, r.Throughput)
	}
	return b.String()
}

// WorkloadSummaries returns, per workload present in the records, the
// five-number summary of the chosen metric — the data behind
// Figs. 13a-d.
func WorkloadSummaries(records []Record, metric func(Record) float64) map[string]stats.Summary {
	byWorkload := make(map[string][]float64)
	for _, r := range records {
		byWorkload[r.Job.Workload] = append(byWorkload[r.Job.Workload], metric(r))
	}
	out := make(map[string]stats.Summary, len(byWorkload))
	for name, vals := range byWorkload {
		out[name] = stats.Summarize(vals)
	}
	return out
}

// FragmentationQuality computes BW_allocated / BW_ideal per multi-GPU
// record (the x-axis of Fig. 4), grouped by requested GPU count. The
// aggregated bandwidth of the allocation's induced subgraph is
// compared to the best possible same-size allocation on an idle
// machine.
func FragmentationQuality(top *topology.Topology, records []Record) map[int][]float64 {
	ideal := make(map[int]float64)
	out := make(map[int][]float64)
	for _, r := range records {
		k := r.Job.NumGPUs
		if k < 2 {
			continue
		}
		if _, ok := ideal[k]; !ok {
			ideal[k] = top.IdealAggregate(k)
		}
		if ideal[k] <= 0 {
			continue
		}
		got := top.Graph.InducedSubgraph(r.GPUs).TotalWeight()
		out[k] = append(out[k], got/ideal[k])
	}
	return out
}

// SensitivityLabel mirrors the paper's grouping key.
func SensitivityLabel(sensitive bool) string {
	if sensitive {
		return "BW-Sensitive"
	}
	return "BW-Insensitive"
}
