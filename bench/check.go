package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// exact lists the metrics that are decisions or counts of a seeded,
// single-threaded replay: with equal seeds they must be equal, whatever
// the machine did. quality_effbw_mean joins them on sim-paper, where
// nothing runs concurrently.
var exact = map[string]bool{
	"sched.quality_speedup_p50":          true,
	"sched.quality_speedup_p75":          true,
	"sched.quality_worst_case_reduction": true,
	"policy.effbw_mean_gbps":             true,
	"policy.table_served_share":          true,
	"match.searches_per_decision":        true,
	"match.filters_per_decision":         true,
	"score.evals_per_decision":           true,
	"matchcache.candidates":              true,
	"journal.fsyncs_per_record":          true,
	"durability.lost_acked_leases":       true,
}

func isExact(workload, metric string) bool {
	return exact[metric] || (workload == "sim-paper" && metric == "quality_effbw_mean")
}

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// loadResults reads one result file, or every <workload>.json of a
// directory, keyed by workload.
func loadResults(path string) (map[string]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]*result)
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		r, err := loadResult(f)
		if err != nil {
			return nil, err
		}
		out[r.Workload] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// verdict compares one metric of B against A. worse is the change in
// the metric's bad direction as a share of A's median. Beyond the bound
// it is a regression; within it, the metric is resolved only if neither
// side's own quartile spread exceeds the bound. symmetric also rejects
// a change beyond the bound in the good direction: two runs of one tree
// must agree, not merely not regress.
func verdict(s metricSpec, a, b metric, symmetric bool) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if s.Better == "higher" {
		worse = -worse
	}
	spreadOf := func(m metric) float64 {
		if m.Value == 0 {
			return 0
		}
		return math.Abs((m.Q3 - m.Q1) / m.Value)
	}
	switch {
	case worse > s.Bound:
		return worse, "regressed"
	case symmetric && -worse > s.Bound:
		return worse, "disagrees"
	case max(spreadOf(a), spreadOf(b)) > s.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// checkResults prints one row per (workload, metric) of two result
// sets and returns a non-zero exit code on any regression, on a higher
// share of failed operations, or on an exact metric that differs
// between equal seeds.
func checkResults(spec *benchSpec, pathA, pathB string, symmetric bool) int {
	as, err := loadResults(pathA)
	if err != nil {
		return fail(2, err)
	}
	bs, err := loadResults(pathB)
	if err != nil {
		return fail(2, err)
	}
	return compare(spec, as, bs, symmetric)
}

func compare(spec *benchSpec, as, bs map[string]*result, symmetric bool) int {
	var names []string
	for name := range as {
		if bs[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two result sets share no workload")
		return 2
	}
	bad := 0
	fmt.Printf("%-14s %-34s %14s %24s %14s %24s %8s %6s  %s\n", "workload", "metric", "A", "[q1, q3]", "B", "[q1, q3]", "worse", "bound", "verdict")
	row := func(w, name string, a, b metric, worse, bound float64, v string) {
		fmt.Printf("%-14s %-34s %14.4f %24s %14.4f %24s %+7.1f%% %6.2f  %s\n", w, name,
			a.Value, fmt.Sprintf("[%.4g, %.4g]", a.Q1, a.Q3), b.Value, fmt.Sprintf("[%.4g, %.4g]", b.Q1, b.Q3), 100*worse, bound, v)
		if v == "regressed" || v == "disagrees" || v == "differs" {
			bad++
		}
	}
	for _, w := range names {
		a, b := as[w], bs[w]
		for _, s := range spec.EndToEnd {
			ma, oka := a.Metrics[s.Name]
			mb, okb := b.Metrics[s.Name]
			if !oka || !okb {
				continue
			}
			if a.Seed == b.Seed && isExact(w, s.Name) {
				continue // judged below, as an exact metric
			}
			worse, v := verdict(s, ma, mb, symmetric)
			row(w, s.Name, ma, mb, worse, s.Bound, v)
		}
		if a.Seed == b.Seed {
			var exacts []string
			for name := range a.Metrics {
				if _, ok := b.Metrics[name]; ok && isExact(w, name) {
					exacts = append(exacts, name)
				}
			}
			sort.Strings(exacts)
			for _, name := range exacts {
				ma, mb := a.Metrics[name], b.Metrics[name]
				v := "ok"
				if math.Abs(ma.Value-mb.Value) > 1e-9 {
					v = "differs"
				}
				row(w, name, ma, mb, 0, 0, v)
			}
		}
		fa, fb := float64(a.Failed)/float64(a.Attempted), float64(b.Failed)/float64(b.Attempted)
		v := "ok"
		if fb > fa || (symmetric && fa > 0) {
			v = "regressed"
		}
		row(w, "fail_share", metric{Value: fa, Q1: fa, Q3: fa}, metric{Value: fb, Q1: fb, Q3: fb}, fb-fa, 0, v)
	}
	if bad > 0 {
		fmt.Printf("%d rows failed\n", bad)
		return 1
	}
	return 0
}
