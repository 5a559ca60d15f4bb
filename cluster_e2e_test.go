package mapa

import (
	"fmt"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/jobs"
	"mapa/internal/policy"
	"mapa/internal/sched"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// clusterTrace runs a small job mix on the 72-GPU cluster through the
// table-served pipeline, or (universes false) the bare policy's fresh
// search. The candidate cap is tightened because candidate sets on a
// 72-GPU complete hardware graph are combinatorial while the score
// separation is not — this is exactly the regime the cap exists for.
func clusterTrace(t *testing.T, jobList []jobs.Job, universes bool) ([]string, *sched.Engine) {
	t.Helper()
	top, err := topology.ByName("cluster-a100")
	if err != nil {
		t.Fatal(err)
	}
	scorer := score.NewScorer(effbw.TrainedFor(top))
	p, err := policy.ByName("preserve", scorer)
	if err != nil {
		t.Fatal(err)
	}
	policy.SetMaxCandidates(p, 400)
	e := sched.NewEngine(top, p)
	e.Mode = sched.ModeFixed
	if !universes {
		e.Universes = nil
	}
	res, err := e.Run(jobList)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]string, len(res.Records))
	for i, r := range res.Records {
		trace[i] = fmt.Sprintf("job=%d gpus=%v agg=%.6f pres=%.6f", r.Job.ID, r.GPUs, r.AggBW, r.PreservedBW)
	}
	return trace, e
}

// TestClusterEndToEndMultiWordParity is the multi-node end-to-end
// check: on a >64-GPU machine — availability masks and live sets
// spanning multiple uint64 words, most live lists truncated by the cap
// — the pipeline must replay the search's allocation trace
// byte for byte. A decision whose cap binds declines to the search;
// the 1-GPU ones (72 candidates) stay table-served.
func TestClusterEndToEndMultiWordParity(t *testing.T) {
	jobList, err := jobs.Generate(jobs.GenerateConfig{N: 10, MaxGPUs: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	search, _ := clusterTrace(t, jobList, false)
	viewed, ve := clusterTrace(t, jobList, true)
	if len(viewed) != len(search) {
		t.Fatalf("table-served run produced %d records, the search %d", len(viewed), len(search))
	}
	for i := range search {
		if viewed[i] != search[i] {
			t.Fatalf("table-served pipeline diverged at record %d:\n  search: %s\n     got: %s", i, search[i], viewed[i])
		}
	}
	if vs := ve.Views.Stats(); vs.TableServed == 0 || vs.Rejected == 0 || vs.TableServed+vs.Rejected != uint64(len(jobList)) {
		t.Fatalf("cluster run: %+v, want the %d decisions split between the table and capped declines", vs, len(jobList))
	}
}
