package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mapa/internal/topology"
)

// opts returns a baseline options value for tests; decisions are
// table-served, matching the CLI defaults.
func opts() options {
	return options{
		topoName:   "dgx-v100",
		policyName: "preserve",
		n:          20,
		seed:       1,
		maxGPUs:    5,
		workers:    1,
		universes:  true,
	}
}

func TestRunGeneratedMix(t *testing.T) {
	if err := run(io.Discard, opts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllPoliciesVerbose(t *testing.T) {
	o := opts()
	o.topoName = "summit"
	o.policyName = "all"
	o.n = 15
	o.seed = 2
	o.maxGPUs = 4
	o.verbose = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelUncached(t *testing.T) {
	o := opts()
	o.n = 15
	o.seed = 3
	o.maxGPUs = 4
	o.workers = 4
	o.universes = false
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunWarmedWithCacheStats(t *testing.T) {
	o := opts()
	o.n = 15
	o.maxGPUs = 4
	o.warm = true
	o.cacheStats = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWarmed(t *testing.T) {
	o := opts()
	o.n = 15
	o.maxGPUs = 4
	o.workers = 4
	o.warm = true
	o.cacheStats = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyHelpNamesResolve: every machine the -topology help lists
// resolves, and the list names the cluster ByName accepts.
func TestTopologyHelpNamesResolve(t *testing.T) {
	names := topologyNames()
	if !slices.Contains(names, "cluster-a100") {
		t.Fatalf("-topology help omits cluster-a100: %v", names)
	}
	for _, name := range names {
		if _, err := topology.ByName(name); err != nil {
			t.Errorf("-topology help lists %q: %v", name, err)
		}
	}
}

func TestRunJobFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.txt")
	content := "1,vgg-16,2,Ring,true,100\n2,gmm,1,Star,false,100\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.policyName = "greedy"
	o.jobFile = path
	o.n = 0
	o.seed = 0
	o.maxGPUs = 0
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	o := opts()
	o.topoName = "warpcore"
	if err := run(io.Discard, o); err == nil {
		t.Error("unknown topology should error")
	}
	o = opts()
	o.policyName = "warp-policy"
	if err := run(io.Discard, o); err == nil {
		t.Error("unknown policy should error")
	}
	o = opts()
	o.jobFile = "/no/such/file"
	if err := run(io.Discard, o); err == nil {
		t.Error("missing job file should error")
	}
	o = opts()
	o.n = 0
	if err := run(io.Discard, o); err == nil {
		t.Error("zero jobs should error")
	}
}
