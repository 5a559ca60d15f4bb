package mapa

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleBuilds vets and compiles the benchmark, which lives in
// its own module (bench/) that `go build ./...` and `go test ./...`
// from the root never reach, yet links this module's internal API
// (sched.ComparePolicies*, matchcache.Store/Views, policy.AllocateInto,
// journal.Open/Append/Stats, mapa.WithJournal, ...). A change that
// breaks that API fails here instead of as a benchmark that cannot
// run. Offline: the module's only dependency is this one, by replace.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module; skipped in -short")
	}
	for _, args := range [][]string{
		{"-C", "bench", "vet", "./..."},
		// -o: a lone main package would otherwise leave its binary in bench/.
		{"-C", "bench", "build", "-o", os.DevNull, "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
