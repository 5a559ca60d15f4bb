package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// jobLogLine matches the -v per-job log: its header and one line per
// job, each opening with the job ID.
var jobLogLine = regexp.MustCompile(`(?m)^  (id  workload|[0-9]).*\n`)

// TestGoldenOutputs replays the paper's four policies on fixed job
// streams and diffs the simulator against goldens committed in
// testdata/: <topology>-n<N>.txt is the output of
//
//	mapasim -topology <topology> -policy all -n <N> -seed 1
//
// (per-policy summaries and Table 3, a reviewable diff when a change
// means to move them), and <topology>-n<N>.v.sha256 is the SHA-256 of
// the same run's -v output, which pins every placement decision byte
// for byte without committing megabytes of job log. One -v run serves
// both: without its job log it is the plain run's output. Regenerate
// a golden with the two commands above (the second with -v, piped
// through sha256sum).
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		topology string
		n        int
	}{
		{"dgx-v100", 20000},
		{"dgx-a100", 20000},
		{"torus-2d", 2000},
		{"cubemesh-16", 2000},
	} {
		name := fmt.Sprintf("%s-n%d", tc.topology, tc.n)
		o := opts()
		o.topoName, o.policyName, o.n, o.verbose = tc.topology, "all", tc.n, true
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := jobLogLine.ReplaceAllString(out.String(), ""); got != string(want) {
			t.Errorf("%s: output differs from testdata/%s.txt:\n%s", name, name, got)
		}
		wantSum, err := os.ReadFile(filepath.Join("testdata", name+".v.sha256"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(wantSum)) {
			t.Errorf("%s: -v job log hashes to %s, testdata/%s.v.sha256 holds %s: decisions changed",
				name, got, name, strings.TrimSpace(string(wantSum)))
		}
	}
}
