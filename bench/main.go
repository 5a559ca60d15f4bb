// Command bench is the repository's committed benchmark: four named
// workloads over mapad and the MAPA simulator, end-to-end metrics with
// regression bounds, a layer-by-layer latency budget, and a
// repeatability gate. BENCHMARK.json at the repository root names the
// workloads, metrics, units and bounds; README.md in this directory
// explains them.
//
// One workload, one JSON result line (the form the accepting driver
// runs):
//
//	bash bench/run.sh --workload serve-small --seed 1 --seconds 22 --trace 0
//
// The whole suite, untraced then traced, with a report and result files:
//
//	bash bench/run.sh -seed 1 -out bench/out
//	bash bench/run.sh -check bench/baseline bench/out
//	bash bench/run.sh -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// traceOps is the fixed length of every traced replay, so that counts
// repeat exactly whatever the machine's speed.
const traceOps = 5000

// simJobs is the length of the job mix sim-paper replays.
const simJobs = 20000

// serveWindow is the length of one window of an untraced serve run:
// short against the seconds a disturbance from the host lasts, so that
// windows fall inside or outside one, and long enough for tens of
// grants on the slowest workload. A window below minWindowGrants
// reports no latency.
const (
	serveWindow     = 100 * time.Millisecond
	minWindowGrants = 10
)

// maxSetups bounds the set-ups of one run.
const maxSetups = 15

// env is what a run needs from its surroundings.
type env struct {
	root string // repository root
	spec *benchSpec
	tmp  string // scratch for journals and daemon logs, inside the checkout
	bin  string // built mapad, empty until first needed
}

// mapad returns the daemon binary, building it on first use. A pinned
// process takes the binary its unpinned self built with every CPU.
func (e *env) mapad() (string, error) {
	if e.bin == "" {
		bin, err := buildMapad(e.root, os.Getenv(pinnedEnv) == "")
		if err != nil {
			return "", err
		}
		e.bin = bin
	}
	return e.bin, nil
}

// findRoot walks up from the working directory to the module the
// benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module mapa\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module mapa above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &env{root: root, spec: spec, tmp: tmp}, nil
}

func main() { os.Exit(run()) }

// fail reports err and returns the exit code for it.
func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return code
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "driver mode: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		out          = flag.String("out", "bench/out", "suite mode: directory for <workload>.json and <workload>.trace.json, relative to the repository root")
		check        = flag.Bool("check", false, "compare two result files or directories: -check A B")
		agree        = flag.Bool("agree", false, "run the suite twice on this tree and -check the two result sets")
		resultPath   = flag.String("result", "", "driver mode: also write the full result (quartiles, windows, provenance) to this file")
	)
	flag.Parse()
	e, err := newEnv()
	if err != nil {
		return fail(2, err)
	}
	defer os.RemoveAll(e.tmp)
	// Daemons die with this process (Pdeathsig); a signal only has to
	// end it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(e.tmp)
		os.Exit(130)
	}()
	if *seconds == 0 {
		*seconds = e.spec.RunSeconds
	}
	abs := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(e.root, p)
	}

	switch {
	case *check:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -check needs two result files or directories")
			return 2
		}
		return checkResults(e.spec, flag.Arg(0), flag.Arg(1), false)
	case *agree:
		a, b := filepath.Join(abs(*out), "agree-a"), filepath.Join(abs(*out), "agree-b")
		if code := suite(e, *seed, *seconds, a, b); code != 0 {
			return code
		}
		return checkResults(e.spec, a, b, true)
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(2, err)
		}
		if os.Getenv(pinnedEnv) == "" {
			// Build with every CPU, measure on one.
			if !w.sim {
				if _, err := e.mapad(); err != nil {
					return fail(1, err)
				}
			}
			pinToOneCPU()
		}
		r, err := measure(e, w, *seed, *seconds, *traceFlag != 0, filepath.Join(abs(*out), w.name+".trace.json"))
		if err != nil {
			return fail(1, err)
		}
		r.report(os.Stderr)
		if *resultPath != "" {
			if err := r.write(*resultPath); err != nil {
				return fail(1, err)
			}
		}
		line, err := json.Marshal(r.driverLine())
		if err != nil {
			return fail(1, err)
		}
		fmt.Println(string(line))
		return 0
	default:
		return suite(e, *seed, *seconds, abs(*out))
	}
}

// suite runs every workload, prints the report and writes one validated
// result file per workload into each of dirs.
// Result sets are interleaved workload by workload, so that the
// machine's slow drift falls on all of them alike. Each run is a
// process of its own, exactly as the accepting driver starts it: a run
// must not inherit the heap or the scheduler state of the run before
// it.
func suite(e *env, seed int64, seconds int, dirs ...string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(1, err)
	}
	for i := range workloads {
		for _, dir := range dirs {
			if code := suiteRun(e, self, &workloads[i], seed, seconds, dir); code != 0 {
				return code
			}
		}
	}
	return 0
}

// suiteRun measures one workload untraced and traced, each in a child
// process, and writes the merged result into dir.
func suiteRun(e *env, self string, w *workload, seed int64, seconds int, dir string) int {
	var r *result
	for trace := 0; trace <= 1; trace++ {
		fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%d -> %s\n", w.name, seed, seconds, trace, dir)
		path := filepath.Join(e.tmp, fmt.Sprintf("%s-%d.json", w.name, trace))
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", dir, "-result", path)
		cmd.Dir = e.root
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n%s", w.name, err, out)
			return 1
		}
		part, err := loadResult(path)
		if err != nil {
			return fail(1, err)
		}
		if r == nil {
			r = part
		} else {
			r.merge(part)
		}
	}
	r.report(os.Stdout)
	if !r.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: outputs are not correct; nothing written\n", w.name)
		return 1
	}
	if err := r.write(filepath.Join(dir, w.name+".json")); err != nil {
		return fail(1, err)
	}
	return 0
}

// provenance fills in what a committed result must say about where it
// came from.
func (r *result) provenance(root string) {
	r.Go = runtime.Version()
	// The machine's CPUs, not the one a pinned run may use.
	r.NProc = runtime.NumCPU()
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		r.NProc = max(r.NProc, strings.Count(string(raw), "processor\t"))
	}
	r.PinnedCPU = os.Getenv(pinnedEnv)
	r.Commit = "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
}
