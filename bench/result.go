package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the names, units, directions and
// regression bounds every result is validated against.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value. Windows are the per-window (or
// per-repetition) values, Value their median, Q1 and Q3 their
// quartiles; N is the smallest per-window sample count behind a
// percentile.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// result is one workload's outcome, and the format of the files under
// bench/out and bench/baseline.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Go        string            `json:"go"`
	NProc     int               `json:"nproc"`
	PinnedCPU string            `json:"pinned_cpu,omitempty"` // the one CPU the run confined itself to
	Commit    string            `json:"commit"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Budget    string            `json:"budget,omitempty"`
}

func (r *result) tallied(t *tally) {
	r.Attempted += t.attempted.Load()
	r.Failed += t.failed.Load()
	r.Failures = append(r.Failures, t.notes...)
}

// windowed reports the median of per-window values with their
// quartiles.
func (r *result) windowed(name string, values []float64, n int) {
	q1, q3 := quartiles(values)
	r.Metrics[name] = metric{Value: median(values), Q1: q1, Q3: q3, N: n, Windows: values}
}

// runParts is the number of equal parts of a run whose own values are
// kept beside the reported one, so that a reader — and -check — can see
// how far the run agreed with itself.
const runParts = 5

// timed reports the undisturbed value of a run's per-window values. A
// run of many windows also reports that value for each of its runParts
// consecutive parts, with their quartiles; a run of few reports the
// windows themselves.
func (r *result) timed(name string, values []float64, higherIsBetter bool, n int) {
	parts := values
	if len(values) >= 10*runParts {
		parts = make([]float64, runParts)
		for i := range parts {
			parts[i] = undisturbed(values[i*len(values)/runParts:(i+1)*len(values)/runParts], higherIsBetter)
		}
	}
	q1, q3 := quartiles(parts)
	r.Metrics[name] = metric{Value: undisturbed(values, higherIsBetter), Q1: q1, Q3: q3, N: n, Windows: parts}
}

func (r *result) single(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Q1: v, Q3: v}
}

func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Failures = append(r.Failures, o.Failures...)
	r.Correct = r.Correct && o.Correct
	r.Budget = o.Budget
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
}

// measure runs one workload — the end-to-end run, or with traced the
// per-layer run — and returns its validated result.
func measure(e *env, w *workload, seed int64, seconds int, traced bool, tracePath string) (*result, error) {
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: make(map[string]metric)}
	r.provenance(e.root)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d traced=%t\n", w.name, seed, seconds, traced)
	// The traced daemon phase keeps few, long windows: its p99 needs a
	// thousand samples in each.
	const tracedWindows = 5
	var lr *layerRun
	var err error
	var clientP50 float64
	switch {
	case w.sim && !traced:
		run, err := runSim(w, seed, simJobs, 3, time.Duration(seconds)*time.Second)
		if err != nil {
			return nil, err
		}
		r.tallied(&run.tally)
		// The simulator is one thread of pure computation, so its CPU
		// time is the wall time of an undisturbed machine; the wall
		// clock of this one also counts whatever the host took away.
		var rate, perOp []float64
		for _, sw := range run.windows {
			p := float64(sw.placements)
			rate = append(rate, p/sw.cpu.Seconds())
			perOp = append(perOp, sw.cpu.Seconds()*1e6/p)
		}
		r.timed("setup_s", run.setupS, false, 0)
		r.timed("granted_per_s", rate, true, 0)
		r.timed("alloc_p50_us", perOp, false, 0)
		r.timed("cpu_us_per_grant", perOp, false, 0)
		r.single("peak_rss_mb", run.peakRSSMB)
		r.single("quality_effbw_mean", run.quality.effbwMean)
	case w.sim:
		if lr, err = runSimLayers(w, seed, traceOps); err != nil {
			return nil, err
		}
		r.single("client.cpu_share", 1) // no daemon: the benchmark process is the simulator
		clientP50 = lr.clientUS
	case !traced:
		warm := min(3*time.Second, time.Duration(seconds)*time.Second*15/100)
		n := int(time.Duration(seconds) * time.Second / serveWindow)
		run, err := runServe(e, e.tmp, w, seed, 3, 2*time.Second, warm, serveWindow, n)
		if err != nil {
			return nil, err
		}
		r.tallied(&run.tally)
		var rate, p50, cpu []float64
		var effbwSum float64
		effbwN, thinnest := 0, math.MaxInt
		for i := range run.windows {
			wd := &run.windows[i]
			effbwSum += wd.effbwSum
			effbwN += wd.effbwN
			// A window with next to no grants — the daemon stalled, or
			// the host did — has no median worth the name.
			if wd.grants < minWindowGrants {
				continue
			}
			rate = append(rate, wd.paceRate())
			p50 = append(p50, percentile(wd.alloc, 50))
			cpu = append(cpu, wd.daemonCPU.Seconds()*1e6/float64(wd.grants))
			thinnest = min(thinnest, wd.grants)
		}
		if 2*len(p50) < n {
			return nil, fmt.Errorf("only %d of %d %v windows saw %d grants or more", len(p50), n, serveWindow, minWindowGrants)
		}
		if effbwN == 0 {
			return nil, fmt.Errorf("no sensitive multi-GPU grant in %d windows", n)
		}
		r.timed("setup_s", run.setupS, false, 0)
		r.timed("granted_per_s", rate, true, 0)
		r.timed("alloc_p50_us", p50, false, thinnest)
		r.timed("cpu_us_per_grant", cpu, false, 0)
		r.single("peak_rss_mb", run.peakRSSMB)
		r.single("quality_effbw_mean", effbwSum/float64(effbwN))
	default:
		// The traced run still needs the daemon for what only it can
		// say (its own handler time, its CPU against the generator's,
		// the tail the clients see), for half as long.
		win := time.Duration(seconds) * time.Second / (2 * tracedWindows)
		run, err := runServe(e, e.tmp, w, seed, 1, 0, time.Second, win, tracedWindows)
		if err != nil {
			return nil, err
		}
		r.tallied(&run.tally)
		var p50, p99, rel, all, wall []float64
		samples := math.MaxInt
		for _, wd := range run.windows {
			wall = append(wall, float64(wd.grants)/wd.dur.Seconds())
			p50 = append(p50, percentile(wd.alloc, 50))
			p99 = append(p99, percentile(wd.alloc, 99))
			rel = append(rel, percentile(wd.release, 50))
			all = append(all, wd.alloc...)
			samples = min(samples, len(wd.alloc))
		}
		clientP50 = median(p50)
		r.windowed("client.alloc_p99_us", p99, samples)
		r.single("client.alloc_samples", float64(samples))
		r.windowed("client.release_p50_us", rel, 0)
		r.windowed("client.granted_per_s_wall", wall, 0)
		r.single("client.fail_share", float64(run.tally.failed.Load())/float64(run.tally.attempted.Load()))
		r.single("client.cpu_share", run.ownCPU.Seconds()/(run.ownCPU+run.daemonCPU).Seconds())
		r.single("server.handler_mean_us", run.handlerMeanUS)
		r.single("server.rejected_429", run.rejected429)
		r.single("transport.floor_us", run.floorUS)
		if m := mean(all); m > 0 {
			r.single("transport.share", 1-run.handlerMeanUS/m)
		}
		if lr, err = runLayers(e.tmp, w, seed, traceOps); err != nil {
			return nil, err
		}
		lr.metrics["durability.lost_acked_leases"] += float64(run.lost)
	}
	if lr != nil {
		r.tallied(&lr.tally)
		for name, v := range lr.metrics {
			r.single(name, v)
		}
		r.Budget = budgetRow(w.name, clientP50, lr.budget)
		if tracePath != "" {
			if err := lr.trace.write(tracePath); err != nil {
				return nil, err
			}
		}
	}
	r.Correct = r.Failed == 0
	want := e.spec.EndToEnd
	if traced {
		want = e.spec.PerLayer
	}
	if err := r.validate(want, traced, !w.sim); err != nil {
		return nil, fmt.Errorf("result failed validation: %w", err)
	}
	return r, nil
}

// budgetRow renders one workload's latency budget: what the client saw
// against the self times of the layers below it, with the part no
// layer explains shown as its own term.
func budgetRow(name string, client float64, lines []budgetLine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget %s (µs per allocate, p50): client %.1f =", name, client)
	rest := client
	for i, l := range lines {
		if i > 0 {
			b.WriteString(" +")
		}
		fmt.Fprintf(&b, " %s %.1f", l.name, l.us)
		rest -= l.us
	}
	fmt.Fprintf(&b, " + unexplained %.1f", rest)
	return b.String()
}

// validate checks a result against the spec before anyone sees it:
// exactly the wanted metrics, each a usable number, percentiles backed
// by enough samples, and a warmed serve path that never searched. It
// also gives every metric its unit. Per-layer metrics that do not
// exist on this workload (no journal, no daemon) are reported as 0.
func (r *result) validate(want []metricSpec, perLayer, serve bool) error {
	known := make(map[string]bool, len(want))
	for _, s := range want {
		known[s.Name] = true
		m, ok := r.Metrics[s.Name]
		if !ok && !perLayer {
			return fmt.Errorf("metric %s is missing", s.Name)
		}
		m.Unit = s.Unit
		r.Metrics[s.Name] = m
		switch {
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", s.Name, m.Value)
		case !perLayer && m.Value <= 0:
			return fmt.Errorf("end-to-end metric %s is %v, must be positive", s.Name, m.Value)
		case m.Value < 0 && s.Name != "trace.overhead_us": // a difference of two medians may dip below 0
			return fmt.Errorf("metric %s is negative: %v", s.Name, m.Value)
		}
	}
	for name := range r.Metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	if !serve {
		return nil
	}
	if m := r.Metrics["alloc_p50_us"]; !perLayer && m.N < samplesFor(50) {
		return fmt.Errorf("alloc_p50_us rests on %d samples in its thinnest window", m.N)
	}
	if m := r.Metrics["client.alloc_p99_us"]; perLayer && m.N < samplesFor(99) {
		return fmt.Errorf("client.alloc_p99_us rests on %d samples in its thinnest window, needs %d: run for more --seconds", m.N, samplesFor(99))
	}
	if perLayer {
		for _, name := range []string{"match.searches_per_decision", "match.filters_per_decision", "score.evals_per_decision"} {
			if v := r.Metrics[name].Value; v != 0 {
				return fmt.Errorf("%s is %v on a warmed serve workload, must be 0", name, v)
			}
		}
	}
	return nil
}

// driverLine is the one-line form the accepting driver reads.
func (r *result) driverLine() any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for k, m := range r.Metrics {
		metrics[k] = mv{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// report prints every metric by name and unit, then the budget row.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  correct=%t  attempted=%d  failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "   %-38s %14.4f %-6s [q1 %.4f, q3 %.4f]\n", name, m.Value, m.Unit, m.Q1, m.Q3)
	}
	if r.Budget != "" {
		fmt.Fprintf(w, "   %s\n", r.Budget)
	}
}

func (r *result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
