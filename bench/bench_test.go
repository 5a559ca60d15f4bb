package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose; must not be reordered
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := samplesFor(99); got != 1000 {
		t.Errorf("samplesFor(99) = %d, want 1000 (ten samples beyond the percentile)", got)
	}
	if got := samplesFor(50); got != 1 {
		t.Errorf("samplesFor(50) = %d, want 1", got)
	}
}

func TestWindowMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five windows = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5] in Python.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

func TestUndisturbedDecile(t *testing.T) {
	// 1..100 in an order that is not sorted.
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, float64((i*37)%100+1))
	}
	if got := undisturbed(xs, true); got != 90 {
		t.Errorf("undisturbed(1..100, higher is better) = %v, want 90", got)
	}
	if got := undisturbed(xs, false); got != 10 {
		t.Errorf("undisturbed(1..100, lower is better) = %v, want 10", got)
	}
	// Five replays: the decile of so few is the best one.
	five := []float64{5, 3, 9, 4, 6}
	if hi, lo := undisturbed(five, true), undisturbed(five, false); hi != 9 || lo != 3 {
		t.Errorf("undisturbed of five = %v and %v, want 9 and 3", hi, lo)
	}
	// A disturbance that halves the rate over 60% of the run moves the
	// median but not the reported value.
	var quiet, noisy []float64
	for i := 0; i < 250; i++ {
		v := 5000 + float64(i%7)
		quiet = append(quiet, v)
		if i >= 50 && i < 200 {
			v /= 2
		}
		noisy = append(noisy, v)
	}
	if a, b := undisturbed(quiet, true), undisturbed(noisy, true); math.Abs(a-b) > 2 {
		t.Errorf("a disturbed run reports %v, the quiet one %v", b, a)
	}
	if median(noisy) > 0.6*median(quiet) {
		t.Errorf("test premise: median of the disturbed run %v should have halved", median(noisy))
	}

	r := &result{Metrics: make(map[string]metric)}
	r.timed("many", noisy, true, 0)
	if m := r.Metrics["many"]; len(m.Windows) != runParts || m.Value != undisturbed(noisy, true) || m.Windows[2] > 2600 {
		t.Errorf("timed over 250 windows: value %v, parts %v", m.Value, m.Windows)
	}
	r.timed("few", five, false, 0)
	if m := r.Metrics["few"]; len(m.Windows) != 5 || m.Value != 3 {
		t.Errorf("timed over 5 windows: value %v, parts %v", m.Value, m.Windows)
	}
}

// sequence renders the first n ops of every client of a workload.
func sequence(w *workload, seed int64, n int) string {
	var b strings.Builder
	for c := 0; c < numClients; c++ {
		g := newOpGen(w, seed, c)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d:%v\n", c, g.next())
		}
	}
	return b.String()
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.sim {
			continue
		}
		a, b, other := sequence(w, 7, 3000), sequence(w, 7, 3000), sequence(w, 8, 3000)
		if a != b {
			t.Errorf("%s: the same seed generated two different op sequences", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", w.name)
		}
		for _, kind := range []opKind{opAllocate, opRelease} {
			if !strings.Contains(a, kind.String()) {
				t.Errorf("%s: no %v op in 3000", w.name, kind)
			}
		}
		if w.durable && (!strings.Contains(a, "renew") || !strings.Contains(a, "leases")) {
			t.Errorf("%s: durable traffic without renew and leases ops", w.name)
		}
		if w.healthEvery > 0 && (!strings.Contains(a, "mark gpu") || !strings.Contains(a, "restore gpu")) {
			t.Errorf("%s: no health events in 3000 ops", w.name)
		}
	}
}

// TestHeldGPUsNeverExceedTheMachine pins the sizing rule that makes a
// 409 a failure instead of load: whatever the seed, the two clients
// together never hold more GPUs than the machine has healthy.
func TestHeldGPUsNeverExceedTheMachine(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.sim {
			continue
		}
		healthy := w.gpus
		if w.healthEvery > 0 {
			healthy-- // one GPU may be marked at any time
		}
		if worst := numClients * w.maxHeld * w.maxSize; worst > healthy {
			t.Errorf("%s: clients may hold %d GPUs, machine has %d healthy", w.name, worst, healthy)
		}
		for seed := int64(1); seed <= 3; seed++ {
			gens := []*opGen{newOpGen(w, seed, 0), newOpGen(w, seed, 1)}
			for n := 0; n < 20000; n++ {
				g := gens[n%2]
				o := g.next()
				if o.Kind == opAllocate && (o.Size < 1 || o.Size > w.maxSize) {
					t.Fatalf("%s: generated size %d", w.name, o.Size)
				}
				if len(g.held) > w.maxHeld {
					t.Fatalf("%s: client holds %d leases, cap is %d", w.name, len(g.held), w.maxHeld)
				}
				if held := gens[0].heldGPUs() + gens[1].heldGPUs(); held > healthy {
					t.Fatalf("%s seed %d op %d: %d GPUs held on a machine with %d healthy", w.name, seed, n, held, healthy)
				}
			}
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	var tr trace
	root := tr.add(0, 0, "client", 0, 100)
	a := tr.add(root, 0, "a", 10, 30)
	tr.add(root, 0, "b", 20, 50)    // overlaps a: 20..30 counted once
	tr.add(root, 0, "c", 90, 120)   // clipped to the parent's end
	tr.add(a, 0, "a.child", 12, 18) // a grandchild shortens only a
	id, next := tr.nest(root, 0, "nested", 60, 5)
	self := selfTimes(tr.spans)
	if self[root] != 100-40-10-5 {
		t.Errorf("root self = %d, want 45", self[root])
	}
	if self[a] != 20-6 {
		t.Errorf("a self = %d, want 14", self[a])
	}
	if next != 65 || tr.spans[id-1].Start != 60 || tr.spans[id-1].End != 65 {
		t.Errorf("nest placed %+v, cursor %d", tr.spans[id-1], next)
	}
	if self[id] != 5 {
		t.Errorf("leaf self = %d, want its duration 5", self[id])
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "alloc_p50_us", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "granted_per_s", Better: "higher", Bound: 0.1}
	m := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		spec      metricSpec
		a, b      metric
		symmetric bool
		want      string
	}{
		{lower, m(100, 99, 101), m(105, 104, 106), false, "ok"},
		{lower, m(100, 99, 101), m(111, 110, 112), false, "regressed"},
		{lower, m(100, 99, 101), m(80, 79, 81), false, "ok"},
		{lower, m(100, 99, 101), m(80, 79, 81), true, "disagrees"},
		{lower, m(100, 90, 105), m(102, 101, 103), false, "unresolved"},
		{higher, m(1000, 990, 1010), m(880, 870, 890), false, "regressed"},
		{higher, m(1000, 990, 1010), m(1200, 1190, 1210), false, "ok"},
	} {
		if _, got := verdict(c.spec, c.a, c.b, c.symmetric); got != c.want {
			t.Errorf("%s %v -> %v (symmetric=%t): %s, want %s", c.spec.Name, c.a.Value, c.b.Value, c.symmetric, got, c.want)
		}
	}
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONNamesWhatTheCodeRuns keeps BENCHMARK.json and the
// program from drifting apart.
func TestBenchmarkJSONNamesWhatTheCodeRuns(t *testing.T) {
	spec := loadRepoSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for name := range exact {
		if !seen[name] {
			t.Errorf("exact metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestValidateRejectsUnusableResults(t *testing.T) {
	spec := []metricSpec{{Name: "granted_per_s", Unit: "1/s"}, {Name: "setup_s", Unit: "s"}}
	good := func() *result {
		return &result{Metrics: map[string]metric{"granted_per_s": {Value: 10}, "setup_s": {Value: 1}}}
	}
	if err := good().validate(spec, false, false); err != nil {
		t.Fatalf("a good result was rejected: %v", err)
	}
	r := good()
	if r.validate(spec, false, false); r.Metrics["setup_s"].Unit != "s" {
		t.Error("validate did not attach the unit")
	}
	for name, spoil := range map[string]func(*result){
		"missing":  func(r *result) { delete(r.Metrics, "setup_s") },
		"NaN":      func(r *result) { r.Metrics["setup_s"] = metric{Value: math.NaN()} },
		"zero":     func(r *result) { r.Metrics["setup_s"] = metric{} },
		"negative": func(r *result) { r.Metrics["granted_per_s"] = metric{Value: -1} },
		"unknown":  func(r *result) { r.Metrics["made_up"] = metric{Value: 1} },
	} {
		r := good()
		spoil(r)
		if err := r.validate(spec, false, false); err == nil {
			t.Errorf("a result with a %s metric passed validation", name)
		}
	}
	searched := &result{Metrics: map[string]metric{
		"match.searches_per_decision": {Value: 0.5},
		"client.alloc_p99_us":         {Value: 1, N: 5000},
	}}
	layer := []metricSpec{{Name: "match.searches_per_decision"}, {Name: "client.alloc_p99_us"}}
	if err := searched.validate(layer, true, true); err == nil {
		t.Error("a warmed serve workload that searched passed validation")
	}
}

// TestSmoke runs every workload's in-process machinery for a few
// hundred ops: each boundary's replay, the span tree, the recovery
// audit and the cross-boundary decision check. Nothing is asserted
// about time, so it is as valid under the race detector as without.
func TestSmoke(t *testing.T) {
	const n = 300
	for i := range workloads {
		w := workloads[i]
		t.Run(w.name, func(t *testing.T) {
			spec := loadRepoSpec(t)
			if w.sim {
				run, err := runSim(&w, 3, n, 2, 0)
				if err != nil {
					t.Fatal(err)
				}
				if run.tally.failed.Load() != 0 || run.tally.attempted.Load() < 2*4*n {
					t.Errorf("sim: attempted %d failed %d: %v", run.tally.attempted.Load(), run.tally.failed.Load(), run.tally.notes)
				}
				lr, err := runSimLayers(&w, 3, n)
				if err != nil {
					t.Fatal(err)
				}
				if lr.tally.failed.Load() != 0 || lr.metrics["sched.quality_speedup_p50"] <= 0 {
					t.Errorf("sim layers: failed %d, metrics %v", lr.tally.failed.Load(), lr.metrics)
				}
				return
			}
			if w.gpus > 8 {
				// The 72-GPU universes take seconds to build under the
				// race detector; two-GPU shapes exercise the same code.
				w.warm, w.maxSize = 2, 2
			}
			lr, err := runLayers(t.TempDir(), &w, 3, n)
			if err != nil {
				t.Fatal(err)
			}
			if lr.tally.failed.Load() != 0 {
				t.Errorf("%d of %d ops failed: %v", lr.tally.failed.Load(), lr.tally.attempted.Load(), lr.tally.notes)
			}
			if lr.lost != 0 {
				t.Errorf("recovery lost %d acked leases", lr.lost)
			}
			if len(lr.trace.spans) < 2*n {
				t.Errorf("trace has %d spans for %d requests", len(lr.trace.spans), n)
			}
			if got := lr.metrics["policy.table_served_share"]; got != 1 {
				t.Errorf("table-served share %v on a warmed machine, want 1", got)
			}
			if w.durable && lr.metrics["journal.fsyncs_per_record"] != 1 {
				t.Errorf("fsync always issued %v fsyncs per record", lr.metrics["journal.fsyncs_per_record"])
			}
			r := &result{Metrics: make(map[string]metric)}
			for name, v := range lr.metrics {
				r.single(name, v)
			}
			r.single("client.alloc_p99_us", 1) // daemon-phase metric; give validate its sample count
			m := r.Metrics["client.alloc_p99_us"]
			m.N = samplesFor(99)
			r.Metrics["client.alloc_p99_us"] = m
			if err := r.validate(spec.PerLayer, true, true); err != nil {
				t.Errorf("layer metrics failed validation: %v", err)
			}
		})
	}
}
