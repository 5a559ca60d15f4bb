// Package sched implements the MAPA simulation execution framework of
// Fig. 14: a Dispatcher feeds a FIFO Job Queue; when GPUs are
// available the allocator (MAPA or a baseline policy) is invoked for
// the head job; the execution engine models hardware occupancy over
// time; completions free GPUs, update the allocator's hardware state,
// and are recorded in a log with the allocation, its predicted
// effective bandwidth, and execution time.
//
// The engine is discrete-event rather than literally cycle-stepped —
// an equivalent but exact formulation: time advances to the next job
// completion instead of ticking through idle cycles. FIFO semantics
// match the paper's real-run setup: the head job blocks the queue
// until it can be placed (no backfilling).
package sched

import (
	"fmt"
	"math/rand"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/jobs"
	"mapa/internal/matchcache"
	"mapa/internal/ncclsim"
	"mapa/internal/policy"
	"mapa/internal/topology"
	"mapa/internal/workload"
)

// Record is one job's log entry (the Log File of Fig. 14).
type Record struct {
	Job  jobs.Job
	GPUs []int
	// Start and End are seconds since simulation start.
	Start, End float64
	// ExecTime = End - Start.
	ExecTime float64
	// PredictedEffBW is the Eq. 2 prediction for the allocation, the
	// quantity Figs. 13c/d and 18 report.
	PredictedEffBW float64
	// MeasuredEffBW is the ncclsim microbenchmark value for the
	// allocation (the "real run" measurement used in Fig. 15).
	MeasuredEffBW float64
	// AggBW and PreservedBW are the other MAPA scores at allocation
	// time.
	AggBW, PreservedBW float64
}

// RunResult is a full simulation outcome.
type RunResult struct {
	Policy  string
	Records []Record
	// Makespan is the completion time of the last job.
	Makespan float64
	// Throughput is jobs completed per 1000 seconds.
	Throughput float64
}

// Engine simulates one machine under one allocation policy.
type Engine struct {
	Top   *topology.Topology
	Alloc policy.Allocator
	// Model predicts effective bandwidth for logging; nil uses the
	// paper's Table 2 model.
	Model *effbw.Model
	// Mode selects the execution-time source (see Mode constants).
	Mode Mode
	// Queue selects the job-queue discipline; the zero value is the
	// paper's FIFO.
	Queue Discipline
	// Universes is the idle-state universe store behind the run's
	// table-served decisions: one complete deduplicated universe and
	// score table per canonical job shape on the full machine, built
	// once (or prewarmed). NewEngine populates a private store; engines
	// comparing policies on one topology should share a store
	// (ComparePoliciesConfig does). nil runs the bare policy — a fresh
	// search per decision, the paper's pipeline and the reference the
	// parity tests compare against.
	Universes *matchcache.Store
	// Views is the run's view set over Universes: the usable mask and
	// Eq. 3 accounting, fed the run's allocate/release/health deltas. Run
	// creates a fresh set for each simulation (views track one
	// availability stream, so they are per-run even when the store is
	// shared) and leaves it here for inspection; nil when Universes is.
	Views *matchcache.Views
	// Faults injects reproducible failure/recovery churn into the run;
	// nil runs fault-free (the paper's configuration).
	Faults *FaultPlan
}

// FaultPlan is a reproducible device failure/recovery process for a
// simulation run. After each job completion, a free GPU faults with
// probability FailProb; a faulted device stays visible but
// unallocatable (the health-mask semantics of the live views) for Down
// seconds of simulated time, then recovers. Leased devices never
// fault — the plan models the scheduler-facing churn of health events,
// not job kills. The process draws from its own seeded stream, so a
// plan produces the same fault schedule whenever the completion
// schedule is the same — in particular across match-pipeline
// configurations that decide identically.
type FaultPlan struct {
	// Seed initializes the fault stream.
	Seed int64
	// FailProb is the per-completion fault probability in [0,1].
	FailProb float64
	// Down is how long a faulted device stays out, in simulated
	// seconds.
	Down float64
}

// Mode selects how the engine derives job durations.
type Mode int

const (
	// ModeRealRun runs the full workload model against the chosen
	// allocation — the paper's real-machine evaluation (Sec. 4).
	ModeRealRun Mode = iota
	// ModeProxy derives duration from the predicted effective
	// bandwidth of the allocation.
	ModeProxy
	// ModeFixed gives every job its baseline duration regardless of
	// allocation, exactly like the paper's exploration simulator
	// (Sec. 5.1): the job file carries measured baseline execution
	// times, and effective bandwidth — not runtime — is the output
	// metric. Fixed durations make the admission schedule identical
	// across policies, isolating allocation quality.
	ModeFixed
)

// FixedReferenceBW is the effective bandwidth (GB/s) at which
// ModeFixed evaluates baseline durations.
const FixedReferenceBW = 25

// NewEngine returns an engine in real-run mode with an Eq. 2 model
// trained for the topology and an idle-state universe store for it.
func NewEngine(top *topology.Topology, alloc policy.Allocator) *Engine {
	return &Engine{
		Top:       top,
		Alloc:     alloc,
		Model:     effbw.TrainedFor(top),
		Mode:      ModeRealRun,
		Universes: matchcache.NewStore(top, matchcache.DefaultUniverseCapacity),
	}
}

// event is a scheduled job completion or device recovery.
type event struct {
	at      float64
	job     int // index into running bookkeeping
	gpus    []int
	recover bool // device recovery: gpus return to health, not from a job
}

// Run simulates the job list to completion and returns the log. Under
// the default FIFO discipline, jobs are admitted strictly in
// submission order: if the head job cannot be allocated, the queue
// waits for a completion even when later jobs would fit (the paper's
// configuration). SJF and Backfill reorder as documented on
// Discipline.
func (e *Engine) Run(jobList []jobs.Job) (RunResult, error) {
	if e.Top == nil || e.Alloc == nil {
		return RunResult{}, fmt.Errorf("sched: engine needs a topology and a policy")
	}
	model := e.Model
	if model == nil {
		model = effbw.PaperModel()
	}
	// The catalog checks in Validate depend only on (workload, shape), so
	// each distinct pair is looked up once; a job whose pair already passed
	// is re-validated only when its counts are out of range, which yields
	// the same error Validate always gave.
	checked := make(map[jobKind]bool)
	for _, j := range jobList {
		kind := jobKind{j.Workload, j.Shape}
		if !checked[kind] || j.NumGPUs < 1 || j.Iters < 1 {
			if err := j.Validate(); err != nil {
				return RunResult{}, err
			}
			checked[kind] = true
		}
		if j.NumGPUs > e.Top.NumGPUs() {
			return RunResult{}, fmt.Errorf("sched: job %d needs %d GPUs but %s has %d",
				j.ID, j.NumGPUs, e.Top.Name, e.Top.NumGPUs())
		}
	}
	wls, err := resolveWorkloads(jobList)
	if err != nil {
		return RunResult{}, err
	}

	// Attach (or detach) a fresh view set over the universe store so
	// the run follows the engine configuration even when the allocator
	// was used elsewhere before. Live views track one availability
	// stream, so every run gets its own set over the (possibly shared)
	// store, fed below with exactly the deltas applied to usable. A
	// store bound to a different topology is never viewed.
	e.Views = nil
	if e.Universes.Bound(e.Top) {
		e.Views = e.Universes.NewViews()
	}
	policy.AttachViews(e.Alloc, e.Views)

	// The hardware state of Sec. 3.6 is one mask over the read-only
	// topology: a GPU is usable while it is neither running a job nor
	// faulted.
	usable := e.Top.Graph.VertexBitset()
	var buf policy.Allocation
	// pending holds running jobs and recoveries in descending time
	// order, so the next event pops off the end; events at equal times
	// pop in the order they were pushed.
	var pending []event
	records := make([]Record, 0, len(jobList))
	now := 0.0
	q := newQueue(e.Queue, jobList, wls)
	var frng *rand.Rand
	if e.Faults != nil {
		if e.Faults.FailProb < 0 || e.Faults.FailProb > 1 || e.Faults.Down < 0 {
			return RunResult{}, fmt.Errorf("sched: invalid fault plan (prob %v, down %v)", e.Faults.FailProb, e.Faults.Down)
		}
		if e.Faults.FailProb > 0 {
			frng = rand.New(rand.NewSource(e.Faults.Seed))
		}
	}

	popNext := func() event {
		ev := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		return ev
	}
	push := func(ev event) {
		i := len(pending)
		for i > 0 && pending[i-1].at <= ev.at {
			i--
		}
		pending = append(pending, event{})
		copy(pending[i+1:], pending[i:])
		pending[i] = ev
	}

	// A run places thousands of jobs drawn from a handful of shapes
	// onto a machine with few distinct GPU sets, and both the pattern
	// and the placement physics are pure functions of those, so each is
	// computed once per run.
	patterns := make(map[patternKey]*graph.Graph)
	memo := newPhysicsMemo(e.Top, model)

	// place tries to allocate and start the job at index idx now; it
	// reports whether placement succeeded, or a hard error.
	place := func(idx int) (bool, error) {
		j := jobList[idx]
		pk := patternKey{j.Shape, j.NumGPUs}
		pat, ok := patterns[pk]
		if !ok {
			var err error
			if pat, err = j.Pattern(); err != nil {
				return false, err
			}
			patterns[pk] = pat
		}
		if err := policy.DecideInto(e.Alloc, &buf, e.Top, usable, policy.Request{Pattern: pat, Sensitive: j.Sensitive}); err != nil {
			return false, nil // no room right now
		}
		w := wls[idx]
		// buf is overwritten by the next decision; the memo's copy of
		// the set is what the record and the completion event keep.
		ph := memo.of(buf.GPUs)
		var exec float64
		switch e.Mode {
		case ModeRealRun:
			exec = w.ExecTimeOn(ph.rings, len(ph.gpus), j.Iters)
		case ModeProxy:
			exec = w.ExecTimeAtBandwidth(ph.predicted, len(ph.gpus), j.Iters)
		case ModeFixed:
			exec = w.ExecTimeAtBandwidth(FixedReferenceBW, len(ph.gpus), j.Iters)
		default:
			return false, fmt.Errorf("sched: unknown engine mode %d", e.Mode)
		}
		records = append(records, Record{
			Job:            j,
			GPUs:           ph.gpus,
			Start:          now,
			End:            now + exec,
			ExecTime:       exec,
			PredictedEffBW: ph.predicted,
			MeasuredEffBW:  ph.rings.PeakEffBW,
			AggBW:          buf.Scores.AggBW,
			PreservedBW:    buf.Scores.PreservedBW,
		})
		for _, g := range ph.gpus {
			usable.Unset(g)
		}
		e.Views.Allocate(ph.gpus)
		push(event{at: now + exec, job: j.ID, gpus: ph.gpus})
		return true, nil
	}

	for !q.empty() || len(pending) > 0 {
		// Admit queued jobs in discipline order until nothing fits.
		for placed := true; placed && !q.empty(); {
			placed = false
			for idx := q.first(); idx >= 0; idx = q.after(idx) {
				ok, err := place(idx)
				if err != nil {
					return RunResult{}, err
				}
				if ok {
					q.remove(idx)
					placed = true
					break
				}
			}
		}
		if len(pending) == 0 {
			if !q.empty() {
				j := q.jobs[q.first()]
				return RunResult{}, fmt.Errorf("sched: job %d (%d GPUs) cannot be placed on an idle %s",
					j.ID, j.NumGPUs, e.Top.Name)
			}
			break
		}
		// Advance to the next completion or recovery and free its GPUs
		// — the deallocation state update of Sec. 3.6, or the health
		// restoration of a faulted device.
		ev := popNext()
		now = ev.at
		for _, g := range ev.gpus {
			usable.Set(g)
		}
		if ev.recover {
			e.Views.RestoreHealth(ev.gpus)
			continue
		}
		e.Views.Release(ev.gpus)
		// Fault churn: after a completion, a free device may fault —
		// out of the usable mask, unhealthy in the views, back after
		// Down seconds. The draw happens on every completion so
		// the fault schedule depends only on the completion schedule.
		if frng != nil && frng.Float64() < e.Faults.FailProb {
			if free := usable.Members(); len(free) > 0 {
				victim := free[frng.Intn(len(free))]
				usable.Unset(victim)
				e.Views.MarkUnhealthy([]int{victim})
				push(event{at: now + e.Faults.Down, gpus: []int{victim}, recover: true})
			}
		}
	}

	result := RunResult{Policy: e.Alloc.Name(), Records: records}
	for _, r := range records {
		if r.End > result.Makespan {
			result.Makespan = r.End
		}
	}
	if result.Makespan > 0 {
		result.Throughput = float64(len(records)) / result.Makespan * 1000
	}
	return result, nil
}

// resolveWorkloads looks every job's workload model up once, by index
// into jobList, so neither placement nor the SJF estimate walks the
// catalog per job: each distinct name costs one catalog lookup.
func resolveWorkloads(jobList []jobs.Job) ([]*workload.Workload, error) {
	wls := make([]*workload.Workload, len(jobList))
	byName := make(map[string]*workload.Workload)
	for i, j := range jobList {
		w, ok := byName[j.Workload]
		if !ok {
			v, err := workload.ByName(j.Workload)
			if err != nil {
				return nil, err
			}
			w = &v
			byName[j.Workload] = w
		}
		wls[i] = w
	}
	return wls, nil
}

// jobKind is the part of a job Validate checks against the catalogs.
type jobKind struct {
	workload string
	shape    appgraph.Shape
}

// patternKey identifies a job's application graph.
type patternKey struct {
	shape appgraph.Shape
	n     int
}

// physics is what a placement's log entry and duration need from the
// chosen GPU set: its ring decomposition (which carries the measured
// EffBW and prices an all-reduce of any size) and the Eq. 2
// prediction. gpus is the set itself, ascending — one copy shared by
// every record and event that places a job on it.
type physics struct {
	gpus      []int
	rings     ncclsim.Result
	predicted float64
}

// physicsMemo keeps the physics of every GPU set a run has placed a
// job on. The key is the set's membership bitmap as bytes, so machines
// of any size work.
type physicsMemo struct {
	top   *topology.Topology
	model *effbw.Model
	key   []byte
	seen  map[string]*physics
}

func newPhysicsMemo(top *topology.Topology, model *effbw.Model) *physicsMemo {
	return &physicsMemo{
		top:   top,
		model: model,
		key:   make([]byte, (graph.Capacity(top.Graph)+7)/8),
		seen:  make(map[string]*physics),
	}
}

// of returns the physics of the GPU set, computing it on first sight.
// ncclsim.Decompose sorts the set, so the order of gpus is immaterial.
func (m *physicsMemo) of(gpus []int) *physics {
	for i := range m.key {
		m.key[i] = 0
	}
	for _, g := range gpus {
		m.key[g/8] |= 1 << (g % 8)
	}
	if ph, ok := m.seen[string(m.key)]; ok {
		return ph
	}
	res := ncclsim.Decompose(m.top, gpus)
	ph := &physics{
		gpus:      append([]int(nil), gpus...),
		rings:     res,
		predicted: m.model.Predict(effbw.MixFromDecomposition(m.top, res)),
	}
	m.seen[string(m.key)] = ph
	return ph
}
