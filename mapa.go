// Package mapa is a Go implementation of MAPA — Multi-Accelerator
// Pattern Allocation (Ranganath et al., SC '21) — a graph
// pattern-matching approach to allocating multi-GPU jobs on
// multi-tenant multi-accelerator servers.
//
// MAPA abstracts the server as a weighted hardware graph (vertices =
// GPUs, edge weights = best link bandwidth) and each job as a small
// application pattern graph (vertices = requested GPUs, edges =
// inter-GPU communication). Allocation mines the available hardware
// graph for subgraph-isomorphic matches of the pattern, scores each
// match (Aggregated Bandwidth, Predicted Effective Bandwidth,
// Preserved Bandwidth), and selects one with the Preserve policy:
// bandwidth-sensitive jobs get the match with the highest predicted
// effective bandwidth, insensitive jobs the match that preserves the
// most bandwidth for future sensitive jobs.
//
// The package offers two entry points:
//
//   - System: a live allocator for one machine (NewSystem) or for a
//     fleet of identical nodes (NewFleetSystem). Allocate leases GPUs
//     for jobs and Release returns them, with the hardware state
//     managed internally.
//   - Simulate / CompareAllPolicies: the multi-tenant scheduling
//     simulator used to reproduce the paper's evaluation.
package mapa

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/jobs"
	"mapa/internal/journal"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/sched"
	"mapa/internal/score"
	"mapa/internal/topology"
	"mapa/internal/workload"
)

// Topologies lists the built-in hardware topologies: the paper's
// DGX-1 V100, DGX-1 P100, Summit node, the NVSwitch-fabric DGX-2 and
// DGX A100, and the 16-GPU Torus-2d and Cube-mesh exploration
// machines.
func Topologies() []string { return topology.Names() }

// Policies lists the built-in allocation policies. The paper's
// evaluation set is baseline, topo-aware, greedy, and preserve; the
// rest are ablations.
func Policies() []string { return policy.Names() }

// Workloads lists the built-in workload models (the paper's six Caffe
// CNNs plus Cusimann, GMM, and Jacobi).
func Workloads() []string { return workload.Names() }

// Shapes lists the supported application communication patterns.
func Shapes() []string {
	var out []string
	for _, s := range appgraph.Shapes() {
		out = append(out, string(s))
	}
	return out
}

// JobRequest describes one allocation request to a System.
type JobRequest struct {
	// NumGPUs is the number of accelerators requested (required).
	NumGPUs int
	// Shape names the communication pattern; empty defaults to Ring,
	// NCCL's large-transfer topology.
	Shape string
	// Sensitive annotates bandwidth sensitivity (Algorithm 1 input).
	Sensitive bool
	// Owner is an opaque label recorded with the lease (and journaled,
	// so it survives recovery); mapad stores the owning tenant name
	// here. Empty means unowned.
	Owner string
	// TTL bounds the lease lifetime: a lease not renewed within TTL is
	// released by ReapExpired, its GPUs returning to the free pool.
	// Zero means no expiry.
	TTL time.Duration
}

// Lease is a granted allocation. Release it back to the System when
// the job finishes.
type Lease struct {
	// ID identifies the lease within its System.
	ID int
	// GPUs are the allocated device IDs. The slice is the caller's to
	// keep — sorting, truncating, or serializing it never affects the
	// System's internal lease record.
	GPUs []int
	// EffBW is the predicted effective bandwidth (GB/s) of the
	// allocation; AggBW and PreservedBW are the other MAPA scores.
	EffBW, AggBW, PreservedBW float64
	// Deadline is the lease expiry in Unix nanoseconds (0 = no TTL),
	// set when the request carried a TTL. Renew extends it.
	Deadline int64
}

// System is a live MAPA allocator for one machine. It owns the
// hardware state — a read-only topology graph plus one mask of the
// usable (free and healthy) GPUs: Allocate clears bits, Release sets
// them (Sec. 3.6 of the paper), and the topology-mutation events —
// MarkUnhealthy/Restore (device health), DegradeLink (link
// degradation), Repartition (MIG re-slicing) — update that state in
// place, repairing the match pipeline incrementally instead of
// rebuilding it. System is safe for concurrent use.
//
// Every mutating call is atomic: it either applies completely or
// returns an error leaving the free set, the lease table, and the
// published delta stream byte-identical to the pre-call state.
//
// The state lock covers decision-critical state only: Allocate builds
// a cold shape's match universe and score table *before* taking it
// (see Store.Ensure), so one tenant's cold miss — a score-table build
// of up to hundreds of milliseconds on a large machine — never stalls
// another tenant's table-served decision, Release, or health event.
// Concurrent cold requests for one shape converge on a single build.
type System struct {
	mu        sync.Mutex
	top       *topology.Topology
	alloc     policy.Allocator
	scorer    *score.Scorer
	gpus      graph.Bitset // every GPU ID of the machine
	usable    graph.Bitset // GPUs neither leased nor unhealthy, by ID
	store     *matchcache.Store
	views     *matchcache.Views
	leases    map[int][]int
	leasedBy  map[int]int    // GPU -> ID of the lease holding it
	owners    map[int]string // lease ID -> owner label (only labeled leases)
	expiry    map[int]int64  // lease ID -> deadline, Unix nanos (only TTL'd leases)
	unhealthy map[int]bool   // GPUs marked unhealthy: visible, unallocatable
	nextID    int
	cfg       systemConfig
	warmDone  chan struct{} // closed when background warming finishes; nil otherwise

	// Durability (see durability.go). jw is the write-ahead journal
	// every committed mutation is appended to under mu, before the
	// in-memory mutation, so an append failure aborts the operation
	// cleanly; nil when journaling is off and during recovery replay.
	// catalogName is the topology name the System was built from —
	// the key snapshots use to rebuild pristine reference state.
	jw          *journal.Journal
	closed      bool // Close has run; jw refuses further appends
	catalogName string
	recovering  bool // replaying the journal inside NewSystem
	recovery    RecoveryStats
	reaped      uint64 // leases released by TTL expiry

	// patterns memoizes request pattern graphs by parsed (shape, size),
	// holding only those whose universe and table the current pipeline
	// already keeps (see prewarm), so a warm request neither builds nor
	// fingerprints a graph. buildPipeline drops it with the store.
	patterns map[patternKey]*graph.Graph

	// Fleet machines (NewFleetSystem) also decide from node-class
	// templates: fleet is the symbolic machine, fstore its template
	// store, fviews the System's own fleet view stream. top is then the
	// flattened fleet, or nil above FleetFlattenLimit. All nil on a flat
	// System.
	fleet  *topology.Fleet
	fstore *matchcache.FleetStore
	fviews *matchcache.FleetViews

	// rec is the record storage every transition is filled into and
	// committed from (see commit), reused so a commit allocates nothing.
	rec journal.Record

	// Test hooks. prewarmGate runs during Allocate's unlocked prewarm
	// phase (keyed by request size) so tests can hold a cold build in
	// flight; onCommit observes a private copy of every applied record
	// under mu — the exact linearization — for replay-oracle suites.
	prewarmGate func(numGPUs int)
	onCommit    func(rec *journal.Record)

	// MIG repartitioning state, initialized lazily by the first
	// Repartition call. baseTop is the physical machine the System was
	// built for; top then points at the current virtual machine.
	baseTop   *topology.Topology
	instances map[int][]int   // physical GPU -> current virtual instance IDs (ascending)
	physOf    map[int]int     // virtual GPU -> physical GPU
	fractions map[int]float64 // virtual GPU -> compute fraction
	nextVID   int             // next fresh virtual ID (monotonic, never reused)
}

// SystemOption configures a System at construction.
type SystemOption func(*systemConfig)

type systemConfig struct {
	warmMaxGPUs    int
	backgroundWarm bool
	searchOnly     bool
	journalDir     string
	journalOpts    journal.Options
}

// WithBackgroundWarming makes the WithWarmShapes precomputation run in
// a background goroutine instead of blocking NewSystem, so the first
// decisions overlap the warm-up: a decision needing a not-yet-warmed
// shape builds that shape's universe on demand (the build is shared
// with the warmer — never run twice), and every other shape keeps
// warming behind it. WaitWarm blocks until warming completes.
func WithBackgroundWarming() SystemOption {
	return func(c *systemConfig) { c.backgroundWarm = true }
}

// WithWarmShapes precomputes the idle-state match universes for every
// built-in communication shape (see Shapes) at sizes 2..maxGPUs, and
// their score tables, during NewSystem, so even the first decision for
// those shapes is table-served instead of paying the shape's universe
// and table build. Warming is the init-time cost MAPA pays once per machine
// instead of per scheduling step.
func WithWarmShapes(maxGPUs int) SystemOption {
	return func(c *systemConfig) { c.warmMaxGPUs = maxGPUs }
}

// searchOnly builds the System without a universe store, so every
// decision is the policy's fresh search on the usable GPUs' subgraph.
// Tests use such a System as the reference a default one must agree
// with; it is not an exported option because no deployment wants it.
func searchOnly() SystemOption {
	return func(c *systemConfig) { c.searchOnly = true }
}

// warmPatterns builds the canonical warm set, clamped to the machine
// size.
func warmPatterns(maxGPUs, machineGPUs int) []*graph.Graph {
	if maxGPUs > machineGPUs {
		maxGPUs = machineGPUs
	}
	return appgraph.AllShapes(maxGPUs)
}

// NewSystem builds a System for a named topology and policy, with an
// effective-bandwidth model trained for that topology. Decisions are
// table-served from per-shape idle-state universes and score tables
// (built on first use, or at construction with WithWarmShapes) over a
// live view of the free GPUs.
func NewSystem(topologyName, policyName string, opts ...SystemOption) (*System, error) {
	top, err := topology.ByName(topologyName)
	if err != nil {
		return nil, err
	}
	s, err := newSystem(top, top.Graph.VertexBitset(), effbw.TrainedFor(top), policyName, opts)
	if err != nil {
		return nil, err
	}
	s.catalogName = topologyName
	// Recovery runs before the pipeline exists: replayed mutations are
	// applied directly to the mask and lease tables (view publishes
	// no-op on nil), then the pipeline is built once for the final
	// recovered topology and seeded with the live state.
	if s.cfg.journalDir != "" {
		if err := s.recoverFromJournal(s.cfg.journalDir, s.cfg.journalOpts); err != nil {
			return nil, err
		}
	}
	s.buildPipeline(true)
	s.replayViewsLocked()
	return s, nil
}

// newSystem builds the state core every machine kind shares: the named
// policy over a scorer for model, the options, and empty lease and
// health tables with every GPU of gpus usable. top may be nil (a fleet
// too large to flatten); the caller builds the match pipeline.
func newSystem(top *topology.Topology, gpus graph.Bitset, model *effbw.Model, policyName string, opts []SystemOption) (*System, error) {
	scorer := score.NewScorer(model)
	alloc, err := policy.ByName(policyName, scorer)
	if err != nil {
		return nil, err
	}
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &System{
		top:       top,
		alloc:     alloc,
		scorer:    scorer,
		gpus:      gpus,
		usable:    gpus.Clone(),
		leases:    make(map[int][]int),
		leasedBy:  make(map[int]int),
		owners:    make(map[int]string),
		expiry:    make(map[int]int64),
		unhealthy: make(map[int]bool),
		cfg:       cfg,
	}, nil
}

// buildPipeline (re)constructs the match pipeline for the System's
// current topology per its construction options and attaches it to the
// policy (nil detaches): the idle-state universe store and the System's
// own live-view stream over it. Background warming is honored only
// when allowBackground; Repartition rebuilds synchronously so the
// swapped-in pipeline is deterministic.
func (s *System) buildPipeline(allowBackground bool) {
	s.store, s.views, s.patterns = nil, nil, nil
	if !s.cfg.searchOnly && s.top != nil {
		s.store = matchcache.NewStore(s.top, matchcache.DefaultUniverseCapacity)
		if s.fleet == nil {
			// A fleet warms its class templates instead: its flat store
			// only serves node-spanning patterns, built on demand.
			st := s.store
			s.warm(func(ps ...*graph.Graph) int { return st.Warm(0, ps...) }, s.top.NumGPUs(), allowBackground)
		}
		s.views = s.store.NewViews()
	}
	policy.AttachViews(s.alloc, s.views)
}

// warm runs the WithWarmShapes precomputation through warmFn — a
// store's Warm — for a machine whose largest placeable pattern has
// machineGPUs vertices: in a background goroutine when the System was
// built WithBackgroundWarming and allowBackground, synchronously
// otherwise.
func (s *System) warm(warmFn func(patterns ...*graph.Graph) int, machineGPUs int, allowBackground bool) {
	cfg := s.cfg
	if cfg.warmMaxGPUs <= 1 {
		return
	}
	shapes := warmPatterns(cfg.warmMaxGPUs, machineGPUs)
	if cfg.backgroundWarm && allowBackground {
		s.warmDone = make(chan struct{})
		go func(done chan struct{}) {
			defer close(done)
			warmFn(shapes...)
		}(s.warmDone)
		return
	}
	warmFn(shapes...)
}

// WaitWarm blocks until the WithBackgroundWarming precomputation has
// finished (returning immediately when warming was synchronous, never
// requested, or already done). Decisions never require it — unwarmed
// shapes build on demand — but callers that want the full warm set
// resident before a traffic spike can park on it.
func (s *System) WaitWarm() {
	if s.warmDone != nil {
		<-s.warmDone
	}
}

// CacheStats reports the match-pipeline counters of a System: what the
// universe store has built and repaired, and how each decision was
// made.
type CacheStats struct {
	// Universes counts complete idle-state universes built;
	// UniversesIncomplete shapes whose universe overflowed the store
	// capacity (never table-served).
	Universes, UniversesIncomplete int
	// UniverseBuildTime is the summed wall time of every idle-state
	// universe the store has derived (warmed or on demand): each is a
	// closed form, its permutation list on K_k, not an enumeration on
	// the machine.
	UniverseBuildTime time.Duration
	// ScoreTables counts precomputed static score tables built (one per
	// warmed or table-served shape); TableBuildTime is their summed
	// build wall time.
	ScoreTables    int
	TableBuildTime time.Duration
	// Repairs counts link-degradation events absorbed by incremental
	// table repair; RepairedCandidates the candidates re-derived across
	// them — the GPU sets holding both endpoints of the degraded link
	// times the embeddings per set; RepairTime their summed wall time
	// (compare with UniverseBuildTime+TableBuildTime, the cost a
	// rebuild would pay).
	Repairs            int
	RepairedCandidates int
	RepairTime         time.Duration
	// TableServed counts decisions answered from the stream's usable
	// mask and the shape's score table: precomputed static metrics plus
	// delta-maintained Eq. 3 arithmetic, zero searches and zero dynamic
	// score evaluations. ViewRejected counts decisions the view layer
	// declined, each answered by a fresh search instead: the shape's
	// universe was incomplete, a candidate cap bound (only the search
	// streams the capped prefix), or the stream was out of sync with the decision's mask — a guard
	// against a mis-published delta, since the System's one stream
	// receives every committed one.
	TableServed, ViewRejected uint64
	// FleetServed counts a fleet System's decisions answered by the
	// hierarchical template path — table-served by construction — and
	// FleetRejected those its fleet layer declined to the flat path
	// (incomplete class universe, binding candidate cap, or a
	// mis-published stream out of sync). Patterns no node can hold go
	// to the flat path uncounted here.
	FleetServed, FleetRejected uint64
}

// CacheStats returns a snapshot of the system's match-pipeline
// counters; a System without a pipeline reports zeros. On a fleet the
// store counters sum the flat store and the class templates.
func (s *System) CacheStats() CacheStats {
	var out CacheStats
	if s.store != nil {
		out.addStore(s.store.Stats())
	}
	if s.fstore != nil {
		out.addStore(s.fstore.Stats())
	}
	s.mu.Lock()
	vs, fs := s.views.Stats(), s.fviews.Stats()
	s.mu.Unlock()
	out.TableServed, out.ViewRejected = vs.TableServed, vs.Rejected
	out.FleetServed, out.FleetRejected = fs.TableServed, fs.Rejected
	return out
}

func (c *CacheStats) addStore(ss matchcache.StoreStats) {
	c.Universes += ss.Universes
	c.UniversesIncomplete += ss.Incomplete
	c.UniverseBuildTime += ss.BuildTime
	c.ScoreTables += ss.Tables
	c.TableBuildTime += ss.TableTime
	c.Repairs += ss.Repairs
	c.RepairedCandidates += ss.RepairedCandidates
	c.RepairTime += ss.RepairTime
}

// Topology returns the system's topology name (the fleet's name on a
// fleet).
func (s *System) Topology() string {
	if s.fleet != nil {
		return s.fleet.Name
	}
	return s.top.Name
}

// Policy returns the system's policy name.
func (s *System) Policy() string { return s.alloc.Name() }

// NumGPUs returns the machine size.
func (s *System) NumGPUs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gpus.Count()
}

// FreeGPUs returns the currently unallocated GPU IDs in ascending
// order.
func (s *System) FreeGPUs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usable.Members()
}

// ActiveLeases returns the number of live leases.
func (s *System) ActiveLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// Warmed reports, without blocking, whether the construction-time warm
// set is fully resident — immediately true when warming was
// synchronous or never requested. Decisions never require it (unwarmed
// shapes build on demand, outside the state lock); it exists for
// readiness probes that want the cold-start cost behind them.
func (s *System) Warmed() bool {
	s.mu.Lock()
	done := s.warmDone
	s.mu.Unlock()
	if done == nil {
		return true
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// patternKey identifies a request's communication pattern: its parsed
// shape and size.
type patternKey struct {
	shape appgraph.Shape
	n     int
}

// patternKeyOf parses a request's shape; empty selects Ring.
func patternKeyOf(req JobRequest) (patternKey, error) {
	if req.Shape == "" {
		return patternKey{appgraph.ShapeRing, req.NumGPUs}, nil
	}
	shape, err := appgraph.ParseShape(req.Shape)
	return patternKey{shape, req.NumGPUs}, err
}

// ErrJournal is returned (wrapped) by a mutation the write-ahead journal
// refused — a failed append, or any mutation after Close. The mutation
// was not applied: the request was valid, the server could not commit
// it.
var ErrJournal = errors.New("journal append failed")

// ErrLeaseNotActive is returned (wrapped) by Release and Renew for a
// lease the System does not hold: never granted, released, or expired.
var ErrLeaseNotActive = errors.New("lease not active")

// prewarm resolves req's communication pattern — pattern itself when
// non-nil — and builds its match universe and score table (if missing)
// with the state lock released, so a cold shape's build runs
// concurrently with every other System call. A request for more GPUs
// than the machine has is refused before its pattern is built: it can
// never be placed, and its pattern graph (an AllToAll is quadratic in
// the GPU count) could be arbitrarily large. On a fleet a pattern one
// node can hold builds the class templates only — never a flat
// universe over the whole fleet. prewarm also returns the store the
// flat build would use, for the double-check in lockWithPipeline.
//
// A request pattern is memoized once a store keeps its universe and
// table, and a memoized pattern skips the build and Ensure outright. A
// pattern no store keeps — a fleet's node-spanning pattern with no flat
// store — is built afresh each time and pinned nowhere.
func (s *System) prewarm(req JobRequest, pattern *graph.Graph) (*graph.Graph, *matchcache.Store, error) {
	var key patternKey
	var keyErr error
	if pattern == nil {
		key, keyErr = patternKeyOf(req)
	}
	var memo *graph.Graph
	s.mu.Lock()
	st, gate, n := s.store, s.prewarmGate, s.gpus.Count()
	if pattern == nil {
		memo = s.patterns[key]
	}
	s.mu.Unlock()
	if req.NumGPUs > n {
		return nil, nil, fmt.Errorf("mapa: allocating %d GPUs on a %d-GPU machine: %w", req.NumGPUs, n, policy.ErrNoAllocation)
	}
	fresh := false
	if pattern == nil {
		if keyErr != nil {
			return nil, nil, keyErr
		}
		if pattern = memo; pattern == nil {
			var err error
			if pattern, err = appgraph.Build(key.shape, key.n); err != nil {
				return nil, nil, err
			}
			fresh = true
		}
	}
	if gate != nil {
		gate(pattern.NumVertices())
	}
	if memo != nil {
		return pattern, st, nil
	}
	if s.fleet != nil && pattern.NumVertices() <= s.fleet.MaxNodeGPUs() {
		s.fstore.Ensure(pattern)
	} else if st != nil {
		st.Ensure(pattern, 0)
	} else {
		return pattern, st, nil
	}
	if fresh {
		s.mu.Lock()
		// Only for the store Ensure just filled: a pipeline swapped in
		// meanwhile starts with an empty memo.
		if s.store == st {
			if s.patterns == nil {
				s.patterns = make(map[patternKey]*graph.Graph)
			}
			s.patterns[key] = pattern
		}
		s.mu.Unlock()
	}
	return pattern, st, nil
}

// lockWithPipeline acquires the state lock for a decision on pattern,
// double-checking the store entry: if a concurrent Repartition swapped
// the pipeline while the unlocked prewarm ran against the old store,
// the build is redone against the current one — the decision must
// never be the call that pays a cold build under the lock.
func (s *System) lockWithPipeline(pattern *graph.Graph, st *matchcache.Store) {
	s.mu.Lock()
	for s.store != st {
		st = s.store
		s.mu.Unlock()
		if st != nil {
			st.Ensure(pattern, 0)
		}
		s.mu.Lock()
	}
}

// Allocate leases GPUs for the request. It returns
// policy.ErrNoAllocation (via errors.Is-compatible wrapping) when the
// request cannot be placed on the currently free GPUs.
//
// A request for a shape whose universe is not yet resident builds it
// before entering the decision critical section, so concurrent
// Allocate, Release, and health calls proceed while the build runs.
func (s *System) Allocate(req JobRequest) (*Lease, error) {
	return s.allocate(req, nil)
}

// allocate is the shared Allocate body; a nil pattern is built from
// req's shape.
func (s *System) allocate(req JobRequest, pattern *graph.Graph) (*Lease, error) {
	pattern, st, err := s.prewarm(req, pattern)
	if err != nil {
		return nil, err
	}
	s.lockWithPipeline(pattern, st)
	defer s.mu.Unlock()
	return s.allocateLocked(pattern, req)
}

// allocateLocked runs one decision + commit under the state lock. The
// pipeline for pattern's shape must already be resident (prewarm), so
// the decision itself is table lookups plus O(k) arithmetic on warmed
// shapes.
func (s *System) allocateLocked(pattern *graph.Graph, req JobRequest) (*Lease, error) {
	a, err := s.alloc.Allocate(s.top, s.usable, policy.Request{Pattern: pattern, Sensitive: req.Sensitive})
	if err != nil {
		return nil, fmt.Errorf("mapa: allocating %d GPUs: %w", req.NumGPUs, err)
	}
	id, dl := s.nextID+1, deadline(req.TTL)
	if err := s.commit(journal.Record{
		Kind: journal.KindAllocate, ID: id, NumGPUs: req.NumGPUs,
		Shape: req.Shape, Sensitive: req.Sensitive, Owner: req.Owner,
		Deadline: dl, GPUs: a.GPUs,
	}); err != nil {
		return nil, err
	}
	return &Lease{
		ID: id,
		// A copy, not a.GPUs itself: the internal lease record must
		// never share a backing array with the slice handed to the
		// caller, or a tenant sorting (or a JSON encoder path mutating)
		// Lease.GPUs would silently corrupt release validation.
		GPUs:        append([]int(nil), a.GPUs...),
		EffBW:       a.Scores.EffBW,
		AggBW:       a.Scores.AggBW,
		PreservedBW: a.Scores.PreservedBW,
		Deadline:    dl,
	}, nil
}

// AllocateBatch serves n identical requests in one acquisition of the
// state lock — the request-coalescing primitive behind mapad's burst
// handling: a burst of identical (shape, size) requests pays one
// prewarm and one lock round-trip instead of n. Results are identical
// to n sequential Allocate calls. Both returned slices have length n;
// leases[i] is nil exactly when errs[i] is non-nil (later requests in
// a batch may fail with policy.ErrNoAllocation after earlier ones
// drain the machine).
func (s *System) AllocateBatch(req JobRequest, n int) ([]*Lease, []error) {
	leases := make([]*Lease, n)
	errs := make([]error, n)
	if n <= 0 {
		return leases, errs
	}
	pattern, st, err := s.prewarm(req, nil)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return leases, errs
	}
	s.lockWithPipeline(pattern, st)
	defer s.mu.Unlock()
	for i := range leases {
		leases[i], errs[i] = s.allocateLocked(pattern, req)
	}
	return leases, errs
}

// Release returns a lease's GPUs to the free pool. Releasing an
// unknown or already-released lease is an error. GPUs marked
// unhealthy while leased do not rejoin the free pool until Restore.
func (s *System) Release(l *Lease) error {
	if l == nil {
		return fmt.Errorf("mapa: nil lease")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseLocked(l.ID, false)
}

// releaseLocked is the shared release body: client releases come in
// with expired=false via Release, the TTL reaper journals expirations
// as releases with expired=true via ReapExpired.
func (s *System) releaseLocked(id int, expired bool) error {
	return s.commit(journal.Record{Kind: journal.KindRelease, ID: id, Expired: expired, GPUs: s.leases[id]})
}

// MarkUnhealthy marks GPUs unhealthy: they stay visible in the
// topology but become unallocatable until Restore (the ROCm health
// convention — degraded devices are reported, not hidden). Marking a
// leased GPU is allowed — the lease keeps running, but the GPU will
// not rejoin the free pool when released. The event is an O(n) delta
// on each view stream's health mask and Eq. 3 accounting; no universe
// or table is rebuilt. Marking an unknown or already-unhealthy GPU, or
// listing one twice, is an error, and an erroring call mutates
// nothing.
func (s *System) MarkUnhealthy(gpus ...int) error {
	if len(gpus) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(journal.Record{Kind: journal.KindMark, GPUs: gpus})
}

// Restore returns unhealthy GPUs to service. A restored GPU rejoins
// the free pool immediately unless a lease still holds it (it was
// marked while leased), in which case it becomes allocatable on
// release. An erroring call mutates nothing.
func (s *System) Restore(gpus ...int) error {
	if len(gpus) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(journal.Record{Kind: journal.KindRestore, GPUs: gpus})
}

// UnhealthyGPUs returns the GPUs currently marked unhealthy, in
// ascending order.
func (s *System) UnhealthyGPUs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.unhealthy))
	for g := range s.unhealthy {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// ErrFractionalBandwidth is returned (wrapped) by DegradeLink for a
// bandwidth that is not a whole number of GB/s.
var ErrFractionalBandwidth = errors.New("link bandwidth must be a whole number of GB/s")

// DegradeLink sets the bandwidth of an existing machine link (u,v) to
// bw GB/s — a link-degradation (or recovery) event. The topology's
// graphs mutate in place: the link's structure and label survive, only
// its weight changes, so no universe changes and liveness is
// untouched. The derived state is repaired incrementally:
// built score tables re-derive exactly the GPU sets containing both
// endpoints (the ring-channel decomposition prices a physical link
// only when the allocation holds both ends, so the affected set is
// exact), the topology's pair table is dropped with the link-mix memo
// it carries (the memo's link signatures number the old weights), and
// the live views' bandwidth accounting absorbs the weight delta in
// O(degree).
//
// bw must be a finite, non-negative whole number of GB/s, like every
// link of the built-in catalog: Eq. 3's delta accounting, table repair
// and the fleet PreservedShift are exact only for integral weights, so
// a fractional bandwidth is rejected rather than left to break the
// rule that every decision path agrees. Fleets reject DegradeLink: a
// degraded node would need its own node class; model the event as
// MarkUnhealthy on the node's GPUs instead. For MIG machines,
// degrading a physical NVLink port edge writes through to the base
// machine and survives repartitioning; degraded on-die and PCIe
// fallback paths are re-derived at catalog bandwidth for GPUs that are
// later re-cut, as in hardware.
func (s *System) DegradeLink(u, v int, bw float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fleet == nil {
		if e, ok := s.top.Graph.EdgeBetween(u, v); ok && e.Weight == bw {
			return nil // already at bw: nothing to commit
		}
	}
	return s.commit(journal.Record{Kind: journal.KindDegrade, U: u, V: v, BW: bw})
}

// Repartition re-slices physical GPUs into MIG instances on the live
// System (Sec. 3.2/3.3's virtualized accelerators as a topology
// mutation). slices maps physical GPU ID — an ID of the machine the
// System was built for — to its new instance count (1..7); GPUs not
// listed keep their current slicing. Every instance of a re-cut GPU
// must be lease-free and healthy, or Repartition errors without
// mutating anything. Instances of unchanged GPUs keep their virtual
// IDs, so live leases and health marks survive; re-cut GPUs get fresh,
// never-reused IDs.
//
// Repartitioning changes the vertex set, so unlike the other events it
// rebuilds the match pipeline for the new virtual machine (warming
// synchronously per the System's construction options) and retrains
// the Eq. 2 model. Allocation afterwards treats instances as plain
// vertices: a request cannot ask for a minimum compute fraction.
func (s *System) Repartition(slices map[int]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The record lists the GPUs whose slicing changes, ascending; an
	// unknown GPU is listed too, for check to refuse.
	var changed []journal.Slice
	for g, n := range slices {
		if cur := s.instancesLocked(g); cur == nil || n != len(cur) {
			changed = append(changed, journal.Slice{GPU: g, Instances: n})
		}
	}
	if len(changed) == 0 {
		return nil
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].GPU < changed[j].GPU })
	return s.commit(journal.Record{Kind: journal.KindRepartition, Slices: changed})
}

// replayViewsLocked replays the current allocation and health state
// into a freshly built flat view stream. A stream starts from the whole
// machine free, so one created mid-stream — after journal recovery or a
// Repartition — must inherit the live state before it can serve.
// (Fleets build their stream on an idle System and never rebuild it.)
func (s *System) replayViewsLocked() {
	leased := make([]int, 0, len(s.leasedBy))
	for g := range s.leasedBy {
		leased = append(leased, g)
	}
	sort.Ints(leased)
	un := make([]int, 0, len(s.unhealthy))
	for g := range s.unhealthy {
		un = append(un, g)
	}
	sort.Ints(un)
	if len(leased) > 0 {
		s.views.Allocate(leased)
	}
	if len(un) > 0 {
		s.views.MarkUnhealthy(un)
	}
}

// Instances returns the virtual GPU IDs currently hosted by the given
// physical GPU, ascending. Before any Repartition — or for a GPU left
// whole — a physical GPU hosts itself.
func (s *System) Instances(physical int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.instancesLocked(physical)...)
}

// InstanceFraction returns the share of its physical device's compute
// a virtual GPU carries (1 for whole GPUs, 0 for unknown IDs).
func (s *System) InstanceFraction(v int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fractions == nil {
		if s.gpus.Has(v) {
			return 1
		}
		return 0
	}
	return s.fractions[v]
}

// Matrix renders the machine's nvidia-smi-style link matrix; empty
// for a fleet above FleetFlattenLimit, which has no flat machine.
func (s *System) Matrix() string {
	if s.top == nil {
		return ""
	}
	return s.top.Matrix()
}

// Job is one simulated job. Workload must name a built-in workload
// model; zero Iters uses the workload default.
type Job struct {
	Workload  string
	NumGPUs   int
	Iters     int
	Sensitive *bool // nil uses the workload's catalog annotation
}

// SimJob converts a public Job to the internal representation.
func simJob(id int, j Job) (jobs.Job, error) {
	w, err := workload.ByName(j.Workload)
	if err != nil {
		return jobs.Job{}, err
	}
	iters := j.Iters
	if iters == 0 {
		iters = w.DefaultIters
	}
	sensitive := w.Sensitive
	if j.Sensitive != nil {
		sensitive = *j.Sensitive
	}
	return jobs.Job{
		ID: id, Workload: w.Name, NumGPUs: j.NumGPUs,
		Shape: w.Shape, Sensitive: sensitive, Iters: iters,
	}, nil
}

// JobResult is one simulated job outcome.
type JobResult struct {
	Workload       string
	NumGPUs        int
	GPUs           []int
	Sensitive      bool
	Start, End     float64
	ExecTime       float64
	PredictedEffBW float64
	MeasuredEffBW  float64
}

// SimulationResult is a whole run.
type SimulationResult struct {
	Topology   string
	Policy     string
	Jobs       []JobResult
	Makespan   float64
	Throughput float64
}

// Simulate runs the job list through the multi-tenant scheduling
// simulator (FIFO queue, Fig. 14 of the paper) on the named topology
// and policy.
func Simulate(topologyName, policyName string, jobList []Job) (SimulationResult, error) {
	top, err := topology.ByName(topologyName)
	if err != nil {
		return SimulationResult{}, err
	}
	scorer := score.NewScorer(effbw.TrainedFor(top))
	alloc, err := policy.ByName(policyName, scorer)
	if err != nil {
		return SimulationResult{}, err
	}
	internal := make([]jobs.Job, len(jobList))
	for i, j := range jobList {
		ij, err := simJob(i+1, j)
		if err != nil {
			return SimulationResult{}, err
		}
		internal[i] = ij
	}
	res, err := sched.NewEngine(top, alloc).Run(internal)
	if err != nil {
		return SimulationResult{}, err
	}
	return convertResult(topologyName, res), nil
}

func convertResult(topName string, res sched.RunResult) SimulationResult {
	out := SimulationResult{
		Topology:   topName,
		Policy:     res.Policy,
		Makespan:   res.Makespan,
		Throughput: res.Throughput,
	}
	for _, r := range res.Records {
		out.Jobs = append(out.Jobs, JobResult{
			Workload:       r.Job.Workload,
			NumGPUs:        r.Job.NumGPUs,
			GPUs:           append([]int(nil), r.GPUs...),
			Sensitive:      r.Job.Sensitive,
			Start:          r.Start,
			End:            r.End,
			ExecTime:       r.ExecTime,
			PredictedEffBW: r.PredictedEffBW,
			MeasuredEffBW:  r.MeasuredEffBW,
		})
	}
	return out
}

// PaperJobMix returns the paper's evaluation mix (Sec. 4): 300 jobs,
// uniform over the nine workloads, uniform 1-5 GPUs, reproducible by
// seed.
func PaperJobMix(seed int64) []Job {
	var out []Job
	for _, j := range jobs.PaperMix(seed) {
		sens := j.Sensitive
		out = append(out, Job{Workload: j.Workload, NumGPUs: j.NumGPUs, Iters: j.Iters, Sensitive: &sens})
	}
	return out
}

// IdealAggregateBandwidth returns the maximum aggregate bandwidth
// (GB/s) any k-GPU allocation can have on an idle machine — the
// BW_IdealAllocation denominator of the paper's fragmentation study
// (Fig. 4).
func IdealAggregateBandwidth(topologyName string, k int) (float64, error) {
	top, err := topology.ByName(topologyName)
	if err != nil {
		return 0, err
	}
	return top.IdealAggregate(k), nil
}

// AllocationAggregateBandwidth returns the aggregate bandwidth (GB/s)
// of all pairwise links among the given GPUs — BW_Allocated in the
// fragmentation study.
func AllocationAggregateBandwidth(topologyName string, gpus []int) (float64, error) {
	top, err := topology.ByName(topologyName)
	if err != nil {
		return 0, err
	}
	for _, g := range gpus {
		if !top.Graph.HasVertex(g) {
			return 0, fmt.Errorf("mapa: GPU %d not in topology %s", g, top.Name)
		}
	}
	return top.Graph.InducedSubgraph(gpus).TotalWeight(), nil
}

// CompareAllPolicies runs the same jobs under every paper policy
// (baseline, topo-aware, greedy, preserve) in real-run mode and
// returns results keyed by policy name.
func CompareAllPolicies(topologyName string, jobList []Job) (map[string]SimulationResult, error) {
	return compareAll(topologyName, jobList, sched.ModeRealRun)
}

// CompareAllPoliciesFixed is CompareAllPolicies in the paper's
// exploration-simulator mode (Sec. 5.1): every job keeps its baseline
// duration regardless of allocation, so the admission schedule is
// identical across policies and effective bandwidth isolates
// allocation quality. Use this to reproduce Fig. 18.
func CompareAllPoliciesFixed(topologyName string, jobList []Job) (map[string]SimulationResult, error) {
	return compareAll(topologyName, jobList, sched.ModeFixed)
}

func compareAll(topologyName string, jobList []Job, mode sched.Mode) (map[string]SimulationResult, error) {
	top, err := topology.ByName(topologyName)
	if err != nil {
		return nil, err
	}
	internal := make([]jobs.Job, len(jobList))
	for i, j := range jobList {
		ij, err := simJob(i+1, j)
		if err != nil {
			return nil, err
		}
		internal[i] = ij
	}
	results, err := sched.ComparePoliciesMode(top, sched.PaperPolicies(), internal, mode)
	if err != nil {
		return nil, err
	}
	out := make(map[string]SimulationResult, len(results))
	for name, res := range results {
		out[name] = convertResult(topologyName, res)
	}
	return out, nil
}
