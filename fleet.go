// FleetSystem: the live allocator for fleet-scale machines, built on
// node-symmetric universe templates instead of a flattened hardware
// graph.
//
// A System materializes the whole machine: its universe store
// enumerates candidate GPU sets over all N·perNode vertices, so cost
// grows with fleet size even though every node is the same machine.
// FleetSystem keeps the fleet symbolic — a topology.Fleet records the
// node classes and per-node vertex offsets — and builds the match
// pipeline per node *class*: one idle-state universe and one score
// table per (class, canonical shape), shared by every node of that
// class. Template memory and build time are O(distinct classes ×
// shapes), independent of node count: warming a 1,000-node fleet costs
// exactly what warming a 2-node one does.
//
// Decisions for patterns that fit inside one node run the hierarchical
// two-level path (policy.AllocateFleetInto): an inter-node sweep over
// cheap per-node aggregates picks candidate nodes, and the intra-node
// selection is the ordinary table-served argmax against the shared
// class template, with node-local scores translated to exact
// fleet-global values (see matchcache's fleet doc comment for the
// Eq. 3 decomposition). The hierarchical path places each job inside
// one node — the documented node-local placement rule. On fleets small
// enough to flatten (FleetFlattenLimit), a flat fallback pipeline
// serves node-spanning patterns and requests no single node can host;
// larger fleets reject those with an error, since flattening them is
// the cost this type exists to avoid.
//
// Determinism: GPU IDs are node-major (node i owns IDs
// [Offset(i), Offset(i)+size)), equal-scored node winners resolve to
// the lowest node index, and that coincides with the flat matcher's
// lexicographic GPU-set tie-break. The churn-parity suites pin greedy
// decisions byte-identical to a flat System's; PreservedBW-primary
// policies follow the node-local rule (a flat matcher may prefer
// spreading an insensitive job across nodes) and are pinned against a
// node-local flat oracle instead.
package mapa

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// FleetFlattenLimit is the largest fleet (in GPUs) for which
// FleetSystem also materializes the flattened machine as a fallback
// pipeline for node-spanning patterns. Beyond it the fleet stays
// purely symbolic: a complete graph on F GPUs has C(F,2) edges —
// 32 million at 8,000 GPUs — which is exactly the footprint templates
// avoid.
const FleetFlattenLimit = 128

// FleetSystem is a live MAPA allocator for a multi-node fleet. It has
// the System lease lifecycle — Allocate/Release, MarkUnhealthy/Restore
// — but serves decisions from per-node-class universe templates, so
// construction and steady-state cost scale with the number of distinct
// node classes, not the number of nodes. It is safe for concurrent
// use.
type FleetSystem struct {
	mu     sync.Mutex
	fleet  *topology.Fleet
	flat   *topology.Topology // flattened machine; nil above FleetFlattenLimit
	alloc  policy.Allocator
	scorer *score.Scorer

	// Fleet template pipeline: always on — it is the point of the type.
	fstore *matchcache.FleetStore
	fviews *matchcache.FleetViews

	// Flat fallback pipeline for node-spanning patterns; nil fields on
	// fleets above FleetFlattenLimit.
	store *matchcache.Store
	views *matchcache.Views

	usable    graph.Bitset // GPUs neither leased nor unhealthy, by global ID
	leases    map[int][]int
	leasedBy  map[int]int
	unhealthy map[int]bool
	nextID    int
	cfg       systemConfig

	buf        policy.Allocation // reused hierarchical decision buffer
	hierServed uint64
	flatServed uint64
}

// NewFleetSystem builds a FleetSystem of nodes instances of the named
// node-template topology (e.g. "dgx-a100"), with the given policy.
// Options are the System options; WithWarmShapes warms the class
// templates (cost per class, not per node).
func NewFleetSystem(templateName string, nodes int, policyName string, opts ...SystemOption) (*FleetSystem, error) {
	tmpl, err := topology.ByName(templateName)
	if err != nil {
		return nil, err
	}
	return NewFleetSystemFor(topology.NewFleet(tmpl, nodes), policyName, opts...)
}

// NewFleetSystemFor builds a FleetSystem for an explicit fleet. The
// Eq. 2 model is trained on the flattened machine when the fleet is
// small enough to flatten and falls back to the paper's published
// coefficients otherwise — the same rule effbw.TrainedFor applies to
// any machine above its training-size ceiling, so decisions agree with
// a flat System's either way.
func NewFleetSystemFor(f *topology.Fleet, policyName string, opts ...SystemOption) (*FleetSystem, error) {
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	var flat *topology.Topology
	if f.NumGPUs() <= FleetFlattenLimit {
		flat = f.Flatten()
	}
	var model *effbw.Model
	if flat != nil {
		model = effbw.TrainedFor(flat)
	} else {
		model = effbw.PaperModel()
	}
	scorer := score.NewScorer(model)
	alloc, err := policy.ByName(policyName, scorer)
	if err != nil {
		return nil, err
	}
	if cfg.workers > 1 {
		policy.SetParallelism(alloc, cfg.workers)
	}
	s := &FleetSystem{
		fleet:     f,
		flat:      flat,
		alloc:     alloc,
		scorer:    scorer,
		usable:    graph.NewBitset(f.NumGPUs()),
		leases:    make(map[int][]int),
		leasedBy:  make(map[int]int),
		unhealthy: make(map[int]bool),
		cfg:       cfg,
	}
	s.usable.Fill(f.NumGPUs())
	s.fstore = matchcache.NewFleetStore(f, matchcache.DefaultUniverseCapacity)
	if cfg.buildWorkers > 1 {
		s.fstore.SetBuildWorkers(cfg.buildWorkers)
	}
	if cfg.warmMaxGPUs > 1 {
		warmWorkers := cfg.workers
		if cfg.buildWorkers > warmWorkers {
			warmWorkers = cfg.buildWorkers
		}
		s.fstore.Warm(warmWorkers, warmPatterns(cfg.warmMaxGPUs, f.MaxNodeGPUs())...)
	}
	s.fviews = s.fstore.NewFleetViews()
	policy.AttachFleet(alloc, s.fviews)
	if flat != nil {
		s.store = matchcache.NewStore(flat, matchcache.DefaultUniverseCapacity)
		if cfg.buildWorkers > 1 {
			s.store.SetBuildWorkers(cfg.buildWorkers)
		}
		s.views = s.store.NewViews()
		policy.AttachUniverses(alloc, s.store)
		policy.AttachViews(alloc, s.views)
	}
	return s, nil
}

// Fleet returns the fleet the system allocates over.
func (s *FleetSystem) Fleet() *topology.Fleet { return s.fleet }

// Topology returns the fleet's name.
func (s *FleetSystem) Topology() string { return s.fleet.Name }

// Policy returns the system's policy name.
func (s *FleetSystem) Policy() string { return s.alloc.Name() }

// NumGPUs returns the fleet size in GPUs.
func (s *FleetSystem) NumGPUs() int { return s.fleet.NumGPUs() }

// NumNodes returns the fleet's node count.
func (s *FleetSystem) NumNodes() int { return s.fleet.NumNodes() }

// ActiveLeases returns the number of live leases.
func (s *FleetSystem) ActiveLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// FreeGPUs returns the currently allocatable GPU IDs, ascending.
func (s *FleetSystem) FreeGPUs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usable.Members()
}

// UnhealthyGPUs returns the GPUs currently marked unhealthy,
// ascending.
func (s *FleetSystem) UnhealthyGPUs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.unhealthy))
	for g := range s.unhealthy {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// Allocate leases GPUs for the request. Patterns that fit inside one
// node take the hierarchical template path; patterns that span nodes —
// or fitting patterns no single node can currently host — fall back to
// the flat pipeline on fleets small enough to flatten, and error
// otherwise. Like System.Allocate, a cold shape's template build runs
// before the state lock is taken, so one tenant's first-use cost never
// stalls another's table-served decision.
func (s *FleetSystem) Allocate(req JobRequest) (*Lease, error) {
	pattern, err := buildPattern(req)
	if err != nil {
		return nil, err
	}
	fits := pattern.NumVertices() <= s.fleet.MaxNodeGPUs()
	if fits {
		// Unlocked prewarm: class-template universes and tables build
		// outside the state lock (and outside the view lock — ensureSlot
		// then finds them memoized).
		s.fstore.Ensure(pattern, s.cfg.workers)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	preq := policy.Request{Pattern: pattern, Sensitive: req.Sensitive}
	if fits {
		served, aerr := policy.AllocateFleetInto(s.alloc, &s.buf, preq)
		if served && aerr == nil {
			s.hierServed++
			return s.commitLocked(s.buf.GPUs, s.buf.Scores), nil
		}
		if served && !errors.Is(aerr, policy.ErrNoAllocation) {
			return nil, fmt.Errorf("mapa: allocating %d GPUs on %s: %w", req.NumGPUs, s.fleet.Name, aerr)
		}
		// served with ErrNoAllocation (no node can host right now) or
		// declined (e.g. a policy without the fleet path): fall through
		// to the flat pipeline where one exists.
	}
	if s.flat == nil {
		if fits {
			return nil, fmt.Errorf("mapa: allocating %d GPUs on %s: %w", req.NumGPUs, s.fleet.Name, policy.ErrNoAllocation)
		}
		return nil, fmt.Errorf("mapa: pattern of %d GPUs spans nodes (max node size %d) and fleet %s is above the flatten limit (%d GPUs): %w",
			req.NumGPUs, s.fleet.MaxNodeGPUs(), s.fleet.Name, FleetFlattenLimit, policy.ErrNoAllocation)
	}
	a, err := s.alloc.Allocate(s.flat, s.usable, preq)
	if err != nil {
		return nil, fmt.Errorf("mapa: allocating %d GPUs on %s: %w", req.NumGPUs, s.fleet.Name, err)
	}
	s.flatServed++
	return s.commitLocked(a.GPUs, a.Scores), nil
}

// commitLocked books a decided GPU set as a lease and publishes the
// allocation delta to both the fleet views and (when present) the flat
// fallback pipeline. gpus may alias a reused decision buffer, so the
// lease record and the returned Lease each take their own copy.
func (s *FleetSystem) commitLocked(gpus []int, sc score.Scores) *Lease {
	for _, g := range gpus {
		s.usable.Unset(g)
	}
	s.fviews.Allocate(gpus)
	s.views.Allocate(gpus)
	s.nextID++
	id := s.nextID
	own := append([]int(nil), gpus...)
	s.leases[id] = own
	for _, g := range own {
		s.leasedBy[g] = id
	}
	return &Lease{
		ID:          id,
		GPUs:        append([]int(nil), gpus...),
		EffBW:       sc.EffBW,
		AggBW:       sc.AggBW,
		PreservedBW: sc.PreservedBW,
	}
}

// Release returns a lease's GPUs to the free pool. GPUs marked
// unhealthy while leased stay out until Restore.
func (s *FleetSystem) Release(l *Lease) error {
	if l == nil {
		return fmt.Errorf("mapa: nil lease")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gpus, ok := s.leases[l.ID]
	if !ok {
		return fmt.Errorf("mapa: lease %d not active", l.ID)
	}
	delete(s.leases, l.ID)
	for _, g := range gpus {
		delete(s.leasedBy, g)
		if !s.unhealthy[g] {
			s.usable.Set(g)
		}
	}
	// The views track free and health masks independently: unhealthy
	// members re-enter the free mask but stay blocked by the health
	// mask, exactly like the flat stream.
	s.fviews.Release(gpus)
	s.views.Release(gpus)
	return nil
}

// MarkUnhealthy marks GPUs unhealthy fleet-wide — they become
// unallocatable (and their nodes' usable aggregates shrink) until
// Restore. The event is an O(posting list) delta on each GPU's node;
// no template is touched. The same error rules as System.MarkUnhealthy
// apply, and an erroring call mutates nothing.
func (s *FleetSystem) MarkUnhealthy(gpus ...int) error {
	if len(gpus) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[int]bool, len(gpus))
	for _, g := range gpus {
		if s.fleet.NodeOf(g) < 0 {
			return fmt.Errorf("mapa: GPU %d not in fleet %s", g, s.fleet.Name)
		}
		if s.unhealthy[g] {
			return fmt.Errorf("mapa: GPU %d already unhealthy", g)
		}
		if seen[g] {
			return fmt.Errorf("mapa: GPU %d listed twice", g)
		}
		seen[g] = true
	}
	for _, g := range gpus {
		s.unhealthy[g] = true
		if _, leased := s.leasedBy[g]; !leased {
			s.usable.Unset(g)
		}
	}
	s.fviews.MarkUnhealthy(gpus)
	s.views.MarkUnhealthy(gpus)
	return nil
}

// Restore returns unhealthy GPUs to service; a GPU still held by a
// lease becomes allocatable on release, like System.Restore.
func (s *FleetSystem) Restore(gpus ...int) error {
	if len(gpus) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[int]bool, len(gpus))
	for _, g := range gpus {
		if !s.unhealthy[g] {
			return fmt.Errorf("mapa: GPU %d is not unhealthy", g)
		}
		if seen[g] {
			return fmt.Errorf("mapa: GPU %d listed twice", g)
		}
		seen[g] = true
	}
	for _, g := range gpus {
		delete(s.unhealthy, g)
		if _, leased := s.leasedBy[g]; !leased {
			s.usable.Set(g)
		}
	}
	s.fviews.RestoreHealth(gpus)
	s.views.RestoreHealth(gpus)
	return nil
}

// DegradeLink is unsupported on fleets: a per-link weight change
// breaks the node-class symmetry the template store is built on (the
// degraded node would need its own class). Degrade links on a flat
// System, or model the event as MarkUnhealthy on the affected node's
// GPUs.
func (s *FleetSystem) DegradeLink(u, v int, bw float64) error {
	return fmt.Errorf("mapa: DegradeLink is unsupported on fleet %s: link degradation breaks node-class symmetry; use a flat System or MarkUnhealthy", s.fleet.Name)
}

// FleetStats is a snapshot of a FleetSystem's pipeline counters.
type FleetStats struct {
	// Template tier: universes and score tables held per node class —
	// the whole template footprint, independent of node count — and
	// their summed build wall time.
	TemplateUniverses int
	TemplateTables    int
	TemplateBuildTime time.Duration
	TemplateTableTime time.Duration
	// NodeViews counts per-node live views actually materialized (lazy);
	// FleetServed/FleetRejected are the fleet layer's decision counters.
	NodeViews     int
	FleetServed   uint64
	FleetRejected uint64
	// HierarchicalServed counts leases granted by the two-level template
	// path; FlatServed counts leases that went through the flat fallback
	// pipeline (node-spanning patterns, or fitting patterns no single
	// node could host).
	HierarchicalServed uint64
	FlatServed         uint64
}

// Stats returns a snapshot of the system's pipeline counters.
func (s *FleetSystem) Stats() FleetStats {
	ss := s.fstore.Stats()
	vs := s.fviews.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return FleetStats{
		TemplateUniverses:  ss.Universes,
		TemplateTables:     ss.Tables,
		TemplateBuildTime:  ss.BuildTime,
		TemplateTableTime:  ss.TableTime,
		NodeViews:          vs.NodeViews,
		FleetServed:        vs.Served,
		FleetRejected:      vs.Rejected,
		HierarchicalServed: s.hierServed,
		FlatServed:         s.flatServed,
	}
}
