package matchcache

import (
	"sort"
	"sync"
	"time"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// DefaultUniverseCapacity bounds how many equivalence classes an
// idle-state universe may hold. A shape whose idle enumeration exceeds
// the bound is marked incomplete and never viewed — decisions for it
// run a fresh search each time — so the bound caps both the one-time
// build cost and resident memory on large machines.
const DefaultUniverseCapacity = 200000

// ShapeBuild records one universe build: the shape's size, the
// resulting class count, which worker count built it, how long the
// enumeration took, and the work-stealing partitioner's claimed-cost
// imbalance (1 for sequential builds). Build timings sit on the
// serving path of every cold start — a topology-aware allocator must
// come up on daemon start before it can place anything — so the store
// keeps them as first-class stats.
type ShapeBuild struct {
	// Vertices and Edges describe the canonical pattern built.
	Vertices, Edges int
	// Classes is the universe's deduplicated class count; Complete is
	// false when the enumeration overflowed the store capacity.
	Classes  int
	Complete bool
	// Workers is the worker count the build ran with; Duration the
	// wall time of the enumeration.
	Workers  int
	Duration time.Duration
	// CostImbalance is max/min of the per-worker claimed estimated
	// cost (see match.BuildStats); 1 for sequential builds. On hosts
	// with fewer cores than workers one goroutine can drain the queue
	// (+Inf); PlanImbalance is the host-independent plan metric.
	CostImbalance float64
	// PlanImbalance is the chunk plan's idealized claimed-cost
	// imbalance (match.PlanImbalance); 1 for sequential builds.
	PlanImbalance float64
	// Calibrated reports whether the build's chunk plan came from
	// measured per-root timings of an earlier build of this (topology,
	// shape) pair (the process-wide EWMA calibration) rather than the
	// static degree-product estimate. Always false for sequential
	// builds.
	Calibrated bool
}

// StoreStats is a snapshot of the universe store's counters.
type StoreStats struct {
	// Universes counts complete idle-state universes built (warmed or
	// on demand); Incomplete counts shapes whose enumeration overflowed
	// the capacity and were marked unusable.
	Universes, Incomplete int
	// Builds records every universe enumeration in completion order;
	// BuildTime is their summed wall time.
	Builds    []ShapeBuild
	BuildTime time.Duration
	// Tables counts score tables built (the static-metric
	// precomputation behind the table-served selection path);
	// TableTime is their summed build wall time.
	Tables    int
	TableTime time.Duration
	// Repairs counts RepairEdge calls (one per link-degradation event);
	// RepairedCandidates the table entries they re-derived — the
	// embeddings touching the changed edge, not the whole universe —
	// and RepairTime their summed wall time.
	Repairs            int
	RepairedCandidates int
	RepairTime         time.Duration
}

// universeSlot holds one canonical shape's universe, built at most
// once, and its lazily built score table. pattern and patternFP record
// the shape the universe's matches are expressed in; isomorphic
// requests remap through the canonizer.
type universeSlot struct {
	once      sync.Once
	u         *match.Universe
	pattern   *graph.Graph
	patternFP string

	// table is the shape's precomputed static score table, built at
	// most once — during Warm, or on first use by the table-served
	// selection path — and only for complete universes. nil otherwise.
	tableOnce sync.Once
	table     *score.Table
}

// Store is the idle-state universe store: one complete deduplicated
// enumeration per (topology, canonical pattern), computed once —
// optionally warmed at construction time — and shared by every policy
// bound to the topology. It is safe for concurrent use and is designed
// to be shared across engines comparing policies on the same machine.
type Store struct {
	mu           sync.Mutex
	top          *topology.Topology
	graphFP      string // structural fingerprint of top.Graph, for calibration keys
	capacity     int
	buildWorkers int
	universes    map[string]*universeSlot // canonical fingerprint -> slot
	builtTables  []*universeSlot          // slots whose score table is built, for RepairEdge
	stats        StoreStats
}

// NewStore returns a universe store for the topology. capacity bounds
// each universe's class count; <= 0 uses DefaultUniverseCapacity.
func NewStore(top *topology.Topology, capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultUniverseCapacity
	}
	return &Store{
		top: top,
		// Measured root costs are a function of the data graph's
		// structure, so the calibration keys by graph content — not by
		// topology name, which distinct graphs can share (e.g.
		// different MIG splits of one machine).
		graphFP:   top.Graph.Fingerprint(),
		capacity:  capacity,
		universes: make(map[string]*universeSlot),
	}
}

// Bound reports whether the store was built for exactly this topology
// value: policies bypass an unbound store, so a policy attached to one
// machine never serves another machine's embeddings.
func (s *Store) Bound(top *topology.Topology) bool {
	return s != nil && s.top == top
}

// SetBuildWorkers sets a floor on the worker count of every universe
// build this store runs, whichever layer triggers it: an on-demand
// build from a sequential decision path still enumerates with n
// workers. n < 2 restores caller-supplied worker counts only. Safe to
// call concurrently with builds; it affects builds that start after
// the call.
func (s *Store) SetBuildWorkers(n int) {
	s.mu.Lock()
	s.buildWorkers = n
	s.mu.Unlock()
}

// effectiveWorkers resolves a caller-supplied worker count against the
// store's build-worker floor.
func (s *Store) effectiveWorkers(workers int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buildWorkers > workers {
		return s.buildWorkers
	}
	return workers
}

// ensureTable returns the slot's score table, building it on first use
// with up to `workers` goroutines; nil when the slot's universe is
// incomplete. The build runs outside the store lock; concurrent callers
// for one shape converge on a single build via the slot's once.
func (s *Store) ensureTable(sl *universeSlot, workers int) *score.Table {
	sl.tableOnce.Do(func() {
		if !sl.u.Complete() {
			return
		}
		start := time.Now()
		sl.table = score.BuildTable(s.top, sl.pattern, sl.u, workers)
		elapsed := time.Since(start)
		s.mu.Lock()
		s.stats.Tables++
		s.stats.TableTime += elapsed
		s.builtTables = append(s.builtTables, sl)
		s.mu.Unlock()
	})
	return sl.table
}

// RepairEdge absorbs a link-degradation event — the weight of machine
// edge (u,v) changed — into every score table the store has built, and
// returns how many table entries were re-derived. Hardware graphs are
// complete, so a weight change never alters which embeddings exist:
// the universes and their enumeration order stand untouched, and only
// the precomputed per-candidate metrics of the embeddings that
// actually price the edge go stale. Those are exactly the candidates
// whose GPU set contains BOTH endpoints (the ring-channel
// decomposition reads only intra-allocation links; see
// score.Table.RepairEdge), so repair is one bit-probe pass per table
// plus a refill of the affected entries — no enumeration, no rebuild.
//
// Tables built after the event need no repair: BuildTable reads the
// mutated graph. The caller must have already updated the topology's
// graphs and invalidated the process-wide mix memo
// (score.InvalidateMixes), and must serialize RepairEdge with
// decisions on this store, as mapa.System does under its lock.
func (s *Store) RepairEdge(u, v int) int {
	start := time.Now()
	s.mu.Lock()
	tables := append([]*universeSlot(nil), s.builtTables...)
	s.mu.Unlock()
	repaired := 0
	for _, sl := range tables {
		repaired += sl.table.RepairEdge(u, v)
	}
	elapsed := time.Since(start)
	s.mu.Lock()
	s.stats.Repairs++
	s.stats.RepairedCandidates += repaired
	s.stats.RepairTime += elapsed
	s.mu.Unlock()
	return repaired
}

// slot returns the canonical shape's slot, creating it (unbuilt) on
// first sight. The universe itself is built outside the store lock.
func (s *Store) slot(ci *canonInfo, pattern *graph.Graph) *universeSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.universes[ci.canon]
	if !ok {
		sl = &universeSlot{pattern: pattern, patternFP: ci.exact}
		s.universes[ci.canon] = sl
	}
	return sl
}

// universe returns the built universe for the canonical shape,
// building it on first use with the given worker count subject to the
// store's build-worker floor. Decision paths (Views.SelectLive) and
// Ensure come through here; Warm resolves the floor once for its whole
// budget and uses universeWith directly.
func (s *Store) universe(ci *canonInfo, pattern *graph.Graph, workers int) *universeSlot {
	return s.universeWith(ci, pattern, s.effectiveWorkers(workers))
}

// universeWith builds the canonical shape's universe on first use with
// exactly the given worker count, recording the build's timing and
// partitioner balance. Parallel builds plan their chunks from the
// process-wide EWMA cost calibration — measured per-root timings of any
// earlier build of this (topology, shape) pair — and feed their own
// timings back, so repeated builds tighten the work-stealing plan.
// Concurrent callers for the same shape converge on one build via the
// slot's once; callers for distinct shapes build independently — the
// concurrency Warm exploits.
func (s *Store) universeWith(ci *canonInfo, pattern *graph.Graph, workers int) *universeSlot {
	sl := s.slot(ci, pattern)
	sl.once.Do(func() {
		start := time.Now()
		calKey := s.graphFP + "|" + ci.canon
		u, bs := match.BuildUniverseCalibrated(sl.pattern, s.top.Graph, s.capacity, workers,
			match.DefaultCostCalibration(), calKey)
		build := ShapeBuild{
			Vertices:      sl.pattern.NumVertices(),
			Edges:         sl.pattern.NumEdges(),
			Classes:       u.Len(),
			Complete:      u.Complete(),
			Workers:       workers,
			Duration:      time.Since(start),
			CostImbalance: bs.CostImbalance(), // nil-safe: 1 for sequential builds
			PlanImbalance: 1,
		}
		if bs != nil {
			build.PlanImbalance = bs.Plan
			build.Calibrated = bs.Calibrated
		}
		sl.u = u
		s.mu.Lock()
		if u.Complete() {
			s.stats.Universes++
		} else {
			s.stats.Incomplete++
		}
		s.stats.Builds = append(s.stats.Builds, build)
		s.stats.BuildTime += build.Duration
		s.mu.Unlock()
	})
	return sl
}

// Warm precomputes idle-state universes for the given patterns — the
// init-time enumeration MAPA pays once per shape instead of on the
// first decision. It returns how many complete universes the store now
// holds for the requested shapes (already-warm shapes count).
//
// With workers > 1 (after applying the SetBuildWorkers floor) distinct
// shapes build concurrently under one bounded worker budget: up to
// `workers` enumeration goroutines in total, split statically between
// concurrent shape builds and each build's internal work-stealing
// pool. Shapes are queued in descending estimated build cost (the same
// root cost model the partitioner plans with, summed — no enumeration
// needed), so the dominant shape starts at t=0 instead of landing on
// the tail after the budget has drained to a single sequential worker.
// The store stays fully usable while warming runs — a concurrent
// Ensure or Views.SelectLive for a shape being warmed blocks only on
// that shape's build (sync.Once), and any other shape is unaffected —
// so callers may serve decisions before Warm returns.
func (s *Store) Warm(workers int, patterns ...*graph.Graph) int {
	workers = s.effectiveWorkers(workers)
	// The budget splits over *distinct* universes, so collapse the
	// request to one representative per canonical shape first — warm
	// sets routinely carry isomorphic duplicates (Ring(3) and
	// AllToAll(3) are the same canonical triangle), and counting them
	// as separate builds would starve every real build's pool.
	infos := make([]*canonInfo, len(patterns))
	var uniq []int
	seen := make(map[string]bool, len(patterns))
	for i, p := range patterns {
		infos[i] = canon.info(p)
		if !seen[infos[i].canon] {
			seen[infos[i].canon] = true
			uniq = append(uniq, i)
		}
	}
	if workers < 2 || len(uniq) < 2 {
		for _, i := range uniq {
			s.universeWith(infos[i], patterns[i], workers)
		}
	} else {
		// Order the queue by estimated build cost, most expensive
		// first.
		type costed struct {
			idx  int
			cost float64
		}
		queue := make([]costed, len(uniq))
		for j, i := range uniq {
			queue[j] = costed{idx: i, cost: match.EstimateBuildCost(patterns[i], s.top.Graph)}
		}
		sort.SliceStable(queue, func(a, b int) bool { return queue[a].cost > queue[b].cost })
		uniq = uniq[:0]
		for _, q := range queue {
			uniq = append(uniq, q.idx)
		}
		// Split the worker budget: `builds` shapes in flight, each
		// enumerating with workers/builds goroutines — the first
		// workers%builds warm workers take one extra, so the whole
		// requested budget is in use (universeWith applies no further
		// floor).
		builds := workers
		if builds > len(uniq) {
			builds = len(uniq)
		}
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < builds; w++ {
			inner := workers / builds
			if w < workers%builds {
				inner++
			}
			wg.Add(1)
			go func(inner int) {
				defer wg.Done()
				for i := range next {
					s.universeWith(infos[i], patterns[i], inner)
				}
			}(inner)
		}
		for _, i := range uniq {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	// Warm the score tables of the complete universes just built, under
	// the same worker budget: tables are per-candidate pure functions,
	// so one shape at a time with the full budget utilizes it best, and
	// link mixes shared across shapes (same GPU sets) are decomposed
	// once via the process-wide memo.
	for _, i := range uniq {
		if sl := s.universeWith(infos[i], patterns[i], 1); sl.u.Complete() {
			s.ensureTable(sl, workers)
		}
	}
	// Count per requested pattern (duplicates included), preserving the
	// sequential Warm's return semantics; every universe is already
	// built, so these lookups only read slots.
	n := 0
	for i, p := range patterns {
		if sl := s.universeWith(infos[i], p, 1); sl.u.Complete() {
			n++
		}
	}
	return n
}

// Ensure builds the pattern's idle-state universe — and, when the
// universe is complete, its score table — if either is missing, with up
// to `workers` goroutines (subject to the SetBuildWorkers floor).
// Already-built shapes return immediately after a memoized fingerprint
// lookup, so Ensure is cheap enough to call per request: it is the
// prewarm hook mapa.System runs *outside* its state lock, so a cold
// shape's enumeration never stalls concurrent decisions, releases, or
// health events. Concurrent Ensure calls for one shape converge on a
// single build via the slot's once.
func (s *Store) Ensure(pattern *graph.Graph, workers int) {
	ci := canon.info(pattern)
	sl := s.universe(ci, pattern, workers)
	if sl.u.Complete() {
		s.ensureTable(sl, workers)
	}
}

// Stats returns a snapshot of the store's counters. The Builds slice
// is copied, so the snapshot stays stable while builds continue.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Builds = append([]ShapeBuild(nil), s.stats.Builds...)
	return out
}
