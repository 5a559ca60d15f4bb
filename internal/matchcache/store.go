package matchcache

import (
	"sync"
	"time"

	"mapa/internal/graph"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// DefaultUniverseCapacity bounds how many equivalence classes — GPU
// sets times embeddings per set — an idle-state universe may hold. A
// shape whose universe exceeds the bound is marked incomplete and never
// viewed — decisions for it run a fresh search each time. A universe is
// a closed form, so the bound no longer caps its own memory; it caps
// the score table (a few dozen bytes per GPU set) and its build, and it
// keeps the over-capacity requests on the search that decides them
// today.
const DefaultUniverseCapacity = 200000

// ShapeBuild records one universe build: the shape's size, the
// resulting class count, and how long deriving the universe took.
// Build timings sit on the serving path of every cold start — a
// topology-aware allocator must come up on daemon start before it can
// place anything — so the store keeps them as first-class stats.
type ShapeBuild struct {
	// Vertices and Edges describe the canonical pattern built.
	Vertices, Edges int
	// Classes is the universe's deduplicated class count — GPU sets
	// times embeddings per set; Complete is false when it overflows the
	// store capacity (then Classes is 0).
	Classes  int
	Complete bool
	// Duration is the wall time of deriving the universe: its
	// permutation list on K_k, not an enumeration on the machine.
	Duration time.Duration
}

// StoreStats is a snapshot of the universe store's counters.
type StoreStats struct {
	// Universes counts complete idle-state universes built (warmed or
	// on demand); Incomplete counts shapes whose enumeration overflowed
	// the capacity and were marked unusable.
	Universes, Incomplete int
	// Builds records every universe derivation in completion order;
	// BuildTime is their summed wall time.
	Builds    []ShapeBuild
	BuildTime time.Duration
	// Tables counts score tables built (the static-metric
	// precomputation behind the table-served selection path);
	// TableTime is their summed build wall time.
	Tables    int
	TableTime time.Duration
	// Repairs counts RepairEdge calls (one per link-degradation event);
	// RepairedCandidates the candidates they re-derived — the GPU sets
	// holding both endpoints of the changed edge times the embeddings
	// per set, not the whole universe — and RepairTime their summed
	// wall time.
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
// universe per (topology, canonical pattern), derived once —
// optionally warmed at construction time — and shared by every policy
// bound to the topology. It is safe for concurrent use and is designed
// to be shared across engines comparing policies on the same machine.
type Store struct {
	mu          sync.Mutex
	top         *topology.Topology
	capacity    int
	universes   map[string]*universeSlot // canonical fingerprint -> slot
	builtTables []*universeSlot          // slots whose score table is built, for RepairEdge
	stats       StoreStats
}

// NewStore returns a universe store for the topology. capacity bounds
// each universe's class count; <= 0 uses DefaultUniverseCapacity.
func NewStore(top *topology.Topology, capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultUniverseCapacity
	}
	return &Store{
		top:       top,
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

// ensureTable returns the slot's score table, building it on first
// use; nil when the slot's universe is incomplete. The build runs
// outside the store lock; concurrent callers for one shape converge on
// a single build via the slot's once.
func (s *Store) ensureTable(sl *universeSlot) *score.Table {
	sl.tableOnce.Do(func() {
		if !sl.u.Complete() {
			return
		}
		start := time.Now()
		sl.table = score.BuildTable(s.top, sl.pattern, sl.u)
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
// returns how many candidates were re-derived. Hardware graphs are
// complete, so a weight change never alters which embeddings exist:
// the universes stand untouched, and only the precomputed per-set
// metrics of the GPU sets that actually price the edge go stale. Those
// are exactly the sets that contain BOTH endpoints (the ring-channel
// decomposition reads only intra-allocation links; see
// score.Table.RepairEdge), so repair unranks those C(n−2, k−2) sets
// per table and refills them — no enumeration, no rebuild.
//
// Tables built after the event need no repair: BuildTable reads the
// mutated graph. The caller must have already updated the topology's
// graphs and dropped its pair table and signature-keyed mix memo
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
// deriving it on first use and recording the build's timing. Decision
// paths (Views.SelectLive), Ensure and Warm all come through here.
// Concurrent callers for the same shape converge on one build via the
// slot's once; callers for distinct shapes build independently.
func (s *Store) universe(ci *canonInfo, pattern *graph.Graph) *universeSlot {
	sl := s.slot(ci, pattern)
	sl.once.Do(func() {
		start := time.Now()
		u := match.BuildUniverse(sl.pattern, s.top.Graph, s.capacity)
		build := ShapeBuild{
			Vertices: sl.pattern.NumVertices(),
			Edges:    sl.pattern.NumEdges(),
			Classes:  u.Len(),
			Complete: u.Complete(),
			Duration: time.Since(start),
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
// init-time work MAPA pays once per shape instead of on the first
// decision — and the score tables of the complete ones. It
// returns how many complete universes the store now holds for the
// requested shapes (already-warm shapes count).
//
// Shapes build one after another on the calling goroutine; isomorphic
// requests (Ring(3) and AllToAll(3) are the same canonical triangle)
// share one build. The store stays fully usable while warming runs — a
// concurrent Ensure or Views.SelectLive for a shape being warmed blocks
// only on that shape's build (sync.Once), and any other shape is
// unaffected — so callers may serve decisions before Warm returns.
//
// workers is ignored. It stays only because bench/ links this
// signature, and goes when bench/ stops passing it.
func (s *Store) Warm(workers int, patterns ...*graph.Graph) int {
	n := 0
	for _, p := range patterns {
		if sl := s.universe(canon.info(p), p); sl.u.Complete() {
			s.ensureTable(sl)
			n++
		}
	}
	return n
}

// Ensure builds the pattern's idle-state universe — and, when the
// universe is complete, its score table — if either is missing.
// Already-built shapes return immediately after a memoized fingerprint
// lookup, so Ensure is cheap enough to call per request: it is the
// prewarm hook mapa.System runs *outside* its state lock, so a cold
// shape's table build never stalls concurrent decisions, releases, or
// health events. Concurrent Ensure calls for one shape converge on a
// single build via the slot's once.
//
// workers is ignored. It stays only because bench/ links this
// signature, and goes when bench/ stops passing it.
func (s *Store) Ensure(pattern *graph.Graph, workers int) {
	sl := s.universe(canon.info(pattern), pattern)
	if sl.u.Complete() {
		s.ensureTable(sl)
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
