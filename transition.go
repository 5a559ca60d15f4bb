package mapa

// One transition function. Every System mutator decides, then hands a
// journal.Record to commit: check validates the record against the
// current state without writing anything, the write-ahead journal
// appends it, and apply — which cannot fail — performs the state
// change. Recovery runs the same check + apply on every recovered
// record and on a snapshot's leases and health marks, so a journal can
// only rebuild a state the live path could have reached, and a record
// the live path could never write is a startup error.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/journal"
	"mapa/internal/mig"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// deadline stamps a lease expiry ttl from now, in Unix nanoseconds (0 =
// no expiry for ttl <= 0). It is the System's only clock read for lease
// deadlines.
func deadline(ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return time.Now().Add(ttl).UnixNano()
}

// commit runs one state transition under mu. The record is copied into
// the System's reused record storage, then checked, appended to the
// journal and applied; a record check or the journal refuses leaves the
// System untouched.
func (s *System) commit(r journal.Record) error {
	s.rec = r
	rc, err := s.check(&s.rec)
	if err != nil {
		return err
	}
	if err := s.journalAppend(&s.rec); err != nil {
		return err
	}
	s.apply(&s.rec, rc)
	return nil
}

// journalAppend writes one checked record to the write-ahead journal
// before apply changes anything in memory: a failed append aborts the
// transition with the state untouched, so nothing unjournaled can ever
// be observed. No-op when journaling is off — and during recovery,
// where jw is attached only after the recovered records are applied, so
// recovery never re-journals.
func (s *System) journalAppend(rec *journal.Record) error {
	if s.jw == nil {
		return nil
	}
	if err := s.jw.Append(rec); err != nil {
		return fmt.Errorf("mapa: %w: %w", ErrJournal, err)
	}
	return nil
}

// recut is a repartition's composed machine: derived once by check,
// installed by apply (or by a snapshot install).
type recut struct {
	base      *topology.Topology // the physical machine
	vt        *mig.VirtualTopology
	instances map[int][]int // physical GPU -> virtual IDs
	nextVID   int
}

// check holds every rule a transition must meet, whether its record was
// just decided by a live mutator or read back from a journal or
// snapshot. It writes nothing. A repartition's composed machine is
// returned for apply; every other kind returns nil.
func (s *System) check(rec *journal.Record) (*recut, error) {
	switch rec.Kind {
	case journal.KindAllocate:
		if rec.ID != s.nextID+1 {
			return nil, fmt.Errorf("mapa: lease ID %d out of order (next is %d): duplicate or missing record", rec.ID, s.nextID+1)
		}
		if len(rec.GPUs) == 0 || rec.NumGPUs != len(rec.GPUs) {
			return nil, fmt.Errorf("mapa: lease %d requests %d GPUs but holds %v", rec.ID, rec.NumGPUs, rec.GPUs)
		}
		for i, g := range rec.GPUs {
			if !s.usable.Has(g) {
				return nil, fmt.Errorf("mapa: GPU %d not free for lease %d", g, rec.ID)
			}
			if slices.Contains(rec.GPUs[:i], g) {
				return nil, fmt.Errorf("mapa: lease %d lists GPU %d twice", rec.ID, g)
			}
		}
	case journal.KindRelease:
		gpus, ok := s.leases[rec.ID]
		if !ok {
			return nil, fmt.Errorf("mapa: lease %d: %w", rec.ID, ErrLeaseNotActive)
		}
		if !slices.Equal(rec.GPUs, gpus) {
			return nil, fmt.Errorf("mapa: release of lease %d names GPUs %v, the lease holds %v", rec.ID, rec.GPUs, gpus)
		}
	case journal.KindMark:
		if len(rec.GPUs) == 0 {
			return nil, fmt.Errorf("mapa: health event names no GPU")
		}
		for i, g := range rec.GPUs {
			if !s.gpus.Has(g) {
				return nil, fmt.Errorf("mapa: GPU %d not in topology %s", g, s.Topology())
			}
			if s.unhealthy[g] {
				return nil, fmt.Errorf("mapa: GPU %d already unhealthy", g)
			}
			if slices.Contains(rec.GPUs[:i], g) {
				return nil, fmt.Errorf("mapa: GPU %d listed twice", g)
			}
		}
	case journal.KindRestore:
		if len(rec.GPUs) == 0 {
			return nil, fmt.Errorf("mapa: health event names no GPU")
		}
		for i, g := range rec.GPUs {
			if !s.unhealthy[g] {
				return nil, fmt.Errorf("mapa: GPU %d is not unhealthy", g)
			}
			if slices.Contains(rec.GPUs[:i], g) {
				return nil, fmt.Errorf("mapa: GPU %d listed twice", g)
			}
		}
	case journal.KindDegrade:
		if s.fleet != nil {
			return nil, s.errFleetUnsupported("DegradeLink")
		}
		bw := rec.BW
		if bw < 0 || math.IsNaN(bw) || math.IsInf(bw, 0) {
			return nil, fmt.Errorf("mapa: link bandwidth %v is not a finite non-negative number", bw)
		}
		if bw != math.Trunc(bw) {
			return nil, fmt.Errorf("mapa: link bandwidth %v: %w", bw, ErrFractionalBandwidth)
		}
		if _, ok := s.top.Graph.EdgeBetween(rec.U, rec.V); !ok {
			return nil, fmt.Errorf("mapa: no link (%d,%d) in topology %s", rec.U, rec.V, s.top.Name)
		}
	case journal.KindRepartition:
		return s.checkRepartition(rec.Slices)
	case journal.KindRenew:
		if _, ok := s.leases[rec.ID]; !ok {
			return nil, fmt.Errorf("mapa: lease %d: %w", rec.ID, ErrLeaseNotActive)
		}
	default:
		return nil, fmt.Errorf("mapa: unknown record kind %d", uint8(rec.Kind))
	}
	return nil, nil
}

// checkRepartition validates a re-slice — every listed physical GPU
// known, listed once in ascending order, its instance count changed and
// within MIG's range, and all of its current instances lease-free and
// healthy — and composes the resulting machine. Fresh virtual IDs are
// assigned in slice order from nextVID, so replay reproduces them
// exactly.
func (s *System) checkRepartition(recSlices []journal.Slice) (*recut, error) {
	if s.fleet != nil {
		return nil, s.errFleetUnsupported("Repartition")
	}
	if len(recSlices) == 0 {
		return nil, fmt.Errorf("mapa: repartition re-cuts no GPU")
	}
	rc := &recut{base: s.baseTop, nextVID: s.nextVID}
	if rc.base == nil {
		rc.base, rc.nextVID = s.top, graph.Capacity(s.top.Graph)
	}
	rc.instances = make(map[int][]int, rc.base.NumGPUs())
	for _, g := range rc.base.GPUs() {
		rc.instances[g] = s.instancesLocked(g)
	}
	for i, sl := range recSlices {
		g, n := sl.GPU, sl.Instances
		cur := s.instancesLocked(g)
		switch {
		case cur == nil:
			return nil, fmt.Errorf("mapa: physical GPU %d not in topology %s", g, rc.base.Name)
		case i > 0 && g <= recSlices[i-1].GPU:
			return nil, fmt.Errorf("mapa: repartition lists GPU %d out of order", g)
		case n < 1 || n > mig.MaxInstances:
			return nil, fmt.Errorf("mapa: GPU %d split into %d instances; MIG supports 1..%d", g, n, mig.MaxInstances)
		case n == len(cur):
			return nil, fmt.Errorf("mapa: GPU %d already has %d instances", g, n)
		}
		for _, vid := range cur {
			if lid, leased := s.leasedBy[vid]; leased {
				return nil, fmt.Errorf("mapa: cannot repartition GPU %d: instance %d held by lease %d", g, vid, lid)
			}
			if s.unhealthy[vid] {
				return nil, fmt.Errorf("mapa: cannot repartition GPU %d: instance %d is unhealthy", g, vid)
			}
		}
		vs := make([]int, n)
		for j := range vs {
			vs[j] = rc.nextVID
			rc.nextVID++
		}
		rc.instances[g] = vs
	}
	vt, err := mig.Compose(rc.base, rc.instances)
	if err != nil {
		return nil, err
	}
	rc.vt = vt
	return rc, nil
}

// instancesLocked returns the virtual GPUs physical GPU g hosts — g
// itself before any repartition — or nil for a GPU the machine does not
// have.
func (s *System) instancesLocked(g int) []int {
	if s.instances != nil {
		return s.instances[g]
	}
	if s.gpus.Has(g) {
		return []int{g}
	}
	return nil
}

// apply performs a checked transition. It cannot fail. Apart from a
// snapshot's link-weight, MIG-instance and lease-ID restore, it is the
// only writer of the lease tables, the usable and unhealthy sets, the
// lease ID and reap counters and link weights, and the only publisher
// of view deltas. The linearization hook sees a private copy of every
// applied record.
func (s *System) apply(rec *journal.Record, rc *recut) {
	switch rec.Kind {
	case journal.KindAllocate:
		s.nextID = rec.ID
		s.leases[rec.ID] = rec.GPUs
		for _, g := range rec.GPUs {
			s.usable.Unset(g)
			s.leasedBy[g] = rec.ID
		}
		if rec.Owner != "" {
			s.owners[rec.ID] = rec.Owner
		}
		if rec.Deadline != 0 {
			s.expiry[rec.ID] = rec.Deadline
		}
		s.publishAllocate(rec.GPUs)
	case journal.KindRelease:
		delete(s.leases, rec.ID)
		for _, g := range rec.GPUs {
			delete(s.leasedBy, g)
			if !s.unhealthy[g] {
				s.usable.Set(g)
			}
		}
		delete(s.owners, rec.ID)
		delete(s.expiry, rec.ID)
		if rec.Expired {
			s.reaped++
		}
		// The views track the free mask and the health mask independently,
		// so the full lease is published: unhealthy members re-enter the
		// free mask but stay blocked by the health mask.
		s.publishRelease(rec.GPUs)
	case journal.KindMark:
		for _, g := range rec.GPUs {
			s.unhealthy[g] = true
			if _, leased := s.leasedBy[g]; !leased {
				s.usable.Unset(g)
			}
		}
		s.publishMarkUnhealthy(rec.GPUs)
	case journal.KindRestore:
		for _, g := range rec.GPUs {
			delete(s.unhealthy, g)
			if _, leased := s.leasedBy[g]; !leased {
				s.usable.Set(g)
			}
		}
		s.publishRestoreHealth(rec.GPUs)
	case journal.KindDegrade:
		u, v, bw := rec.U, rec.V, rec.BW
		setWeight(s.top.Graph, u, v, bw)
		// A degraded NVLink port belongs to the physical device, not to
		// the instance currently fronting it: on a repartitioned machine
		// it writes through to the base machine.
		if setWeight(s.top.Physical, u, v, bw) && s.baseTop != nil {
			if pu, pv := s.physOf[u], s.physOf[v]; pu != pv {
				setWeight(s.baseTop.Physical, pu, pv, bw)
				setWeight(s.baseTop.Graph, pu, pv, bw)
			}
		}
		score.InvalidateMixes(s.top)
		if s.store != nil {
			s.store.RepairEdge(u, v)
		}
		s.publishUpdateEdge(u, v, bw)
	case journal.KindRepartition:
		// Wait out any in-flight background warm of the old store before
		// swapping it.
		if s.warmDone != nil {
			<-s.warmDone
			s.warmDone = nil
		}
		s.installRecut(rc)
		// During recovery there is no pipeline yet: NewSystem retrains
		// the scorer and builds the pipeline once, for the final
		// recovered topology, after the last record is applied.
		// Otherwise the fresh pipeline inherits the surviving allocation
		// and health state.
		if !s.recovering {
			s.scorer = score.NewScorer(effbw.TrainedFor(s.top))
			policy.SetScorer(s.alloc, s.scorer)
			s.buildPipeline(false)
			s.replayViewsLocked()
		}
	case journal.KindRenew:
		if rec.Deadline == 0 {
			delete(s.expiry, rec.ID)
		} else {
			s.expiry[rec.ID] = rec.Deadline
		}
	}
	if s.onCommit != nil {
		c := *rec
		c.GPUs = slices.Clone(rec.GPUs)
		c.Slices = slices.Clone(rec.Slices)
		s.onCommit(&c)
	}
}

// installRecut makes rc's virtual machine the System's topology and
// rebuilds availability — every instance neither leased nor unhealthy.
func (s *System) installRecut(rc *recut) {
	s.baseTop = rc.base
	s.top = rc.vt.Topology
	s.instances = rc.instances
	s.nextVID = rc.nextVID
	s.physOf = rc.vt.PhysicalOf
	s.fractions = rc.vt.Fraction
	s.gpus = s.top.Graph.VertexBitset()
	s.usable = s.gpus.Clone()
	for g := range s.leasedBy {
		s.usable.Unset(g)
	}
	for g := range s.unhealthy {
		s.usable.Unset(g)
	}
}

// setWeight re-weights g's existing link (u,v), keeping its label, and
// reports whether the link exists.
func setWeight(g *graph.Graph, u, v int, bw float64) bool {
	e, ok := g.EdgeBetween(u, v)
	if ok {
		g.MustAddEdge(u, v, bw, e.Label)
	}
	return ok
}

// publishAllocate publishes an allocation delta to the System's view
// streams, flat and (on a fleet) template alike; nil streams ignore
// deltas.
func (s *System) publishAllocate(gpus []int) {
	s.views.Allocate(gpus)
	s.fviews.Allocate(gpus)
}

// publishRelease publishes a release delta to the view streams.
func (s *System) publishRelease(gpus []int) {
	s.views.Release(gpus)
	s.fviews.Release(gpus)
}

// publishMarkUnhealthy publishes a health delta to the view streams.
func (s *System) publishMarkUnhealthy(gpus []int) {
	s.views.MarkUnhealthy(gpus)
	s.fviews.MarkUnhealthy(gpus)
}

// publishRestoreHealth publishes a recovery delta to the view streams.
func (s *System) publishRestoreHealth(gpus []int) {
	s.views.RestoreHealth(gpus)
	s.fviews.RestoreHealth(gpus)
}

// publishUpdateEdge publishes a link-weight delta to the flat view
// stream (fleets reject link degradation).
func (s *System) publishUpdateEdge(u, v int, bw float64) {
	s.views.UpdateEdge(u, v, bw)
}
