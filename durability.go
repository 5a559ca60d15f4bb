package mapa

// Durability: the System's write-ahead journaling, snapshot/recovery,
// and lease-TTL layer. Every committed transition is appended to the
// journal by commit (transition.go) after check and before apply, under
// the state lock; this file holds the construction-time recovery —
// snapshot install, then the same check + apply for each journaled
// record — the snapshot capture that lets the journal compact, and the
// TTL APIs (Renew, ReapExpired) whose expirations are journaled as
// releases.

import (
	"fmt"
	"sort"
	"time"

	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/journal"
	"mapa/internal/mig"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/topology"
)

// WithJournal makes the System durable: every committed mutation is
// appended to a write-ahead journal in dir before it is applied, and
// NewSystem recovers the directory's snapshot + journal — rebuilding
// leases, owners, TTL deadlines, health marks, degraded links, and the
// repartition map exactly as they were — before serving. A torn final
// journal record (the signature of a crash mid-append) is discarded;
// any other corruption fails NewSystem rather than silently dropping
// acknowledged state. Pair with periodic System.Snapshot calls to
// bound replay length.
func WithJournal(dir string, opts journal.Options) SystemOption {
	return func(c *systemConfig) {
		c.journalDir = dir
		c.journalOpts = opts
	}
}

// RecoveryStats describes what NewSystem recovered from the journal.
type RecoveryStats struct {
	// Enabled reports whether the System runs with a journal at all.
	Enabled bool
	// SnapshotLSN is the log position of the snapshot the recovery
	// started from (0 = no snapshot, replayed from genesis).
	SnapshotLSN uint64
	// Records is the number of journal records replayed on top of it.
	Records int
	// Leases is the number of live leases after recovery.
	Leases int
	// ReplayTime is the wall time of snapshot install + record replay.
	ReplayTime time.Duration
}

// Recovery returns the construction-time recovery stats (zero when the
// System has no journal).
func (s *System) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// JournalStats returns the journal's counters; ok is false when the
// System has no journal.
func (s *System) JournalStats() (_ journal.Stats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil {
		return journal.Stats{}, false
	}
	return s.jw.Stats(), true
}

// recoverFromJournal opens the journal, installs its snapshot, and
// commits each live record through check + apply — the transition every
// live mutation runs — then, and only then, attaches the journal to the
// System, so recovery itself never re-journals. Called from NewSystem
// before the match pipeline exists: view publishes no-op on nil, and
// the pipeline is built afterwards for the final recovered topology.
func (s *System) recoverFromJournal(dir string, opts journal.Options) (err error) {
	jw, jerr := journal.Open(dir, opts)
	if jerr != nil {
		return jerr
	}
	defer func() {
		if err != nil {
			jw.Close()
		}
	}()
	start := time.Now()
	snap, recs := jw.Recovered()
	s.recovering = true
	if snap != nil {
		if err := s.installSnapshot(snap); err != nil {
			return err
		}
	}
	for i := range recs {
		if err := s.commit(recs[i]); err != nil {
			return fmt.Errorf("mapa: journal replay: record %d (seq %d, %s): %w",
				i, recs[i].Seq, recs[i].Kind, err)
		}
	}
	s.recovering = false
	// Repartition replay defers scorer retraining (there is no pipeline
	// to serve yet); if the recovered machine is virtual, retrain once.
	if s.baseTop != nil {
		s.scorer = score.NewScorer(effbw.TrainedFor(s.top))
		policy.SetScorer(s.alloc, s.scorer)
	}
	s.jw = jw
	var snapLSN uint64
	if snap != nil {
		snapLSN = snap.LSN
	}
	s.recovery = RecoveryStats{
		Enabled:     true,
		SnapshotLSN: snapLSN,
		Records:     len(recs),
		Leases:      len(s.leases),
		ReplayTime:  time.Since(start),
	}
	return nil
}

// installSnapshot loads a snapshot into a fresh System: base-machine
// link degradations, the recomposed virtual machine (when
// repartitioned) and post-compose link degradations are restored
// directly; leases and health marks are committed through the same
// check + apply as live allocations and health events. A snapshot that
// does not fit the machine is corruption.
func (s *System) installSnapshot(snap *journal.Snapshot) error {
	if snap.Topology != s.catalogName {
		return fmt.Errorf("mapa: journal snapshot is for topology %q, System built for %q", snap.Topology, s.catalogName)
	}
	if snap.Policy != s.alloc.Name() {
		return fmt.Errorf("mapa: journal snapshot is for policy %q, System built for %q", snap.Policy, s.alloc.Name())
	}
	if len(snap.Instances) > 0 {
		// Compose from the pristine-weight base: mig.Compose validates
		// link weights against canonical labels, so degraded links — on
		// the base or the virtual machine — are reapplied as weight
		// diffs after composition, never fed through it.
		rc := &recut{base: s.top, instances: make(map[int][]int, len(snap.Instances)), nextVID: snap.NextVID}
		for _, is := range snap.Instances {
			rc.instances[is.GPU] = is.VIDs
		}
		vt, err := mig.Compose(rc.base, rc.instances)
		if err != nil {
			return fmt.Errorf("mapa: journal snapshot: recomposing instances: %w", err)
		}
		rc.vt = vt
		if err := applyLinks(snap.BaseLinks, rc.base.Graph); err != nil {
			return err
		}
		if err := applyLinks(snap.BasePhysLinks, rc.base.Physical); err != nil {
			return err
		}
		s.installRecut(rc)
	}
	if err := applyLinks(snap.Links, s.top.Graph); err != nil {
		return err
	}
	if err := applyLinks(snap.PhysLinks, s.top.Physical); err != nil {
		return err
	}
	score.InvalidateMixes(s.top)
	if snap.NextID < 0 {
		return fmt.Errorf("mapa: journal snapshot: negative next_id %d", snap.NextID)
	}
	// Leases keep their IDs, ascending within 1..NextID: each commits as
	// the allocation that would have been granted next.
	prev := 0
	for _, ls := range snap.Leases {
		if ls.ID <= prev || ls.ID > snap.NextID {
			return fmt.Errorf("mapa: journal snapshot: lease ID %d repeated, out of order or outside 1..%d", ls.ID, snap.NextID)
		}
		prev, s.nextID = ls.ID, ls.ID-1
		if err := s.commit(journal.Record{
			Kind: journal.KindAllocate, ID: ls.ID, NumGPUs: len(ls.GPUs),
			Owner: ls.Owner, Deadline: ls.Deadline, GPUs: ls.GPUs,
		}); err != nil {
			return fmt.Errorf("mapa: journal snapshot: %w", err)
		}
	}
	s.nextID = snap.NextID
	if len(snap.Unhealthy) > 0 {
		if err := s.commit(journal.Record{Kind: journal.KindMark, GPUs: snap.Unhealthy}); err != nil {
			return fmt.Errorf("mapa: journal snapshot: %w", err)
		}
	}
	return nil
}

// applyLinks installs recorded link weights onto g. Structure never
// changes — a snapshot link that does not exist in the rebuilt topology
// is corruption.
func applyLinks(links []journal.Link, g *graph.Graph) error {
	for _, l := range links {
		if !setWeight(g, l.U, l.V, l.BW) {
			return fmt.Errorf("mapa: journal snapshot: no link (%d,%d) in topology", l.U, l.V)
		}
	}
	return nil
}

// Snapshot captures the System's full state under the state lock and
// writes it to the journal, which compacts: the wal is truncated once
// the snapshot is durable, so recovery replays only records appended
// after this call. Mutations block for the duration (small-state JSON
// plus two fsyncs — milliseconds); call it periodically, not per
// operation. Errors if the System has no journal.
func (s *System) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil {
		return fmt.Errorf("mapa: system has no journal")
	}
	snap, err := s.captureSnapshotLocked()
	if err != nil {
		return err
	}
	snap.LSN = s.jw.LastSeq()
	return s.jw.WriteSnapshot(snap)
}

// Close writes a final snapshot (when journaling) and closes the
// journal; the SIGTERM drain path calls it after in-flight requests
// finish. Journaled mutations fail after Close: the closed journal
// stays attached and refuses their appends, so nothing can commit
// unjournaled. A second Close is a no-op.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil || s.closed {
		return nil
	}
	s.closed = true
	snap, err := s.captureSnapshotLocked()
	if err == nil {
		snap.LSN = s.jw.LastSeq()
		err = s.jw.WriteSnapshot(snap)
	}
	if cerr := s.jw.Close(); err == nil {
		err = cerr
	}
	return err
}

// captureSnapshotLocked serializes the current state as a directly
// installable snapshot. Link state is stored as diffs against the
// pristine catalog topology (and, when repartitioned, against a fresh
// re-compose of the recorded instances over the pristine base), so
// snapshots stay small on healthy machines.
func (s *System) captureSnapshotLocked() (*journal.Snapshot, error) {
	pristine, err := topology.ByName(s.catalogName)
	if err != nil {
		return nil, err
	}
	snap := &journal.Snapshot{
		Topology: s.catalogName,
		Policy:   s.alloc.Name(),
		NextID:   s.nextID,
	}
	ids := make([]int, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		snap.Leases = append(snap.Leases, journal.LeaseState{
			ID:       id,
			Owner:    s.owners[id],
			GPUs:     append([]int(nil), s.leases[id]...),
			Deadline: s.expiry[id],
		})
	}
	for g := range s.unhealthy {
		snap.Unhealthy = append(snap.Unhealthy, g)
	}
	sort.Ints(snap.Unhealthy)
	if s.baseTop != nil {
		snap.BaseLinks = diffLinks(s.baseTop.Graph, pristine.Graph)
		snap.BasePhysLinks = diffLinks(s.baseTop.Physical, pristine.Physical)
		phys := make([]int, 0, len(s.instances))
		for g := range s.instances {
			phys = append(phys, g)
		}
		sort.Ints(phys)
		for _, g := range phys {
			snap.Instances = append(snap.Instances, journal.InstanceSet{
				GPU: g, VIDs: append([]int(nil), s.instances[g]...),
			})
		}
		snap.NextVID = s.nextVID
		// Compose from the pristine base, not s.baseTop: Compose
		// validates canonical link weights, and the live base may carry
		// degrades written through from the virtual machine. Every
		// weight deviation of the live virtual topology lands in
		// Links/PhysLinks as a diff against this canonical composition.
		vt, err := mig.Compose(pristine, s.instances)
		if err != nil {
			return nil, fmt.Errorf("mapa: snapshot: recomposing instances: %w", err)
		}
		snap.Links = diffLinks(s.top.Graph, vt.Topology.Graph)
		snap.PhysLinks = diffLinks(s.top.Physical, vt.Topology.Physical)
	} else {
		snap.Links = diffLinks(s.top.Graph, pristine.Graph)
		snap.PhysLinks = diffLinks(s.top.Physical, pristine.Physical)
	}
	return snap, nil
}

// diffLinks returns the edges of cur whose weight differs from ref,
// sorted by endpoints. Only weights can differ: every topology
// mutation preserves link structure.
func diffLinks(cur, ref *graph.Graph) []journal.Link {
	var out []journal.Link
	ref.ForEachEdge(func(e graph.Edge) bool {
		if w := cur.Weight(e.U, e.V); w != e.Weight {
			out = append(out, journal.Link{U: e.U, V: e.V, BW: w})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Renew extends (ttl > 0) or clears (ttl <= 0) a lease's expiry
// deadline, journaling the new deadline so it survives recovery.
// Returns the new deadline in Unix nanoseconds (0 when cleared).
func (s *System) Renew(id int, ttl time.Duration) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dl := deadline(ttl)
	if err := s.commit(journal.Record{Kind: journal.KindRenew, ID: id, Deadline: dl}); err != nil {
		return 0, err
	}
	return dl, nil
}

// ReapExpired releases every lease whose TTL deadline is at or before
// now, journaling each expiration as a release marked Expired — a
// tenant that died mid-lease stops leaking its GPUs once its TTL
// lapses. Returns the reaped lease IDs in ascending order. An error
// (a failed journal append) stops the sweep; already-reaped IDs are
// still returned.
func (s *System) ReapExpired(now time.Time) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := now.UnixNano()
	var due []int
	for id, dl := range s.expiry {
		if dl <= cutoff {
			due = append(due, id)
		}
	}
	sort.Ints(due)
	var reaped []int
	for _, id := range due {
		if err := s.releaseLocked(id, true); err != nil {
			return reaped, err
		}
		reaped = append(reaped, id)
	}
	return reaped, nil
}

// Reaped returns the number of leases released by TTL expiry over the
// System's lifetime (including expirations replayed during recovery).
func (s *System) Reaped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped
}

// LeaseInfo describes one live lease for inspection APIs.
type LeaseInfo struct {
	ID       int
	Owner    string
	GPUs     []int
	Deadline int64 // Unix nanoseconds; 0 = no TTL
}

// Leases returns the live leases in ascending ID order, with copied
// GPU slices.
func (s *System) Leases() []LeaseInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]LeaseInfo, len(ids))
	for i, id := range ids {
		out[i] = LeaseInfo{
			ID:       id,
			Owner:    s.owners[id],
			GPUs:     append([]int(nil), s.leases[id]...),
			Deadline: s.expiry[id],
		}
	}
	return out
}

// LeaseOwners returns a copy of the lease ID -> owner label map
// (labeled leases only); mapad uses it to rebuild per-tenant ownership
// after recovery.
func (s *System) LeaseOwners() map[int]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]string, len(s.owners))
	for id, o := range s.owners {
		out[id] = o
	}
	return out
}
