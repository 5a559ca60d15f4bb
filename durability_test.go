package mapa

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mapa/internal/graph"
	"mapa/internal/journal"
)

// runScriptedWorkload drives one deterministic pass over every
// journaled mutation kind: owned and TTL'd allocations, client
// releases, health mark/restore, link degradation before and after a
// MIG repartition, renewals, and a reaper sweep that expires two
// leases. mid (optional) runs at the point where the machine is fully
// free — the snapshot tests compact there.
func runScriptedWorkload(t *testing.T, s *System, mid func()) {
	t.Helper()
	alloc := func(req JobRequest) *Lease {
		t.Helper()
		l, err := s.Allocate(req)
		if err != nil {
			t.Fatalf("scripted allocate %+v: %v", req, err)
		}
		return l
	}
	release := func(l *Lease) {
		t.Helper()
		if err := s.Release(l); err != nil {
			t.Fatalf("scripted release %d: %v", l.ID, err)
		}
	}

	s.mu.Lock()
	origBW := s.top.Graph.Weight(0, 1)
	s.mu.Unlock()

	l1 := alloc(JobRequest{NumGPUs: 2, Owner: "tenant-a", TTL: time.Hour})
	l2 := alloc(JobRequest{NumGPUs: 3, Owner: "tenant-b"})
	l3 := alloc(JobRequest{NumGPUs: 2, Sensitive: true, TTL: 30 * time.Minute})
	release(l2)
	marked := s.FreeGPUs()[0]
	if err := s.MarkUnhealthy(marked); err != nil {
		t.Fatalf("scripted mark %d: %v", marked, err)
	}
	l4 := alloc(JobRequest{NumGPUs: 2, Owner: "tenant-a"})
	if err := s.DegradeLink(0, 1, 40); err != nil {
		t.Fatalf("scripted degrade (0,1): %v", err)
	}
	if err := s.Restore(marked); err != nil {
		t.Fatalf("scripted restore %d: %v", marked, err)
	}
	if _, err := s.Renew(l1.ID, 2*time.Hour); err != nil {
		t.Fatalf("scripted renew %d: %v", l1.ID, err)
	}
	release(l1)
	release(l3)
	release(l4)
	// Repartition recomposes the machine and validates canonical link
	// weights, so the operator must repair the port first.
	if err := s.DegradeLink(0, 1, origBW); err != nil {
		t.Fatalf("scripted link repair (0,1): %v", err)
	}
	if mid != nil {
		mid()
	}
	if err := s.Repartition(map[int]int{0: 2, 5: 3}); err != nil {
		t.Fatalf("scripted repartition: %v", err)
	}
	l5 := alloc(JobRequest{NumGPUs: 2, Owner: "tenant-c", TTL: time.Hour})
	l6 := alloc(JobRequest{NumGPUs: 3})
	if _, err := s.Renew(l6.ID, time.Hour); err != nil {
		t.Fatalf("scripted renew %d: %v", l6.ID, err)
	}
	reaped, err := s.ReapExpired(time.Now().Add(3 * time.Hour))
	if err != nil {
		t.Fatalf("scripted reap: %v", err)
	}
	if want := []int{l5.ID, l6.ID}; !reflect.DeepEqual(reaped, want) {
		t.Fatalf("scripted reap = %v, want %v", reaped, want)
	}
	alloc(JobRequest{NumGPUs: 2, Owner: "tenant-d"})
	free := s.FreeGPUs()
	if err := s.DegradeLink(free[0], free[1], 30); err != nil {
		t.Fatalf("scripted degrade (%d,%d): %v", free[0], free[1], err)
	}
}

// applyCommitOps advances a journal-less oracle System through a
// prefix of the observed linearization. Allocations re-run the real
// policy decision and must reproduce the committed lease exactly; the
// wall-clock TTL deadline is installed from the recorded op, matching
// what recovery installs from the journal.
func applyCommitOps(t *testing.T, r *System, ops []commitOp) {
	t.Helper()
	for i, op := range ops {
		switch op.kind {
		case opAllocate:
			l, err := r.Allocate(op.req)
			if err != nil {
				t.Fatalf("oracle op %d: allocate %+v: %v", i, op.req, err)
			}
			if l.ID != op.id || !reflect.DeepEqual(l.GPUs, op.gpus) {
				t.Fatalf("oracle op %d: got lease %d %v, observed %d %v", i, l.ID, l.GPUs, op.id, op.gpus)
			}
			r.mu.Lock()
			if op.deadline != 0 {
				r.expiry[l.ID] = op.deadline
			} else {
				delete(r.expiry, l.ID)
			}
			r.mu.Unlock()
		case opRelease:
			r.mu.Lock()
			err := r.releaseLocked(op.id, op.expired)
			r.mu.Unlock()
			if err != nil {
				t.Fatalf("oracle op %d: release %d: %v", i, op.id, err)
			}
		case opMark:
			if err := r.MarkUnhealthy(op.gpus...); err != nil {
				t.Fatalf("oracle op %d: mark %v: %v", i, op.gpus, err)
			}
		case opRestore:
			if err := r.Restore(op.gpus...); err != nil {
				t.Fatalf("oracle op %d: restore %v: %v", i, op.gpus, err)
			}
		case opDegrade:
			if err := r.DegradeLink(op.u, op.v, op.bw); err != nil {
				t.Fatalf("oracle op %d: degrade (%d,%d): %v", i, op.u, op.v, err)
			}
		case opRepartition:
			m := make(map[int]int, len(op.slices))
			for _, sl := range op.slices {
				m[sl.GPU] = sl.Instances
			}
			if err := r.Repartition(m); err != nil {
				t.Fatalf("oracle op %d: repartition %v: %v", i, m, err)
			}
		case opRenew:
			r.mu.Lock()
			err := r.renewLocked(op.id, op.deadline)
			r.mu.Unlock()
			if err != nil {
				t.Fatalf("oracle op %d: renew %d: %v", i, op.id, err)
			}
		default:
			t.Fatalf("oracle op %d: unknown kind %q", i, op.kind)
		}
	}
}

func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// assertSystemsEqual is the field-exact bar of the crashpoint sweep:
// leases (IDs, GPU sets, owners, TTL deadlines), the usable mask, the
// unhealthy set, the repartition map, every link weight of the serving
// and physical graphs, and the ID counters.
func assertSystemsEqual(t *testing.T, label string, got, want *System) {
	t.Helper()
	got.mu.Lock()
	defer got.mu.Unlock()
	want.mu.Lock()
	defer want.mu.Unlock()
	check := func(field string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s diverges:\n got  %v\n want %v", label, field, g, w)
		}
	}
	check("leases", got.leases, want.leases)
	check("leasedBy", got.leasedBy, want.leasedBy)
	check("owners", got.owners, want.owners)
	check("expiry", got.expiry, want.expiry)
	check("unhealthy", got.unhealthy, want.unhealthy)
	check("usable", got.usable, want.usable)
	check("nextID", got.nextID, want.nextID)
	check("instances", got.instances, want.instances)
	check("physOf", got.physOf, want.physOf)
	check("fractions", got.fractions, want.fractions)
	check("nextVID", got.nextVID, want.nextVID)
	check("graph edges", sortedEdges(got.top.Graph), sortedEdges(want.top.Graph))
	check("physical edges", sortedEdges(got.top.Physical), sortedEdges(want.top.Physical))
}

// recoverAt builds a System from a journal directory and returns it
// with its journal closed (the sweep only inspects recovered state).
func recoverAt(t *testing.T, label, dir string) *System {
	t.Helper()
	rec, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	rec.mu.Lock()
	rec.jw.Close()
	rec.jw = nil
	rec.mu.Unlock()
	return rec
}

// TestCrashpointSweepJournalPrefixes is the crash-fault injection
// harness: after a scripted run touching every mutation kind, recovery
// from every journal prefix — every "the process died exactly here"
// point — must reconstruct state field-identical to the serialized
// replay oracle advanced through the same number of committed ops.
func TestCrashpointSweepJournalPrefixes(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var log []commitOp
	s.onCommit = func(op commitOp) { log = append(log, op) }
	runScriptedWorkload(t, s, nil)

	walPath := filepath.Join(dir, "wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ends, torn, err := journal.ScanFile(walPath)
	if err != nil || torn {
		t.Fatalf("ScanFile: torn=%v err=%v", torn, err)
	}
	if len(ends) != len(log) {
		t.Fatalf("journal has %d records, linearization has %d ops — must be 1:1", len(ends), len(log))
	}

	for cut := 0; cut <= len(log); cut++ {
		sub := t.TempDir()
		var prefix []byte
		if cut > 0 {
			prefix = data[:ends[cut-1]]
		}
		if err := os.WriteFile(filepath.Join(sub, "wal"), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("prefix %d/%d", cut, len(log))
		rec := recoverAt(t, label, sub)
		if got := rec.Recovery().Records; got != cut {
			t.Errorf("%s: replayed %d records", label, got)
		}
		oracle, err := NewSystem("dgx-a100", "preserve")
		if err != nil {
			t.Fatal(err)
		}
		applyCommitOps(t, oracle, log[:cut])
		assertSystemsEqual(t, label, rec, oracle)
		if t.Failed() {
			t.FailNow()
		}
	}

	// Torn tails: a crash mid-append leaves a partial frame after a
	// record boundary; recovery must land exactly on the boundary.
	for _, k := range []int{0, len(log) / 2, len(log) - 2} {
		cutAt := ends[k] + 5
		if cutAt >= int64(len(data)) {
			continue
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal"), data[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("torn tail after record %d", k+1)
		rec := recoverAt(t, label, sub)
		oracle, err := NewSystem("dgx-a100", "preserve")
		if err != nil {
			t.Fatal(err)
		}
		applyCommitOps(t, oracle, log[:k+1])
		assertSystemsEqual(t, label, rec, oracle)
	}
}

// TestCrashpointSweepWithSnapshot reruns the sweep across a compaction
// boundary: the journal snapshots mid-run (truncating the wal), so
// every later crash point recovers as snapshot + partial journal.
func TestCrashpointSweepWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var log []commitOp
	snapCount := -1
	s.onCommit = func(op commitOp) { log = append(log, op) }
	runScriptedWorkload(t, s, func() {
		if err := s.Snapshot(); err != nil {
			t.Fatalf("mid-run snapshot: %v", err)
		}
		snapCount = len(log)
	})
	if snapCount < 0 {
		t.Fatal("snapshot hook never ran")
	}

	snapData, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ends, torn, err := journal.ScanFile(walPath)
	if err != nil || torn {
		t.Fatalf("ScanFile: torn=%v err=%v", torn, err)
	}
	if len(ends) != len(log)-snapCount {
		t.Fatalf("post-snapshot wal has %d records, want %d", len(ends), len(log)-snapCount)
	}

	for j := 0; j <= len(ends); j++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "snapshot"), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		var prefix []byte
		if j > 0 {
			prefix = data[:ends[j-1]]
		}
		if err := os.WriteFile(filepath.Join(sub, "wal"), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("snapshot + %d records", j)
		rec := recoverAt(t, label, sub)
		if st := rec.Recovery(); st.SnapshotLSN != uint64(snapCount) || st.Records != j {
			t.Errorf("%s: recovery stats %+v, want snapshot LSN %d + %d records", label, st, snapCount, j)
		}
		oracle, err := NewSystem("dgx-a100", "preserve")
		if err != nil {
			t.Fatal(err)
		}
		applyCommitOps(t, oracle, log[:snapCount+j])
		assertSystemsEqual(t, label, rec, oracle)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestCloseWritesFinalSnapshot pins the drain contract: after Close,
// reopening recovers the whole state from the snapshot alone, with
// zero records to replay.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	runScriptedWorkload(t, s, nil)
	wantLeases := s.Leases()
	wantFree := s.FreeGPUs()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st := r.Recovery()
	if st.Records != 0 {
		t.Errorf("recovered with %d journal records, want all state from the final snapshot", st.Records)
	}
	if !reflect.DeepEqual(r.Leases(), wantLeases) {
		t.Errorf("leases after reopen:\n got  %+v\n want %+v", r.Leases(), wantLeases)
	}
	if !reflect.DeepEqual(r.FreeGPUs(), wantFree) {
		t.Errorf("free set after reopen: %v, want %v", r.FreeGPUs(), wantFree)
	}
}

// TestExpiredLeasesReapedAfterRecovery: a lease whose TTL lapsed while
// the daemon was down is still held right after recovery (recovery
// replays history, it does not invent releases) and is then reaped —
// journaled as an expired release that survives the next crash.
func TestExpiredLeasesReapedAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	short, err := s.Allocate(JobRequest{NumGPUs: 2, Owner: "tenant-a", TTL: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	durable, err := s.Allocate(JobRequest{NumGPUs: 3, Owner: "tenant-b"})
	if err != nil {
		t.Fatal(err)
	}
	// Crash without snapshot or clean close.
	s.mu.Lock()
	s.jw.Close()
	s.jw = nil
	s.mu.Unlock()

	r, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Leases()); got != 2 {
		t.Fatalf("recovered %d leases, want 2 (expiry is the reaper's call, not recovery's)", got)
	}
	reaped, err := r.ReapExpired(time.Now().Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reaped, []int{short.ID}) {
		t.Fatalf("reaped %v, want [%d]", reaped, short.ID)
	}
	if got := r.Reaped(); got != 1 {
		t.Errorf("Reaped() = %d, want 1", got)
	}
	r.mu.Lock()
	r.jw.Close()
	r.jw = nil
	r.mu.Unlock()

	// The expiration was journaled: a third incarnation sees only the
	// durable lease, and remembers the reap.
	r2, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	leases := r2.Leases()
	if len(leases) != 1 || leases[0].ID != durable.ID || leases[0].Owner != "tenant-b" {
		t.Fatalf("leases after reap + crash = %+v, want only lease %d", leases, durable.ID)
	}
	if got := r2.Reaped(); got != 1 {
		t.Errorf("replayed Reaped() = %d, want 1", got)
	}
}

// TestReplayRejectsDuplicateAllocate: a journal carrying the same
// lease ID twice (contiguous sequence numbers, so framing is clean)
// must fail recovery loudly, not double-apply.
func TestReplayRejectsDuplicateAllocate(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec := journal.Record{Kind: journal.KindAllocate, ID: 1, NumGPUs: 2, GPUs: []int{0, 1}}
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, err = NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("NewSystem = %v, want duplicate-allocate replay error", err)
	}
}

// TestReplayRejectsConflictingAllocate: a journaled allocation naming
// GPUs that are not free at that point in the replay is corruption.
func TestReplayRejectsConflictingAllocate(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := journal.Record{Kind: journal.KindAllocate, ID: 1, NumGPUs: 2, GPUs: []int{0, 1}}
	r2 := journal.Record{Kind: journal.KindAllocate, ID: 2, NumGPUs: 2, GPUs: []int{1, 2}}
	for _, rec := range []*journal.Record{&r1, &r2} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, err = NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err == nil || !strings.Contains(err.Error(), "not free") {
		t.Fatalf("NewSystem = %v, want conflicting-allocate replay error", err)
	}
}

// TestJournaledHammerMatchesOracle folds journaling into the PR 8
// concurrent hammer: after racy mixed traffic on a journaled System, a
// crash-recovery lands field-identical to the serialized-replay oracle
// at the full linearization.
func TestJournaledHammerMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4),
		WithJournal(dir, journal.Options{Fsync: journal.FsyncInterval}))
	if err != nil {
		t.Fatal(err)
	}
	var log []commitOp
	s.onCommit = func(op commitOp) { log = append(log, op) }

	done := make(chan struct{})
	for w := 0; w < 6; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			var held []*Lease
			for i := 0; i < 25; i++ {
				if len(held) > 2 || (len(held) > 0 && (i+w)%3 == 0) {
					l := held[0]
					held = held[1:]
					if err := s.Release(l); err != nil {
						t.Errorf("worker %d: release: %v", w, err)
					}
					continue
				}
				req := JobRequest{NumGPUs: 2 + (i+w)%2, Owner: fmt.Sprintf("w%d", w)}
				if (i+w)%4 == 0 {
					req.TTL = time.Hour
				}
				l, err := s.Allocate(req)
				if err == nil {
					held = append(held, l)
				}
			}
			for _, l := range held {
				if err := s.Release(l); err != nil {
					t.Errorf("worker %d: drain release: %v", w, err)
				}
			}
		}(w)
	}
	for w := 0; w < 6; w++ {
		<-done
	}
	s.mu.Lock()
	s.jw.Close() // crash: no snapshot
	s.jw = nil
	s.mu.Unlock()

	rec := recoverAt(t, "hammer recovery", dir)
	oracle, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	applyCommitOps(t, oracle, log)
	assertSystemsEqual(t, "hammer recovery", rec, oracle)
}
