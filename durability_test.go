package mapa

import (
	"fmt"
	"math"
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

// applyRecords advances a journal-less oracle System through a prefix
// of the observed linearization. Allocations re-run the real policy
// decision and must reproduce the committed lease exactly; the
// wall-clock TTL deadline is installed from the recorded op, matching
// what recovery installs from the journal.
func applyRecords(t *testing.T, r *System, recs []journal.Record) {
	t.Helper()
	for i, rec := range recs {
		switch rec.Kind {
		case journal.KindAllocate:
			req := JobRequest{NumGPUs: rec.NumGPUs, Shape: rec.Shape, Sensitive: rec.Sensitive, Owner: rec.Owner}
			l, err := r.Allocate(req)
			if err != nil {
				t.Fatalf("oracle op %d: allocate %+v: %v", i, req, err)
			}
			if l.ID != rec.ID || !reflect.DeepEqual(l.GPUs, rec.GPUs) {
				t.Fatalf("oracle op %d: got lease %d %v, observed %d %v", i, l.ID, l.GPUs, rec.ID, rec.GPUs)
			}
			r.mu.Lock()
			if rec.Deadline != 0 {
				r.expiry[l.ID] = rec.Deadline
			} else {
				delete(r.expiry, l.ID)
			}
			r.mu.Unlock()
		case journal.KindRelease:
			r.mu.Lock()
			err := r.releaseLocked(rec.ID, rec.Expired)
			r.mu.Unlock()
			if err != nil {
				t.Fatalf("oracle op %d: release %d: %v", i, rec.ID, err)
			}
		case journal.KindMark:
			if err := r.MarkUnhealthy(rec.GPUs...); err != nil {
				t.Fatalf("oracle op %d: mark %v: %v", i, rec.GPUs, err)
			}
		case journal.KindRestore:
			if err := r.Restore(rec.GPUs...); err != nil {
				t.Fatalf("oracle op %d: restore %v: %v", i, rec.GPUs, err)
			}
		case journal.KindDegrade:
			if err := r.DegradeLink(rec.U, rec.V, rec.BW); err != nil {
				t.Fatalf("oracle op %d: degrade (%d,%d): %v", i, rec.U, rec.V, err)
			}
		case journal.KindRepartition:
			m := make(map[int]int, len(rec.Slices))
			for _, sl := range rec.Slices {
				m[sl.GPU] = sl.Instances
			}
			if err := r.Repartition(m); err != nil {
				t.Fatalf("oracle op %d: repartition %v: %v", i, m, err)
			}
		case journal.KindRenew:
			r.mu.Lock()
			err := r.commit(journal.Record{Kind: journal.KindRenew, ID: rec.ID, Deadline: rec.Deadline})
			r.mu.Unlock()
			if err != nil {
				t.Fatalf("oracle op %d: renew %d: %v", i, rec.ID, err)
			}
		default:
			t.Fatalf("oracle op %d: unknown kind %v", i, rec.Kind)
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
	var log []journal.Record
	s.onCommit = func(rec *journal.Record) { log = append(log, *rec) }
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
		applyRecords(t, oracle, log[:cut])
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
		applyRecords(t, oracle, log[:k+1])
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
	var log []journal.Record
	snapCount := -1
	s.onCommit = func(rec *journal.Record) { log = append(log, *rec) }
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
		applyRecords(t, oracle, log[:snapCount+j])
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

// recoverJournal writes snap (when non-nil), then recs, into a fresh
// journal directory and returns the error of recovering a System from
// it.
func recoverJournal(t *testing.T, snap *journal.Snapshot, recs ...journal.Record) error {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := j.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		if err := j.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
	if err == nil {
		s.Close()
	}
	return err
}

// TestReplayRejectsMismatchedRecords: a release must name exactly the
// GPUs its lease holds, and an allocation must hold as many GPUs as it
// requested — the live path writes nothing else, so anything else is
// corruption.
func TestReplayRejectsMismatchedRecords(t *testing.T) {
	alloc01 := journal.Record{Kind: journal.KindAllocate, ID: 1, NumGPUs: 2, GPUs: []int{0, 1}}
	for _, tc := range []struct {
		name string
		recs []journal.Record
		want string
	}{
		{"release names other GPUs", []journal.Record{alloc01,
			{Kind: journal.KindRelease, ID: 1, GPUs: []int{5, 6, 7}}}, "the lease holds"},
		{"allocate holds fewer GPUs than requested", []journal.Record{
			{Kind: journal.KindAllocate, ID: 1, NumGPUs: 3, GPUs: []int{4}}}, "requests 3 GPUs"},
	} {
		if err := recoverJournal(t, nil, tc.recs...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSystem = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReplayRejectsRepeatedGPU: a lease listing one GPU twice, in a
// journaled allocation or in a snapshot, fails recovery instead of
// recovering a lease whose release would corrupt the views.
func TestReplayRejectsRepeatedGPU(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *journal.Snapshot
		recs []journal.Record
	}{
		{"wal", nil, []journal.Record{{Kind: journal.KindAllocate, ID: 1, NumGPUs: 2, GPUs: []int{0, 0}}}},
		{"snapshot", &journal.Snapshot{Topology: "dgx-a100", Policy: "preserve", NextID: 1,
			Leases: []journal.LeaseState{{ID: 1, GPUs: []int{2, 2}}}}, nil},
	} {
		if err := recoverJournal(t, tc.snap, tc.recs...); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("%s: NewSystem = %v, want a repeated-GPU error", tc.name, err)
		}
	}
}

// fuzzRecords turns fuzz bytes into up to 16 well-formed journal records
// of every kind. Each field is drawn from a small table that mixes valid
// values with hostile ones: repeated, negative and out-of-machine GPUs,
// NaN, infinite, negative and fractional bandwidths, unknown lease IDs
// and out-of-range slice counts. Missing bytes read as zero.
func fuzzRecords(data []byte) []journal.Record {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	gpu := func() int {
		switch b := next() % 18; b {
		case 16:
			return -1
		case 17:
			return 1 << 40
		default:
			return b // 0..15: the 8 GPUs, fresh virtual IDs, or none
		}
	}
	list := func() []int {
		var out []int
		for n := next() % 5; n > 0; n-- {
			out = append(out, gpu())
		}
		return out
	}
	bws := []float64{0, 25, 50, 100, 300, 12.5, math.NaN(), math.Inf(1), math.Inf(-1), -3}
	counts := []int{0, 1, 2, 3, 7, 8, -1}
	var recs []journal.Record
	for len(data) > 0 && len(recs) < 16 {
		rec := journal.Record{Kind: journal.Kind(next()%7 + 1)}
		switch rec.Kind {
		case journal.KindAllocate:
			rec.ID, rec.NumGPUs, rec.GPUs = next()%5, next()%6, list()
			rec.Deadline = int64(next())
			if next()%2 == 1 {
				rec.Owner = "tenant"
			}
		case journal.KindRelease:
			rec.ID, rec.Expired, rec.GPUs = next()%5, next()%2 == 1, list()
		case journal.KindMark, journal.KindRestore:
			rec.GPUs = list()
		case journal.KindDegrade:
			rec.U, rec.V, rec.BW = gpu(), gpu(), bws[next()%len(bws)]
		case journal.KindRepartition:
			for n := next() % 3; n > 0; n-- {
				rec.Slices = append(rec.Slices, journal.Slice{GPU: gpu(), Instances: counts[next()%len(counts)]})
			}
		case journal.KindRenew:
			rec.ID, rec.Deadline = next()%5, int64(next())
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzReplayRecords recovers a dgx-a100 System from fuzz-chosen record
// sequences (see fuzzRecords). Recovery must either fail or yield a
// System whose availability invariant holds, whose every lease releases
// and whose every unhealthy GPU restores — after which the machine is
// whole again.
func FuzzReplayRecords(f *testing.F) {
	// Record layouts, one byte per field (see fuzzRecords): allocate =
	// 0 id num len gpus... deadline owner; release = 1 id expired len
	// gpus...; mark = 2 len gpus...; restore = 3 len gpus...; degrade =
	// 4 u v bw; repartition = 5 n (gpu count)...; renew = 6 id deadline.
	f.Add([]byte{0, 1, 2, 2, 0, 0, 0, 0})                                                                       // a lease listing GPU 0 twice
	f.Add([]byte{0, 1, 2, 2, 2, 2, 0, 0})                                                                       // a lease listing GPU 2 twice
	f.Add([]byte{0, 1, 2, 2, 0, 1, 0, 0, 1, 1, 0, 3, 5, 6, 7})                                                  // a release naming GPUs its lease does not hold
	f.Add([]byte{0, 1, 3, 1, 4, 0, 0})                                                                          // an allocation holding fewer GPUs than requested
	f.Add([]byte{0, 1, 2, 2, 0, 1, 9, 1, 2, 1, 5, 5, 1, 6, 2, 4, 2, 3, 1, 6, 1, 50, 1, 1, 0, 2, 0, 1, 3, 1, 5}) // every kind, valid
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs := fuzzRecords(data)
		for i := range recs {
			if err := j.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		s, err := NewSystem("dgx-a100", "preserve", WithJournal(dir, journal.Options{}))
		if err != nil {
			return
		}
		defer s.Close()
		checkAvailInvariant(t, s, "recovered")
		for _, l := range s.Leases() {
			if err := s.Release(&Lease{ID: l.ID}); err != nil {
				t.Fatalf("releasing recovered lease %d %v: %v", l.ID, l.GPUs, err)
			}
		}
		if un := s.UnhealthyGPUs(); len(un) > 0 {
			if err := s.Restore(un...); err != nil {
				t.Fatalf("restoring recovered unhealthy GPUs %v: %v", un, err)
			}
		}
		checkAvailInvariant(t, s, "drained")
		if free, all := len(s.FreeGPUs()), s.NumGPUs(); free != all {
			t.Fatalf("drained machine has %d of %d GPUs free", free, all)
		}
	})
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
	var log []journal.Record
	s.onCommit = func(rec *journal.Record) { log = append(log, *rec) }

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
	applyRecords(t, oracle, log)
	assertSystemsEqual(t, "hammer recovery", rec, oracle)
}
