package mapa

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mapa/internal/appgraph"
	"mapa/internal/journal"
	"mapa/internal/policy"
)

// TestReleaseDuringColdBuild pins the lock-scope fix: a Release (and a
// warmed Allocate) must complete while a cold shape's universe build is
// in flight. The prewarmGate hook stands in for the build — it runs at
// the exact point of Allocate's unlocked prewarm phase, so if any
// future refactor moves that phase back under the state lock, the gated
// goroutine will hold the lock and the Release below will time out.
func TestReleaseDuringColdBuild(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	s.prewarmGate = func(numGPUs int) {
		if numGPUs == 6 { // gate only the cold request
			once.Do(func() { close(entered) })
			<-unblock
		}
	}

	warm, err := s.Allocate(JobRequest{NumGPUs: 2})
	if err != nil {
		t.Fatal(err)
	}

	coldDone := make(chan *Lease, 1)
	go func() {
		l, err := s.Allocate(JobRequest{NumGPUs: 6})
		if err != nil {
			t.Errorf("cold allocate: %v", err)
		}
		coldDone <- l
	}()
	<-entered // the cold build is now in flight, outside the lock

	released := make(chan error, 1)
	go func() { released <- s.Release(warm) }()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("release during cold build: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Release blocked behind an in-flight cold build")
	}

	// A warmed allocation must get through too, leaving exactly 6 free
	// for the gated request.
	warm2, err := s.Allocate(JobRequest{NumGPUs: 2})
	if err != nil {
		t.Fatalf("warmed allocate during cold build: %v", err)
	}
	close(unblock)
	cold := <-coldDone
	if cold == nil || len(cold.GPUs) != 6 {
		t.Fatalf("cold lease = %+v, want 6 GPUs", cold)
	}
	if err := s.Release(cold); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(warm2); err != nil {
		t.Fatal(err)
	}
	if n := s.ActiveLeases(); n != 0 {
		t.Fatalf("active leases = %d, want 0", n)
	}
}

// TestTableServedDecisionsDuringColdBuild checks the other half of the
// lock-scope contract: warmed-shape decisions keep getting served off
// the precomputed tables while a cold build is gated in flight.
func TestTableServedDecisionsDuringColdBuild(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	s.prewarmGate = func(numGPUs int) {
		if numGPUs == 5 {
			once.Do(func() { close(entered) })
			<-unblock
		}
	}
	coldDone := make(chan struct{})
	go func() {
		defer close(coldDone)
		if _, err := s.Allocate(JobRequest{NumGPUs: 5}); err != nil {
			t.Errorf("cold allocate: %v", err)
		}
	}()
	<-entered

	before := s.CacheStats().TableServed
	for i := 0; i < 8; i++ {
		l, err := s.Allocate(JobRequest{NumGPUs: 3, Sensitive: i%2 == 0})
		if err != nil {
			t.Fatalf("warmed allocate %d during cold build: %v", i, err)
		}
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	after := s.CacheStats().TableServed
	if after <= before {
		t.Fatalf("TableServed did not grow during cold build: %d -> %d", before, after)
	}
	close(unblock)
	<-coldDone
}

// TestCacheStatsCoversTenantStreams pins that the served-tier counters
// count every decision once, whichever handle made it — the System or
// a tenant.
func TestCacheStatsCoversTenantStreams(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewTenant()
	if err != nil {
		t.Fatal(err)
	}
	decide := []func(JobRequest) (*Lease, error){s.Allocate, a.Allocate, b.Allocate, a.Allocate}
	for i, allocate := range decide {
		l, err := allocate(JobRequest{NumGPUs: 2 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(l); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.CacheStats(); st.TableServed != uint64(len(decide)) || st.ViewRejected != 0 {
		t.Fatalf("served counters = table %d, rejected %d; want %d table-served decisions", st.TableServed, st.ViewRejected, len(decide))
	}
}

// TestLeaseGPUsDoNotAliasInternalRecord pins the aliasing fix: the
// slice returned in Lease.GPUs must not share a backing array with the
// System's internal lease record. A caller scrambling it — sorting,
// truncating, a JSON layer rewriting in place — must not corrupt
// release validation or the restored free set.
func TestLeaseGPUsDoNotAliasInternalRecord(t *testing.T) {
	s, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	before := s.FreeGPUs()

	l, err := s.Allocate(JobRequest{NumGPUs: 3, Sensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	internal := append([]int(nil), s.leases[l.ID]...)

	// Scramble the caller's slice every way a client plausibly would.
	sort.Sort(sort.Reverse(sort.IntSlice(l.GPUs)))
	for i := range l.GPUs {
		l.GPUs[i] = -1000 - i
	}
	if got := s.leases[l.ID]; !reflect.DeepEqual(got, internal) {
		t.Fatalf("internal lease record changed with the caller's slice: %v, want %v", got, internal)
	}

	if err := s.Release(l); err != nil {
		t.Fatalf("release after caller mutated Lease.GPUs: %v", err)
	}
	after := s.FreeGPUs()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("free set after release = %v, want %v", after, before)
	}
}

// randomRequests draws allocate requests of 2..maxSize GPUs in the
// default shape, half of them bandwidth-sensitive.
func randomRequests(maxSize int) func(*rand.Rand) JobRequest {
	return func(rng *rand.Rand) JobRequest {
		return JobRequest{NumGPUs: 2 + rng.Intn(maxSize-1), Sensitive: rng.Intn(2) == 0}
	}
}

// hammerSystem runs goroutines×opsEach of mixed Allocate / Release /
// MarkUnhealthy / Restore traffic — some through tenant handles,
// allocate requests drawn by request — against a System from build
// under the race detector, records the observed linearization via the
// onCommit hook, then replays that linearization into a fresh System
// from build and asserts every decision reproduces byte-identically and
// the final states match field-exactly. All workers start together. It
// returns the hammered System.
func hammerSystem(t *testing.T, build func() (*System, error), tenants, goroutines, opsEach int, request func(*rand.Rand) JobRequest) *System {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var log []journal.Record
	s.onCommit = func(rec *journal.Record) { log = append(log, *rec) } // called under s.mu

	handles := make([]*Tenant, tenants)
	for i := range handles {
		if handles[i], err = s.NewTenant(); err != nil {
			t.Fatal(err)
		}
	}

	numGPUs := s.NumGPUs()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			var held []*Lease
			release := func(i int) {
				l := held[i]
				held = append(held[:i], held[i+1:]...)
				if err := s.Release(l); err != nil {
					t.Errorf("worker %d: release %d: %v", w, l.ID, err)
				}
			}
			for i := 0; i < opsEach; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // allocate, sometimes via a tenant handle
					req := request(rng)
					var l *Lease
					var err error
					if tenants > 0 && rng.Intn(2) == 0 {
						l, err = handles[rng.Intn(tenants)].Allocate(req)
					} else {
						l, err = s.Allocate(req)
					}
					switch {
					case err == nil:
						held = append(held, l)
					case errors.Is(err, policy.ErrNoAllocation):
						if len(held) > 0 {
							release(rng.Intn(len(held)))
						}
					default:
						t.Errorf("worker %d: allocate: %v", w, err)
					}
				case op < 8: // release
					if len(held) > 0 {
						release(rng.Intn(len(held)))
					}
				case op < 9: // fault: errors (already-unhealthy, races) are expected
					s.MarkUnhealthy(rng.Intn(numGPUs))
				default: // repair
					s.Restore(rng.Intn(numGPUs))
				}
			}
			for len(held) > 0 {
				release(0)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	// Replay the observed linearization into a fresh System. Decisions
	// are deterministic functions of state, so the replay must
	// reproduce every committed allocation byte-identically...
	r, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range log {
		switch rec.Kind {
		case journal.KindAllocate:
			req := JobRequest{NumGPUs: rec.NumGPUs, Shape: rec.Shape, Sensitive: rec.Sensitive, Owner: rec.Owner}
			l, err := r.Allocate(req)
			if err != nil {
				t.Fatalf("replay op %d: allocate %+v: %v", i, req, err)
			}
			if l.ID != rec.ID || !reflect.DeepEqual(l.GPUs, rec.GPUs) {
				t.Fatalf("replay op %d: got lease %d %v, observed %d %v", i, l.ID, l.GPUs, rec.ID, rec.GPUs)
			}
		case journal.KindRelease:
			if err := r.Release(&Lease{ID: rec.ID}); err != nil {
				t.Fatalf("replay op %d: release %d: %v", i, rec.ID, err)
			}
		case journal.KindMark:
			if err := r.MarkUnhealthy(rec.GPUs...); err != nil {
				t.Fatalf("replay op %d: mark %v: %v", i, rec.GPUs, err)
			}
		case journal.KindRestore:
			if err := r.Restore(rec.GPUs...); err != nil {
				t.Fatalf("replay op %d: restore %v: %v", i, rec.GPUs, err)
			}
		default:
			t.Fatalf("replay op %d: unknown kind %v", i, rec.Kind)
		}
	}

	// ...and leave the replayed System field-exactly equal to the
	// hammered one.
	s.mu.Lock()
	r.mu.Lock()
	if !reflect.DeepEqual(s.leases, r.leases) {
		t.Errorf("leases diverge: %v vs %v", s.leases, r.leases)
	}
	if !reflect.DeepEqual(s.leasedBy, r.leasedBy) {
		t.Errorf("leasedBy diverges: %v vs %v", s.leasedBy, r.leasedBy)
	}
	if !reflect.DeepEqual(s.unhealthy, r.unhealthy) {
		t.Errorf("unhealthy sets diverge: %v vs %v", s.unhealthy, r.unhealthy)
	}
	if !s.usable.Equal(r.usable) {
		t.Errorf("free sets diverge: %v vs %v", s.usable.Members(), r.usable.Members())
	}
	if s.nextID != r.nextID {
		t.Errorf("nextID diverges: %d vs %d", s.nextID, r.nextID)
	}
	r.mu.Unlock()
	s.mu.Unlock()
	checkAvailInvariant(t, s, "hammered")
	checkAvailInvariant(t, r, "replayed")

	if t.Failed() {
		t.Logf("linearization had %d committed ops", len(log))
	}
	return s
}

// TestConcurrentHammerDGXA100 is the single-server hammer: heavy mixed
// churn on the 8-GPU NVSwitch machine, verified against the serialized
// replay oracle.
func TestConcurrentHammerDGXA100(t *testing.T) {
	ops := 60
	if testing.Short() {
		ops = 15
	}
	hammerSystem(t, func() (*System, error) {
		return NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	}, 3, 8, ops, randomRequests(4))
}

// TestConcurrentHammerClusterA100 runs the same oracle on the 72-GPU
// multi-node machine — fewer ops (universes are bigger) but the same
// field-exact bar.
func TestConcurrentHammerClusterA100(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	hammerSystem(t, func() (*System, error) {
		return NewSystem("cluster-a100", "preserve", WithWarmShapes(3))
	}, 2, 6, 12, randomRequests(3))
}

// TestConcurrentHammerFleet runs the same oracle on a 2-node DGX-A100
// fleet System: hierarchical template decisions on the System's fleet
// stream, through the System and tenant handles, the flat fallback when
// no node can host a request (up to 5 GPUs on 8-GPU nodes), and health
// churn — one lease table, replayed byte-identically.
func TestConcurrentHammerFleet(t *testing.T) {
	ops := 40
	if testing.Short() {
		ops = 12
	}
	for _, pol := range []string{"greedy", "preserve"} {
		t.Run(pol, func(t *testing.T) {
			s := hammerSystem(t, func() (*System, error) {
				return NewFleetSystem("dgx-a100", 2, pol, WithWarmShapes(4))
			}, 2, 6, ops, randomRequests(5))
			if st := s.CacheStats(); st.FleetServed == 0 {
				t.Fatalf("no hammered decision took the template path: %+v", st)
			}
		})
	}
}

// TestConcurrentHammerSameShape has every worker — through the System
// and through tenant handles — request the same (shape, size) at once,
// from a System whose pattern memo starts empty: the first requests
// race to build and memoize the one pattern graph every later decision
// shares. On the fleet the pattern fits a node, so it is memoized for
// the class templates. The serialized-replay oracle checks the result.
func TestConcurrentHammerSameShape(t *testing.T) {
	ops := 40
	if testing.Short() {
		ops = 12
	}
	sameShape := func(rng *rand.Rand) JobRequest {
		return JobRequest{NumGPUs: 3, Shape: "AllToAll", Sensitive: rng.Intn(2) == 0}
	}
	for _, tc := range []struct {
		name  string
		build func() (*System, error)
	}{
		{"flat", func() (*System, error) { return NewSystem("dgx-a100", "preserve", WithWarmShapes(3)) }},
		{"fleet", func() (*System, error) { return NewFleetSystem("dgx-a100", 2, "preserve", WithWarmShapes(3)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := hammerSystem(t, tc.build, 3, 8, ops, sameShape)
			s.mu.Lock()
			defer s.mu.Unlock()
			if len(s.patterns) != 1 || s.patterns[patternKey{appgraph.ShapeAllToAll, 3}] == nil {
				t.Fatalf("pattern memo = %v, want the one AllToAll(3) graph", s.patterns)
			}
		})
	}
}

// TestAllocateBatchMatchesSequential pins the coalescing primitive's
// contract: AllocateBatch(req, n) is byte-identical to n sequential
// Allocate calls.
func TestAllocateBatchMatchesSequential(t *testing.T) {
	a, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem("dgx-a100", "preserve", WithWarmShapes(4))
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{NumGPUs: 2, Sensitive: true}
	batched, errs := a.AllocateBatch(req, 5) // 5×2 GPUs > 8: tail must fail
	var sequential []*Lease
	var seqErrs []error
	for i := 0; i < 5; i++ {
		l, err := b.Allocate(req)
		sequential = append(sequential, l)
		seqErrs = append(seqErrs, err)
	}
	for i := range batched {
		if (errs[i] == nil) != (seqErrs[i] == nil) {
			t.Fatalf("slot %d: batch err %v, sequential err %v", i, errs[i], seqErrs[i])
		}
		if errs[i] != nil {
			if !errors.Is(errs[i], policy.ErrNoAllocation) {
				t.Fatalf("slot %d: %v", i, errs[i])
			}
			continue
		}
		if batched[i].ID != sequential[i].ID || !reflect.DeepEqual(batched[i].GPUs, sequential[i].GPUs) {
			t.Fatalf("slot %d: batch %d %v, sequential %d %v",
				i, batched[i].ID, batched[i].GPUs, sequential[i].ID, sequential[i].GPUs)
		}
	}
	if fmt.Sprint(a.FreeGPUs()) != fmt.Sprint(b.FreeGPUs()) {
		t.Fatalf("free sets diverge: %v vs %v", a.FreeGPUs(), b.FreeGPUs())
	}
}
