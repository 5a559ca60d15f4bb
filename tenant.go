package mapa

import (
	"time"

	"mapa/internal/matchcache"
	"mapa/internal/policy"
)

// Tenant is one client's serving handle on a shared System — the unit
// of multi-tenant isolation the mapad daemon hands out. Every tenant
// decides with its own allocator instance bound to its own live-view
// stream (matchcache.Views, plus a matchcache.FleetViews on a fleet)
// over the System's one shared universe store: universes and score
// tables — the expensive, state-independent precomputation — are built
// once per machine (once per node class on a fleet), while the
// per-stream candidate views and Eq. 3 bandwidth accounting are
// maintained per tenant from the deltas the System fans out on every
// state change.
//
// Decisions are byte-identical whichever handle makes them — a
// tenant's allocator is configured exactly like the System's — so
// tenancy changes contention, not outcomes: tenants contend on the
// System's decision lock only for the O(k)-arithmetic decision itself,
// never on each other's view-slot materialization or a cold shape's
// universe build (which runs outside the lock; see Allocate).
//
// Tenant is safe for concurrent use. Leases live in the System's one
// namespace: any handle may release any lease — per-tenant ownership
// enforcement is the daemon's job, not the library's.
type Tenant struct {
	s  *System
	id int

	// alloc and the view streams are guarded by s.mu: Repartition
	// rebinds them to the post-re-cut pipeline while holding it.
	alloc  policy.Allocator
	views  *matchcache.Views
	fviews *matchcache.FleetViews // nil on a flat System
}

// NewTenant registers a new tenant stream on the System. The tenant's
// view set inherits the current allocation and health state, so a
// tenant joining mid-traffic serves correctly from its first decision.
// Close the tenant when its client disconnects for good, or its view
// stream keeps absorbing every delta (two mask updates and the Eq. 3
// accounting each; its shape views only catch up when it decides — on
// a fleet too, where each delta reaches only its nodes' views).
func (s *System) NewTenant() (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	alloc, err := policy.ByName(s.alloc.Name(), s.scorer)
	if err != nil {
		return nil, err
	}
	if s.cfg.workers > 1 {
		policy.SetParallelism(alloc, s.cfg.workers)
	}
	s.nextTenantID++
	t := &Tenant{s: s, id: s.nextTenantID, alloc: alloc}
	s.bindTenantLocked(t)
	if s.tenants == nil {
		s.tenants = make(map[int]*Tenant)
	}
	s.tenants[t.id] = t
	return t, nil
}

// bindTenantLocked (re)wires a tenant to the System's current match
// pipeline: shared scorer and universe stores, plus fresh per-tenant
// view streams replayed to the live state. Called at registration and
// again by Repartition, which swaps the pipeline.
func (s *System) bindTenantLocked(t *Tenant) {
	policy.SetScorer(t.alloc, s.scorer)
	policy.AttachUniverses(t.alloc, s.store)
	t.views = nil
	if s.store != nil {
		t.views = s.store.NewViews()
	}
	t.fviews = s.fstore.NewFleetViews()
	s.replayViewsLocked(t.views, t.fviews)
	policy.AttachViews(t.alloc, t.views)
	policy.AttachFleet(t.alloc, t.fviews)
}

// ID returns the tenant's System-unique registration number.
func (t *Tenant) ID() int { return t.id }

// Allocate leases GPUs for the request, deciding through the tenant's
// own allocator and view stream. Semantics match System.Allocate:
// cold-shape builds run outside the decision lock, and the returned
// lease is valid with any handle on the System.
func (t *Tenant) Allocate(req JobRequest) (*Lease, error) {
	return t.s.allocate(t, req, nil)
}

// Release returns a lease's GPUs to the free pool (System.Release).
func (t *Tenant) Release(l *Lease) error { return t.s.Release(l) }

// Renew extends or clears a lease's TTL deadline (System.Renew).
// Ownership enforcement — only the tenant that allocated a lease may
// renew it — is the daemon's job, like Release.
func (t *Tenant) Renew(id int, ttl time.Duration) (int64, error) { return t.s.Renew(id, ttl) }

// Close unregisters the tenant: its view stream stops receiving
// deltas and becomes collectable. Releasing the tenant's leases is the
// caller's responsibility; they remain valid via the System. Allocate
// on a closed tenant still decides correctly: Views.SelectLive and
// FleetViews.SelectNodes cross-check the request's mask against the
// stream they tracked, so a stream that stopped receiving deltas
// declines and the decision falls to a fresh search (or, on a fleet too
// large to flatten, to ErrNoAllocation), never one over stale
// candidates.
func (t *Tenant) Close() {
	s := t.s
	s.mu.Lock()
	if _, bound := s.tenants[t.id]; bound {
		delete(s.tenants, t.id)
		s.closedViewStats = addViewStats(s.closedViewStats, t.views.Stats())
		s.closedFleetStats = addViewStats(s.closedFleetStats, t.fviews.Stats())
	}
	s.mu.Unlock()
}
