// Package server implements mapad's HTTP serving layer: long-running
// allocate/release over JSON for many concurrent tenants on one shared
// mapa.System, with bounded admission (429 backpressure), optional
// coalescing of identical (shape, size) allocate bursts into one
// decision-lock round trip, a readiness probe, and Prometheus-format
// metrics. The daemon skeleton — health endpoint plus text-format
// metrics beside the serving routes — follows the ROCm k8s device
// plugin's monitoring layout.
//
// Routes:
//
//	POST /v1/allocate  {tenant?, num_gpus, shape?, sensitive?, ttl_ms?} -> lease
//	POST /v1/release   {tenant?, lease_id}
//	POST /v1/renew     {tenant?, lease_id, ttl_ms} -> new deadline
//	POST /v1/health    {action: mark|restore|degrade, gpus?, u?, v?, bw?}
//	GET  /v1/leases    live leases with owners and TTL deadlines
//	GET  /healthz      readiness: 200 once serving, reports warm state
//	GET  /metrics      Prometheus text exposition
//
// Statuses: 200 on success; 400 for a malformed or invalid request (bad
// JSON or data after it, num_gpus < 1, an unknown shape or health
// action, a health event the System refuses); 403 for another tenant's
// lease; 404 for an unknown lease; 409 when an allocation cannot be
// placed now; 413 for a body over 1 MiB; 429 when the admission queue
// is full; 503 while draining. A 500 means a server-side fault, such as
// a failed journal append (mapa.ErrJournal). Every non-2xx answer
// leaves the System's state unchanged.
//
// During shutdown the daemon calls Drain: every serving route answers
// 503 with Retry-After while /healthz reports "draining" and /metrics
// stays scrapeable, so load balancers move on while in-flight requests
// finish and the final snapshot is cut.
//
// Tenancy: a tenant is an owner label. Every allocation is decided by
// the System's one allocator whatever the tenant, and the label is
// journaled as the lease's owner; a tenant may only release or renew
// leases it allocated (403 otherwise).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapa"
	"mapa/internal/policy"
)

// DefaultQueueDepth is the admission depth an Options zero value uses.
const DefaultQueueDepth = 256

// Options configures a Server.
type Options struct {
	// QueueDepth bounds how many allocate requests may be admitted —
	// in flight or waiting on the decision lock — at once; requests
	// beyond it are rejected with 429 so overload surfaces as
	// backpressure instead of unbounded queueing. <= 0 uses
	// DefaultQueueDepth.
	QueueDepth int
	// CoalesceWindow, when positive, holds the first allocate of an
	// identical (shape, size, sensitivity) burst open for this long so
	// later arrivals join its batch: the batch runs as one
	// System.AllocateBatch — one prewarm, one lock acquisition — and
	// each member gets its own lease, byte-identical to sequential
	// execution. Zero disables coalescing.
	CoalesceWindow time.Duration
}

// Server is the mapad HTTP handler. Create with New; it is safe for
// concurrent use.
type Server struct {
	sys      *mapa.System
	opts     Options
	admit    chan struct{}
	mux      *http.ServeMux
	metrics  *metrics
	draining atomic.Bool

	mu      sync.Mutex
	owner   map[int]string // lease ID -> owning tenant name
	batches map[coalKey]*batch
}

// New returns a Server over the System. The System should usually be
// built with WithBackgroundWarming so the daemon serves early traffic
// while universes warm.
func New(sys *mapa.System, opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	s := &Server{
		sys:     sys,
		opts:    opts,
		admit:   make(chan struct{}, opts.QueueDepth),
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
		owner:   make(map[int]string),
		batches: make(map[coalKey]*batch),
	}
	// A journal-backed System hands back the leases it recovered;
	// rebind them to their owning tenants so ownership checks survive a
	// daemon restart (the owner label journaled at allocate time is the
	// tenant name).
	for id, owner := range sys.LeaseOwners() {
		s.owner[id] = owner
	}
	s.mux.HandleFunc("POST /v1/allocate", s.handleAllocate)
	s.mux.HandleFunc("POST /v1/release", s.handleRelease)
	s.mux.HandleFunc("POST /v1/renew", s.handleRenew)
	s.mux.HandleFunc("POST /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/leases", s.handleLeases)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		switch r.URL.Path {
		case "/healthz", "/metrics", "/v1/leases":
			// Probes and observability stay up through the drain.
		default:
			w.Header().Set("Retry-After", "1")
			s.writeError(w, "drain", http.StatusServiceUnavailable,
				errors.New("draining: daemon is shutting down"))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Drain moves the server into shutdown mode: new work is refused with
// 503 + Retry-After while requests already admitted run to completion.
// The caller then stops the http.Server (which waits out in-flight
// handlers) and closes the System for the final snapshot.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AllocateRequest is the /v1/allocate body.
type AllocateRequest struct {
	// Tenant names the requesting tenant, the lease's owner label;
	// empty allocates an unowned lease.
	Tenant string `json:"tenant,omitempty"`
	// NumGPUs is the accelerator count (required, >= 1).
	NumGPUs int `json:"num_gpus"`
	// Shape names the communication pattern (mapa.Shapes); empty
	// defaults to Ring.
	Shape string `json:"shape,omitempty"`
	// Sensitive is the bandwidth-sensitivity annotation.
	Sensitive bool `json:"sensitive,omitempty"`
	// TTLMillis, when positive, gives the lease a time-to-live: if it
	// is neither released nor renewed within this window the daemon's
	// reaper expires it, journaling the expiry. Zero means no TTL.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// AllocateResponse is the /v1/allocate success body.
type AllocateResponse struct {
	LeaseID     int     `json:"lease_id"`
	GPUs        []int   `json:"gpus"`
	EffBW       float64 `json:"eff_bw"`
	AggBW       float64 `json:"agg_bw"`
	PreservedBW float64 `json:"preserved_bw"`
	// Deadline is the TTL expiry in Unix nanoseconds, 0 if untimed.
	Deadline int64 `json:"deadline_unix_nano,omitempty"`
}

// ReleaseRequest is the /v1/release body.
type ReleaseRequest struct {
	Tenant  string `json:"tenant,omitempty"`
	LeaseID int    `json:"lease_id"`
}

// RenewRequest is the /v1/renew body. TTLMillis > 0 pushes the lease's
// deadline out from now; <= 0 clears the TTL entirely.
type RenewRequest struct {
	Tenant    string `json:"tenant,omitempty"`
	LeaseID   int    `json:"lease_id"`
	TTLMillis int64  `json:"ttl_ms"`
}

// RenewResponse is the /v1/renew success body. Deadline is always
// present: 0 states the TTL was cleared.
type RenewResponse struct {
	LeaseID  int   `json:"lease_id"`
	Deadline int64 `json:"deadline_unix_nano"`
}

// LeaseEntry is one element of the /v1/leases response.
type LeaseEntry struct {
	LeaseID  int    `json:"lease_id"`
	Tenant   string `json:"tenant,omitempty"`
	GPUs     []int  `json:"gpus"`
	Deadline int64  `json:"deadline_unix_nano,omitempty"`
}

// LeasesResponse is the /v1/leases body.
type LeasesResponse struct {
	Leases []LeaseEntry `json:"leases"`
}

// HealthRequest is the /v1/health body: a topology event. Action is
// "mark" (GPUs become unallocatable), "restore" (they return to
// service), or "degrade" (link (U,V) is re-weighted to BW GB/s).
type HealthRequest struct {
	Action string  `json:"action"`
	GPUs   []int   `json:"gpus,omitempty"`
	U      int     `json:"u,omitempty"`
	V      int     `json:"v,omitempty"`
	BW     float64 `json:"bw,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, route string, code int, body interface{}) {
	s.metrics.request(route, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, route string, code int, err error) {
	s.writeJSON(w, route, code, errorResponse{Error: err.Error()})
}

// maxBodyBytes bounds a request body; real requests are under 200
// bytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body — exactly one JSON value,
// optionally followed by whitespace — into v. It answers a malformed
// body or one with trailing data with 400 and one over maxBodyBytes
// with 413, and reports whether the handler may go on.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, route string, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		_, err = dec.Token()
		if err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, route, code, fmt.Errorf("decoding request: %w", err))
	return false
}

// tryAdmit claims an admission slot without blocking; callers that get
// false must answer 429. Pairs with done.
func (s *Server) tryAdmit() bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) done() { <-s.admit }

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	const route = "allocate"
	var req AllocateRequest
	if !s.decodeBody(w, r, route, &req) {
		return
	}
	if req.NumGPUs < 1 {
		s.writeError(w, route, http.StatusBadRequest, fmt.Errorf("num_gpus must be >= 1, got %d", req.NumGPUs))
		return
	}
	if !knownShape(req.Shape) {
		s.writeError(w, route, http.StatusBadRequest, fmt.Errorf("unknown shape %q (want one of %v)", req.Shape, shapes))
		return
	}
	if !s.tryAdmit() {
		s.metrics.reject()
		s.writeError(w, route, http.StatusTooManyRequests, errors.New("admission queue full"))
		return
	}
	defer s.done()
	jr := mapa.JobRequest{
		NumGPUs:   req.NumGPUs,
		Shape:     req.Shape,
		Sensitive: req.Sensitive,
		Owner:     req.Tenant,
		TTL:       time.Duration(req.TTLMillis) * time.Millisecond,
	}
	start := time.Now()
	var lease *mapa.Lease
	var err error
	if s.opts.CoalesceWindow > 0 {
		lease, err = s.allocateCoalesced(jr)
	} else {
		lease, err = s.sys.Allocate(jr)
	}
	s.metrics.observeAllocate(time.Since(start))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, policy.ErrNoAllocation) {
			// The machine cannot place the request right now — the
			// client's cue to retry after a release, not a server fault.
			code = http.StatusConflict
		}
		s.writeError(w, route, code, err)
		return
	}
	s.mu.Lock()
	s.owner[lease.ID] = req.Tenant
	s.mu.Unlock()
	s.writeJSON(w, route, http.StatusOK, AllocateResponse{
		LeaseID:     lease.ID,
		GPUs:        lease.GPUs,
		EffBW:       lease.EffBW,
		AggBW:       lease.AggBW,
		PreservedBW: lease.PreservedBW,
		Deadline:    lease.Deadline,
	})
}

// shapes are the communication shapes /v1/allocate accepts.
var shapes = mapa.Shapes()

// knownShape reports whether name selects a shape — case-insensitively,
// like mapa.JobRequest.Shape; empty selects Ring.
func knownShape(name string) bool {
	if name == "" {
		return true
	}
	for _, s := range shapes {
		if strings.EqualFold(s, name) {
			return true
		}
	}
	return false
}

// coalKey identifies one coalescable request class. Owner and TTL are
// part of the key because both are journaled per lease: members of one
// AllocateBatch share a JobRequest, so requests that must journal
// different owners or deadlines cannot share a batch.
type coalKey struct {
	shape     string
	n         int
	sensitive bool
	owner     string
	ttlMillis int64
}

// batch is one in-flight coalesced allocate: the leader gathers
// joiners for the coalesce window, runs one AllocateBatch, and each
// member reads its own slot after done closes.
type batch struct {
	members int
	done    chan struct{}
	leases  []*mapa.Lease
	errs    []error
}

// allocateCoalesced joins or leads the request class's batch. The
// leader holds the batch open for the coalesce window, then executes
// it as one System.AllocateBatch; joiners park on done and read their
// slot.
func (s *Server) allocateCoalesced(req mapa.JobRequest) (*mapa.Lease, error) {
	shape := req.Shape
	if shape == "" {
		shape = "Ring"
	}
	key := coalKey{
		shape: shape, n: req.NumGPUs, sensitive: req.Sensitive,
		owner: req.Owner, ttlMillis: int64(req.TTL / time.Millisecond),
	}
	s.mu.Lock()
	if b, ok := s.batches[key]; ok {
		idx := b.members
		b.members++
		s.mu.Unlock()
		<-b.done
		return b.leases[idx], b.errs[idx]
	}
	b := &batch{members: 1, done: make(chan struct{})}
	s.batches[key] = b
	s.mu.Unlock()
	time.Sleep(s.opts.CoalesceWindow)
	s.mu.Lock()
	delete(s.batches, key)
	n := b.members
	s.mu.Unlock()
	b.leases, b.errs = s.sys.AllocateBatch(req, n)
	close(b.done)
	if n > 1 {
		s.metrics.coalesce(n - 1)
	}
	return b.leases[0], b.errs[0]
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	const route = "release"
	var req ReleaseRequest
	if !s.decodeBody(w, r, route, &req) {
		return
	}
	s.mu.Lock()
	owner, known := s.owner[req.LeaseID]
	s.mu.Unlock()
	if !known {
		s.writeError(w, route, http.StatusNotFound, fmt.Errorf("lease %d unknown", req.LeaseID))
		return
	}
	if owner != req.Tenant {
		s.writeError(w, route, http.StatusForbidden,
			fmt.Errorf("lease %d belongs to another tenant", req.LeaseID))
		return
	}
	if err := s.sys.Release(&mapa.Lease{ID: req.LeaseID}); err != nil {
		s.writeError(w, route, leaseErrorCode(err), err)
		return
	}
	s.mu.Lock()
	delete(s.owner, req.LeaseID)
	s.mu.Unlock()
	s.writeJSON(w, route, http.StatusOK, struct{}{})
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	const route = "renew"
	var req RenewRequest
	if !s.decodeBody(w, r, route, &req) {
		return
	}
	s.mu.Lock()
	owner, known := s.owner[req.LeaseID]
	s.mu.Unlock()
	if !known {
		s.writeError(w, route, http.StatusNotFound, fmt.Errorf("lease %d unknown", req.LeaseID))
		return
	}
	if owner != req.Tenant {
		s.writeError(w, route, http.StatusForbidden,
			fmt.Errorf("lease %d belongs to another tenant", req.LeaseID))
		return
	}
	deadline, err := s.sys.Renew(req.LeaseID, time.Duration(req.TTLMillis)*time.Millisecond)
	if err != nil {
		s.writeError(w, route, leaseErrorCode(err), err)
		return
	}
	s.writeJSON(w, route, http.StatusOK, RenewResponse{LeaseID: req.LeaseID, Deadline: deadline})
}

// leaseErrorCode maps a System error on a lease the server knows: 404
// when the System no longer holds it (a concurrent release or reap),
// 500 for a server-side fault such as a failed journal append — the
// lease is then still held, and must not be reported gone.
func leaseErrorCode(err error) int {
	if errors.Is(err, mapa.ErrLeaseNotActive) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleLeases lists live leases from the System itself — after a
// restart this is recovered state, which is what the crash harness
// audits against its acked set.
func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	resp := LeasesResponse{Leases: []LeaseEntry{}}
	for _, l := range s.sys.Leases() {
		resp.Leases = append(resp.Leases, LeaseEntry{
			LeaseID: l.ID, Tenant: l.Owner, GPUs: l.GPUs, Deadline: l.Deadline,
		})
	}
	s.writeJSON(w, "leases", http.StatusOK, resp)
}

// ReapExpired releases every lease whose TTL deadline has passed,
// journaling each expiry, and prunes the ownership map. The daemon's
// reaper goroutine calls this on a timer.
func (s *Server) ReapExpired(now time.Time) (int, error) {
	reaped, err := s.sys.ReapExpired(now)
	if len(reaped) > 0 {
		s.mu.Lock()
		for _, id := range reaped {
			delete(s.owner, id)
		}
		s.mu.Unlock()
	}
	return len(reaped), err
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	const route = "health"
	var req HealthRequest
	if !s.decodeBody(w, r, route, &req) {
		return
	}
	var err error
	switch req.Action {
	case "mark":
		err = s.sys.MarkUnhealthy(req.GPUs...)
	case "restore":
		err = s.sys.Restore(req.GPUs...)
	case "degrade":
		err = s.sys.DegradeLink(req.U, req.V, req.BW)
	default:
		s.writeError(w, route, http.StatusBadRequest,
			fmt.Errorf("unknown action %q (want mark, restore, or degrade)", req.Action))
		return
	}
	if err != nil {
		code := http.StatusBadRequest // the System refused the event
		if errors.Is(err, mapa.ErrJournal) {
			code = http.StatusInternalServerError
		}
		s.writeError(w, route, code, err)
		return
	}
	s.writeJSON(w, route, http.StatusOK, struct{}{})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, "healthz", http.StatusOK, struct {
		Status   string `json:"status"`
		Topology string `json:"topology"`
		Policy   string `json:"policy"`
		Warm     bool   `json:"warm"`
	}{status, s.sys.Topology(), s.sys.Policy(), s.sys.Warmed()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.sys, len(s.admit), cap(s.admit))
}
