package mapa

// Tenant is one client's handle on a shared System. MAPA's decision is
// a pure function of the machine state, so a handle holds no decision
// state of its own: every allocation goes through the System's one
// allocator and view streams, and a tenant is, to the library, only
// the Owner label its requests carry. Per-tenant ownership enforcement
// — only the tenant that allocated a lease may release or renew it —
// is the mapad daemon's job.
//
// Tenant is safe for concurrent use.
type Tenant struct {
	s *System
}

// NewTenant returns a handle on the System. It registers nothing, so
// handles need no closing and cost the System nothing while idle.
func (s *System) NewTenant() (*Tenant, error) { return &Tenant{s: s}, nil }

// Allocate is System.Allocate.
func (t *Tenant) Allocate(req JobRequest) (*Lease, error) { return t.s.Allocate(req) }
