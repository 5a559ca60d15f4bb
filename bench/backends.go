package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"mapa"
	"mapa/internal/appgraph"
	"mapa/internal/effbw"
	"mapa/internal/graph"
	"mapa/internal/journal"
	"mapa/internal/matchcache"
	"mapa/internal/policy"
	"mapa/internal/score"
	"mapa/internal/server"
	"mapa/internal/topology"
)

// httpBackend speaks mapad's JSON API, one keep-alive connection per
// client. With handlerTransport it calls a handler directly instead.
type httpBackend struct {
	base    string
	clients []*http.Client
	ttlMS   int64
	bufs    []bytes.Buffer // one response buffer per client
}

func newHTTPBackend(base string, w *workload, rt func() http.RoundTripper) *httpBackend {
	b := &httpBackend{base: base, bufs: make([]bytes.Buffer, numClients)}
	if w.durable {
		b.ttlMS = leaseTTLMillis
	}
	for i := 0; i < numClients; i++ {
		b.clients = append(b.clients, &http.Client{Transport: rt(), Timeout: 60 * time.Second})
	}
	return b
}

// oneConnTransport is the serve workloads' transport: a single
// keep-alive connection, no compression negotiation.
func oneConnTransport() http.RoundTripper {
	return &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
}

// handlerTransport answers requests by calling h in the caller's
// goroutine — the server layer without sockets, used to count its
// heap allocations.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func (b *httpBackend) close() {
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request and decodes a 200 body into out (when non-nil).
// Any other status is an error carrying the body.
func (b *httpBackend) do(client int, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, b.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.clients[client].Do(req)
	if err != nil {
		return err
	}
	buf := &b.bufs[client]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(buf.Bytes(), out)
	}
	return nil
}

func (b *httpBackend) allocate(client int, o op) (grant, error) {
	var resp server.AllocateResponse
	err := b.do(client, "POST", "/v1/allocate", server.AllocateRequest{
		Tenant: tenantName(client), NumGPUs: o.Size, Shape: o.Shape, Sensitive: o.Sensitive, TTLMillis: b.ttlMS,
	}, &resp)
	return grant{ID: resp.LeaseID, GPUs: resp.GPUs, EffBW: resp.EffBW, Deadline: resp.Deadline}, err
}

func (b *httpBackend) release(client, id int) error {
	return b.do(client, "POST", "/v1/release", server.ReleaseRequest{Tenant: tenantName(client), LeaseID: id}, nil)
}

func (b *httpBackend) renew(client, id int) (int64, error) {
	var resp server.RenewResponse
	err := b.do(client, "POST", "/v1/renew", server.RenewRequest{Tenant: tenantName(client), LeaseID: id, TTLMillis: b.ttlMS}, &resp)
	return resp.Deadline, err
}

func (b *httpBackend) leases(client int) (int, error) {
	ls, err := b.listLeases(client)
	return len(ls), err
}

func (b *httpBackend) listLeases(client int) ([]server.LeaseEntry, error) {
	var resp server.LeasesResponse
	err := b.do(client, "GET", "/v1/leases", nil, &resp)
	return resp.Leases, err
}

func (b *httpBackend) health(client int, mark bool, gpu int) error {
	action := "restore"
	if mark {
		action = "mark"
	}
	return b.do(client, "POST", "/v1/health", server.HealthRequest{Action: action, GPUs: []int{gpu}}, nil)
}

// newSystem builds the in-process twin of the workload's daemon.
func newSystem(w *workload, journalDir string) (*mapa.System, error) {
	opts := []mapa.SystemOption{mapa.WithWarmShapes(w.warm)}
	if w.durable {
		opts = append(opts, mapa.WithJournal(journalDir, journal.Options{Fsync: journal.FsyncAlways}))
	}
	return mapa.NewSystem(w.topology, "preserve", opts...)
}

// systemBackend calls the root package the way internal/server does:
// allocations through per-tenant handles, everything else on the
// System.
type systemBackend struct {
	sys     *mapa.System
	tenants []*mapa.Tenant
	ttl     time.Duration
}

func newSystemBackend(sys *mapa.System, w *workload) (*systemBackend, error) {
	b := &systemBackend{sys: sys}
	if w.durable {
		b.ttl = leaseTTLMillis * time.Millisecond
	}
	for i := 0; i < numClients; i++ {
		t, err := sys.NewTenant()
		if err != nil {
			return nil, err
		}
		b.tenants = append(b.tenants, t)
	}
	return b, nil
}

func (b *systemBackend) allocate(client int, o op) (grant, error) {
	l, err := b.tenants[client].Allocate(mapa.JobRequest{
		NumGPUs: o.Size, Shape: o.Shape, Sensitive: o.Sensitive, Owner: tenantName(client), TTL: b.ttl,
	})
	if err != nil {
		return grant{}, err
	}
	return grant{ID: l.ID, GPUs: l.GPUs, EffBW: l.EffBW, Deadline: l.Deadline}, nil
}

func (b *systemBackend) release(_, id int) error { return b.sys.Release(&mapa.Lease{ID: id}) }

func (b *systemBackend) renew(_, id int) (int64, error) { return b.sys.Renew(id, b.ttl) }

func (b *systemBackend) leases(int) (int, error) { return len(b.sys.Leases()), nil }

func (b *systemBackend) health(_ int, mark bool, gpu int) error {
	if mark {
		return b.sys.MarkUnhealthy(gpu)
	}
	return b.sys.Restore(gpu)
}

// policyBackend is the decision core below mapa.System: one shared
// universe store, one policy instance and view stream per client plus
// the System's own default stream, every delta fanned out to all of
// them — what System does under its lock, with the lease table and the
// availability graph kept here by hand. It stamps the two calls the
// layers below System own (policy decision, view deltas) and collects
// the journal records a journaled System would have appended.
type policyBackend struct {
	top       *topology.Topology
	avail     *graph.Graph
	store     *matchcache.Store
	views     []*matchcache.Views // [0] is the default stream, [1+c] client c's
	allocs    []policy.Allocator
	bufs      []policy.Allocation
	held      map[int][]int
	leasedBy  map[int]int
	unhealthy map[int]bool
	nextID    int
	ttl       time.Duration

	decisions int
	warmS     float64 // Store.Warm wall time
	warmHeap  float64 // heap growth across Store.Warm, MB
	records   []journal.Record
	// stamp receives the interval of each policy.decide /
	// matchcache.delta call for the op being executed.
	stamp func(name string, start, end int64)
}

func newPolicyBackend(w *workload) (*policyBackend, error) {
	top, err := topology.ByName(w.topology)
	if err != nil {
		return nil, err
	}
	b := &policyBackend{
		top:       top,
		avail:     top.Graph.Clone(),
		store:     matchcache.NewStore(top, matchcache.DefaultUniverseCapacity),
		held:      make(map[int][]int),
		leasedBy:  make(map[int]int),
		unhealthy: make(map[int]bool),
		bufs:      make([]policy.Allocation, numClients),
		stamp:     func(string, int64, int64) {},
	}
	if w.durable {
		b.ttl = leaseTTLMillis * time.Millisecond
	}
	before := heapMB()
	start := time.Now()
	b.store.Warm(0, appgraph.AllShapes(min(w.warm, top.NumGPUs()))...)
	b.warmS = time.Since(start).Seconds()
	b.warmHeap = heapMB() - before
	scorer := score.NewScorer(effbw.TrainedFor(top))
	b.views = append(b.views, b.store.NewViews())
	for i := 0; i < numClients; i++ {
		a, err := policy.ByName("preserve", scorer)
		if err != nil {
			return nil, err
		}
		v := b.store.NewViews()
		policy.AttachUniverses(a, b.store)
		policy.AttachViews(a, v)
		b.allocs = append(b.allocs, a)
		b.views = append(b.views, v)
	}
	return b, nil
}

func (b *policyBackend) allocate(client int, o op) (grant, error) {
	shape, err := appgraph.ParseShape(o.Shape)
	if err != nil {
		return grant{}, err
	}
	pattern, err := appgraph.Build(shape, o.Size)
	if err != nil {
		return grant{}, err
	}
	b.store.Ensure(pattern, 0)
	buf := &b.bufs[client]
	t0 := clock()
	err = policy.AllocateInto(b.allocs[client], buf, b.avail, b.top, policy.Request{Pattern: pattern, Sensitive: o.Sensitive})
	t1 := clock()
	b.stamp("policy.decide", t0, t1)
	if err != nil {
		return grant{}, err
	}
	b.decisions++
	gpus := append([]int(nil), buf.GPUs...)
	b.nextID++
	id := b.nextID
	var deadline int64
	if b.ttl > 0 {
		deadline = time.Now().Add(b.ttl).UnixNano()
	}
	b.records = append(b.records, journal.Record{
		Kind: journal.KindAllocate, ID: id, NumGPUs: o.Size, Shape: o.Shape,
		Sensitive: o.Sensitive, Owner: tenantName(client), Deadline: deadline, GPUs: gpus,
	})
	for _, g := range gpus {
		b.avail.RemoveVertex(g)
		b.leasedBy[g] = id
	}
	b.held[id] = gpus
	t2 := clock()
	for _, v := range b.views {
		v.Allocate(gpus)
	}
	b.stamp("matchcache.delta", t2, clock())
	return grant{ID: id, GPUs: gpus, EffBW: buf.Scores.EffBW, Deadline: deadline}, nil
}

// rejoin returns g to the availability graph with its links to every
// free GPU, as System.Release and System.Restore do.
func (b *policyBackend) rejoin(g int) {
	free := b.avail.Vertices()
	b.avail.AddVertex(g)
	for _, v := range free {
		if e, ok := b.top.Graph.EdgeBetween(g, v); ok {
			b.avail.MustAddEdge(g, v, e.Weight, e.Label)
		}
	}
}

func (b *policyBackend) release(_, id int) error {
	gpus, ok := b.held[id]
	if !ok {
		return fmt.Errorf("lease %d not active", id)
	}
	b.records = append(b.records, journal.Record{Kind: journal.KindRelease, ID: id, GPUs: gpus})
	delete(b.held, id)
	for _, g := range gpus {
		delete(b.leasedBy, g)
		if !b.unhealthy[g] {
			b.rejoin(g)
		}
	}
	t0 := clock()
	for _, v := range b.views {
		v.Release(gpus)
	}
	b.stamp("matchcache.delta", t0, clock())
	return nil
}

func (b *policyBackend) renew(_, id int) (int64, error) {
	if _, ok := b.held[id]; !ok {
		return 0, fmt.Errorf("lease %d not active", id)
	}
	deadline := time.Now().Add(b.ttl).UnixNano()
	b.records = append(b.records, journal.Record{Kind: journal.KindRenew, ID: id, Deadline: deadline})
	return deadline, nil
}

func (b *policyBackend) leases(int) (int, error) { return len(b.held), nil }

func (b *policyBackend) health(_ int, mark bool, gpu int) error {
	if mark == b.unhealthy[gpu] {
		return fmt.Errorf("GPU %d: mark=%t repeats its state", gpu, mark)
	}
	gpus := []int{gpu}
	_, leased := b.leasedBy[gpu]
	if mark {
		b.records = append(b.records, journal.Record{Kind: journal.KindMark, GPUs: gpus})
		b.unhealthy[gpu] = true
		if !leased {
			b.avail.RemoveVertex(gpu)
		}
		for _, v := range b.views {
			v.MarkUnhealthy(gpus)
		}
		return nil
	}
	b.records = append(b.records, journal.Record{Kind: journal.KindRestore, GPUs: gpus})
	delete(b.unhealthy, gpu)
	if !leased {
		b.rejoin(gpu)
	}
	for _, v := range b.views {
		v.RestoreHealth(gpus)
	}
	return nil
}

// tableServed sums the table-served decisions over the client
// streams.
func (b *policyBackend) tableServed() uint64 {
	var n uint64
	for _, v := range b.views[1:] {
		n += v.Stats().TableServed
	}
	return n
}

// candidates is the exact number of candidate classes resident in the
// store's universes.
func (b *policyBackend) candidates() int {
	n := 0
	for _, sb := range b.store.Stats().Builds {
		n += sb.Classes
	}
	return n
}
