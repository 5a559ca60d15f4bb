package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mapa"
	"mapa/internal/journal"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := mapa.NewSystem("dgx-a100", "preserve", mapa.WithWarmShapes(4))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	srv := New(sys, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url string, body, out interface{}) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var ar AllocateResponse
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: "a", NumGPUs: 2}, &ar); code != 200 {
		t.Fatalf("allocate: code %d", code)
	}
	if len(ar.GPUs) != 2 || ar.LeaseID == 0 {
		t.Fatalf("bad lease: %+v", ar)
	}
	if code := post(t, ts.URL+"/v1/release", ReleaseRequest{Tenant: "a", LeaseID: ar.LeaseID}, nil); code != 200 {
		t.Fatalf("release: code %d", code)
	}
	// A second release of the same lease is gone from the owner table.
	if code := post(t, ts.URL+"/v1/release", ReleaseRequest{Tenant: "a", LeaseID: ar.LeaseID}, nil); code != 404 {
		t.Fatalf("double release: code %d, want 404", code)
	}
}

func TestTenantOwnershipEnforced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var ar AllocateResponse
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: "alice", NumGPUs: 2}, &ar); code != 200 {
		t.Fatalf("allocate: code %d", code)
	}
	if code := post(t, ts.URL+"/v1/release", ReleaseRequest{Tenant: "bob", LeaseID: ar.LeaseID}, nil); code != 403 {
		t.Fatalf("cross-tenant release: code %d, want 403", code)
	}
	if code := post(t, ts.URL+"/v1/release", ReleaseRequest{Tenant: "alice", LeaseID: ar.LeaseID}, nil); code != 200 {
		t.Fatalf("owner release: code %d", code)
	}
}

func TestAllocateConflictWhenInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// DGX-A100 has 8 GPUs; a 9-GPU ring cannot be placed.
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 9}, nil); code != 409 {
		t.Fatalf("infeasible allocate: code %d, want 409", code)
	}
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 0}, nil); code != 400 {
		t.Fatalf("zero-GPU allocate: code %d, want 400", code)
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Options{QueueDepth: 2})
	// Occupy every admission slot, as in-flight decisions would.
	srv.admit <- struct{}{}
	srv.admit <- struct{}{}
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 2}, nil); code != 429 {
		t.Fatalf("overloaded allocate: code %d, want 429", code)
	}
	<-srv.admit
	<-srv.admit
	var ar AllocateResponse
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 2}, &ar); code != 200 {
		t.Fatalf("allocate after drain: code %d", code)
	}
	body := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(body, "mapad_admission_rejected_total 1") {
		t.Fatalf("metrics missing rejection count:\n%s", body)
	}
}

func TestHealthActions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code := post(t, ts.URL+"/v1/health", HealthRequest{Action: "mark", GPUs: []int{3}}, nil); code != 200 {
		t.Fatalf("mark: code %d", code)
	}
	// Marked GPU is unallocatable: an 8-GPU request must now fail.
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 8}, nil); code != 409 {
		t.Fatalf("allocate over degraded machine: want 409")
	}
	if code := post(t, ts.URL+"/v1/health", HealthRequest{Action: "restore", GPUs: []int{3}}, nil); code != 200 {
		t.Fatalf("restore: code %d", code)
	}
	var ar AllocateResponse
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{NumGPUs: 8}, &ar); code != 200 {
		t.Fatalf("allocate after restore: code %d", code)
	}
	if code := post(t, ts.URL+"/v1/health", HealthRequest{Action: "degrade", U: 0, V: 1, BW: 10}, nil); code != 200 {
		t.Fatalf("degrade: code %d", code)
	}
	// A fractional bandwidth would break Eq. 3's exact accounting: 400,
	// and the lease table stands.
	var before, after LeasesResponse
	get(t, ts.URL+"/v1/leases", &before)
	if code := post(t, ts.URL+"/v1/health", HealthRequest{Action: "degrade", U: 0, V: 1, BW: 12.5}, nil); code != 400 {
		t.Fatalf("fractional degrade: code %d, want 400", code)
	}
	if get(t, ts.URL+"/v1/leases", &after); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("leases after refused degrade: %+v, want %+v", after, before)
	}
	if code := post(t, ts.URL+"/v1/health", HealthRequest{Action: "explode"}, nil); code != 400 {
		t.Fatalf("unknown action: want 400")
	}
}

func TestCoalescedBurstGetsDistinctLeases(t *testing.T) {
	srv, _ := newTestServer(t, Options{CoalesceWindow: 20 * time.Millisecond})
	req := mapa.JobRequest{NumGPUs: 2}
	// Lead with one request, then deterministically join it: the batch
	// is open (registered in srv.batches) for the whole coalesce
	// window, so joiners added while it is visible are guaranteed
	// members of the same AllocateBatch.
	type result struct {
		lease *mapa.Lease
		err   error
	}
	results := make(chan result, 3)
	go func() {
		l, err := srv.allocateCoalesced(req)
		results <- result{l, err}
	}()
	key := coalKey{shape: "Ring", n: 2, sensitive: false}
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		_, open := srv.batches[key]
		srv.mu.Unlock()
		if open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never opened")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		// Join under the server lock while the batch is still
		// registered — exactly what a concurrent handler does.
		srv.mu.Lock()
		b := srv.batches[key]
		if b == nil {
			srv.mu.Unlock()
			t.Fatal("batch closed before joiners arrived; widen the window")
		}
		idx := b.members
		b.members++
		srv.mu.Unlock()
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			<-b.done
			results <- result{b.leases[idx], b.errs[idx]}
		}(idx)
	}
	wg.Wait()
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("coalesced allocate: %v", r.err)
		}
		if seen[r.lease.ID] {
			t.Fatalf("duplicate lease %d handed to two members", r.lease.ID)
		}
		seen[r.lease.ID] = true
	}
	if srv.sys.ActiveLeases() != 3 {
		t.Fatalf("ActiveLeases = %d, want 3", srv.sys.ActiveLeases())
	}
	srv.metrics.mu.Lock()
	defer srv.metrics.mu.Unlock()
	if srv.metrics.coalesced != 2 || srv.metrics.batches != 1 {
		t.Fatalf("coalesce counters = %d joiners / %d batches, want 2/1",
			srv.metrics.coalesced, srv.metrics.batches)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.String()
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hz struct {
		Status string `json:"status"`
		Warm   bool   `json:"warm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || !hz.Warm {
		t.Fatalf("healthz = %+v, want ok/warm (synchronous warm)", hz)
	}

	var ar AllocateResponse
	post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: "m", NumGPUs: 3}, &ar)
	body := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		`mapad_requests_total{route="allocate",code="200"} 1`,
		"mapad_allocate_latency_seconds_count 1",
		"mapad_allocate_latency_seconds_bucket{le=\"+Inf\"} 1",
		"mapad_leases_active 1",
		"mapad_gpus_free 5",
		"mapad_warm 1",
		"mapad_decisions_table_served_total",
		"mapad_universes_resident",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The warm built universes and their score tables, and the two
	// halves of that start-up cost are exported side by side.
	for _, name := range []string{"mapad_universe_build_seconds_total", "mapad_table_build_seconds_total"} {
		i := strings.Index(body, "\n"+name+" ")
		var secs float64
		if i < 0 {
			t.Errorf("metrics missing %s", name)
		} else if _, err := fmt.Sscanf(body[i+1:], name+" %g\n", &secs); err != nil || secs <= 0 {
			t.Errorf("%s = %g (%v), want a positive build time", name, secs, err)
		}
	}
	// Histogram bucket counts must be cumulative and end at count.
	if strings.Count(body, "_bucket{le=") != len(latencyBuckets)+1 {
		t.Errorf("want %d histogram buckets", len(latencyBuckets)+1)
	}
}

// TestMetricsCountTenantDecisions pins that the decision counters on
// /metrics account for every grant, whichever tenant asked: each
// decision below is for a named tenant and a warmed shape, so
// table_served + search_served must equal the number of grants with
// all of them table-served.
func TestMetricsCountTenantDecisions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	granted := 0
	for round := 0; round < 3; round++ {
		var held []ReleaseRequest
		for i, n := range []int{1, 2, 3, 2} {
			tenant := []string{"alice", "bob"}[i%2]
			var ar AllocateResponse
			if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: tenant, NumGPUs: n}, &ar); code != 200 {
				t.Fatalf("allocate %d for %s: code %d", n, tenant, code)
			}
			held = append(held, ReleaseRequest{Tenant: tenant, LeaseID: ar.LeaseID})
			granted++
		}
		for _, rr := range held {
			if code := post(t, ts.URL+"/v1/release", rr, nil); code != 200 {
				t.Fatalf("release %d: code %d", rr.LeaseID, code)
			}
		}
	}
	body := scrape(t, ts.URL+"/metrics")
	// Every grant was decided one of the two ways, and for warmed shapes
	// that way is the table.
	counter := func(name string) (n int) {
		t.Helper()
		i := strings.Index(body, "\n"+name+" ")
		if i < 0 {
			t.Fatalf("metrics missing %s", name)
		}
		if _, err := fmt.Sscanf(body[i+1:], name+" %d\n", &n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return n
	}
	table, search := counter("mapad_decisions_table_served_total"), counter("mapad_decisions_search_served_total")
	if table+search != granted || search != 0 {
		t.Errorf("table_served %d + search_served %d, want %d grants, none searched", table, search, granted)
	}
}

func TestTenantStreamsServeIdenticalDecisions(t *testing.T) {
	// Two servers over identical systems, one serving via distinct
	// tenant streams, one via the default stream only: the allocation
	// traces must be identical — tenancy shapes contention, never
	// outcomes.
	_, tsA := newTestServer(t, Options{})
	_, tsB := newTestServer(t, Options{})
	sizes := []int{2, 3, 2}
	var leasesA, leasesB []int
	step := func(i, n int) {
		t.Helper()
		var a, b AllocateResponse
		if code := post(t, tsA.URL+"/v1/allocate", AllocateRequest{Tenant: fmt.Sprintf("t%d", i), NumGPUs: n}, &a); code != 200 {
			t.Fatalf("tenant allocate %d: code %d", i, code)
		}
		if code := post(t, tsB.URL+"/v1/allocate", AllocateRequest{NumGPUs: n}, &b); code != 200 {
			t.Fatalf("default allocate %d: code %d", i, code)
		}
		if fmt.Sprint(a.GPUs) != fmt.Sprint(b.GPUs) || a.EffBW != b.EffBW {
			t.Fatalf("step %d: tenant-stream decision %v differs from default-stream %v", i, a.GPUs, b.GPUs)
		}
		leasesA = append(leasesA, a.LeaseID)
		leasesB = append(leasesB, b.LeaseID)
	}
	for i, n := range sizes {
		step(i, n)
	}
	// Release the first lease on both and keep allocating: the tenant
	// streams must have absorbed the release delta identically.
	if code := post(t, tsA.URL+"/v1/release", ReleaseRequest{Tenant: "t0", LeaseID: leasesA[0]}, nil); code != 200 {
		t.Fatalf("tenant release: code %d", code)
	}
	if code := post(t, tsB.URL+"/v1/release", ReleaseRequest{LeaseID: leasesB[0]}, nil); code != 200 {
		t.Fatalf("default release: code %d", code)
	}
	step(3, 3)
}

// TestRenewAndLeases exercises the TTL surface: allocate with ttl_ms,
// list via /v1/leases, renew (owner-gated), clear the TTL, and reap.
func TestRenewAndLeases(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var ar AllocateResponse
	code := post(t, ts.URL+"/v1/allocate",
		AllocateRequest{Tenant: "a", NumGPUs: 2, TTLMillis: 60_000}, &ar)
	if code != 200 || ar.Deadline == 0 {
		t.Fatalf("ttl allocate: code %d deadline %d", code, ar.Deadline)
	}

	var lr LeasesResponse
	if code := get(t, ts.URL+"/v1/leases", &lr); code != 200 {
		t.Fatalf("leases: code %d", code)
	}
	if len(lr.Leases) != 1 || lr.Leases[0].LeaseID != ar.LeaseID ||
		lr.Leases[0].Tenant != "a" || lr.Leases[0].Deadline != ar.Deadline {
		t.Fatalf("leases = %+v, want lease %d tenant a deadline %d", lr.Leases, ar.LeaseID, ar.Deadline)
	}

	if code := post(t, ts.URL+"/v1/renew", RenewRequest{Tenant: "b", LeaseID: ar.LeaseID, TTLMillis: 1}, nil); code != 403 {
		t.Fatalf("cross-tenant renew: code %d, want 403", code)
	}
	var rr RenewResponse
	if code := post(t, ts.URL+"/v1/renew", RenewRequest{Tenant: "a", LeaseID: ar.LeaseID, TTLMillis: 120_000}, &rr); code != 200 {
		t.Fatalf("renew: code %d", code)
	}
	if rr.Deadline <= ar.Deadline {
		t.Fatalf("renew did not extend the deadline: %d -> %d", ar.Deadline, rr.Deadline)
	}
	if code := post(t, ts.URL+"/v1/renew", RenewRequest{Tenant: "a", LeaseID: ar.LeaseID, TTLMillis: 0}, &rr); code != 200 || rr.Deadline != 0 {
		t.Fatalf("clearing renew: code %d deadline %d", code, rr.Deadline)
	}
	if code := post(t, ts.URL+"/v1/renew", RenewRequest{Tenant: "a", LeaseID: 99}, nil); code != 404 {
		t.Fatalf("renew of unknown lease: code %d, want 404", code)
	}

	// Re-arm a short TTL and reap past it: the lease is released and
	// its owner entry pruned, so a re-release 404s.
	if code := post(t, ts.URL+"/v1/renew", RenewRequest{Tenant: "a", LeaseID: ar.LeaseID, TTLMillis: 1}, &rr); code != 200 {
		t.Fatalf("re-arm renew: code %d", code)
	}
	n, err := srv.ReapExpired(time.Now().Add(time.Second))
	if err != nil || n != 1 {
		t.Fatalf("ReapExpired = %d, %v; want 1", n, err)
	}
	if code := post(t, ts.URL+"/v1/release", ReleaseRequest{Tenant: "a", LeaseID: ar.LeaseID}, nil); code != 404 {
		t.Fatalf("release after reap: code %d, want 404", code)
	}
}

// TestOversizedBodyGets413: every route that decodes a JSON body stops
// reading at maxBodyBytes and answers 413 in the usual error shape,
// leaving the lease table as it was.
func TestOversizedBodyGets413(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: "a", NumGPUs: 2}, nil); code != 200 {
		t.Fatalf("allocate: code %d", code)
	}
	var before, after LeasesResponse
	if code := get(t, ts.URL+"/v1/leases", &before); code != 200 || len(before.Leases) != 1 {
		t.Fatalf("leases: code %d, %+v", code, before)
	}
	// Well-formed JSON all the way, so only the size can refuse it.
	big := `{"tenant":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/allocate", "/v1/release", "/v1/renew", "/v1/health"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(big)))
		var er errorResponse
		if err := json.NewDecoder(rec.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %+v, decode error %v", path, er, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code %d, want 413 (%s)", path, rec.Code, er.Error)
		}
	}
	if code := get(t, ts.URL+"/v1/leases", &after); code != 200 || fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("leases after oversized bodies: code %d, %+v, want %+v", code, after, before)
	}
}

// TestDrainRefusesMutations: after Drain, serving routes answer 503
// with Retry-After while probes and lease listing stay available.
func TestDrainRefusesMutations(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var ar AllocateResponse
	if code := post(t, ts.URL+"/v1/allocate", AllocateRequest{Tenant: "a", NumGPUs: 2}, &ar); code != 200 {
		t.Fatalf("allocate: code %d", code)
	}
	srv.Drain()
	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json",
		strings.NewReader(`{"num_gpus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("allocate during drain: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After")
	}
	var lr LeasesResponse
	if code := get(t, ts.URL+"/v1/leases", &lr); code != 200 || len(lr.Leases) != 1 {
		t.Fatalf("leases during drain: code %d %+v", code, lr.Leases)
	}
	body := scrape(t, ts.URL+"/healthz")
	if !strings.Contains(body, "draining") {
		t.Fatalf("healthz during drain: %s", body)
	}
}

func get(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// serve sends one request straight to the handler.
func serve(srv *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestTrailingBodyDataRefused: a body is exactly one JSON value,
// optionally followed by whitespace. Anything after the value is a 400
// that changes nothing — it is not a second request.
func TestTrailingBodyDataRefused(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/v1/allocate", `{"num_gpus":2}{"num_gpus":3}`, 400},
		{"/v1/allocate", `{"num_gpus":2} x`, 400},
		{"/v1/allocate", `{"num_gpus":2}}`, 400},
		{"/v1/allocate", `{"num_gpus":2} 3`, 400},
		{"/v1/release", `{"tenant":"a","lease_id":1} x`, 400},
		{"/v1/health", `{"action":"mark","gpus":[5]}[]`, 400},
		{"/v1/allocate", "{\"num_gpus\":2} \n\t\r\n", 200},
		{"/v1/release", "{\"tenant\":\"a\",\"lease_id\":1}\n", 200},
	} {
		srv, _ := newTestServer(t, Options{})
		if rec := serve(srv, http.MethodPost, "/v1/allocate", `{"tenant":"a","num_gpus":2}`); rec.Code != 200 {
			t.Fatalf("setup allocate: %d %s", rec.Code, rec.Body)
		}
		before := fmt.Sprint(srv.sys.Leases(), srv.sys.UnhealthyGPUs())
		rec := serve(srv, http.MethodPost, tc.path, tc.body)
		if rec.Code != tc.code {
			t.Errorf("POST %s %q: code %d, want %d (%s)", tc.path, tc.body, rec.Code, tc.code, rec.Body)
			continue
		}
		if after := fmt.Sprint(srv.sys.Leases(), srv.sys.UnhealthyGPUs()); tc.code != 200 && after != before {
			t.Errorf("POST %s %q: refused but changed the state:\n before %s\n after  %s", tc.path, tc.body, before, after)
		}
	}
}

// TestJournalFailureIsServerFault: a mutation the journal refuses is a
// 500, never "unknown lease" or a bad request — the daemon still holds
// the lease. After Close the journal refuses every append; release,
// renew and mark answer 500 and the lease stays listed, while a health
// event the System refuses on its own merits still answers 400.
func TestJournalFailureIsServerFault(t *testing.T) {
	sys, err := mapa.NewSystem("dgx-a100", "preserve",
		mapa.WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncInterval, Interval: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Options{})
	rec := serve(srv, http.MethodPost, "/v1/allocate", `{"tenant":"a","num_gpus":2}`)
	var ar AllocateResponse
	if err := json.NewDecoder(rec.Body).Decode(&ar); err != nil || rec.Code != 200 {
		t.Fatalf("allocate: %d %v", rec.Code, err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		code       int
	}{
		{"/v1/release", fmt.Sprintf(`{"tenant":"a","lease_id":%d}`, ar.LeaseID), 500},
		{"/v1/renew", fmt.Sprintf(`{"tenant":"a","lease_id":%d,"ttl_ms":1000}`, ar.LeaseID), 500},
		{"/v1/health", `{"action":"mark","gpus":[5]}`, 500},
		{"/v1/health", `{"action":"mark","gpus":[99]}`, 400},
		{"/v1/release", `{"tenant":"a","lease_id":99}`, 404},
	} {
		if rec := serve(srv, http.MethodPost, tc.path, tc.body); rec.Code != tc.code {
			t.Errorf("POST %s %s after Close: code %d, want %d (%s)", tc.path, tc.body, rec.Code, tc.code, rec.Body)
		}
	}
	var lr LeasesResponse
	if err := json.NewDecoder(serve(srv, http.MethodGet, "/v1/leases", "").Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Leases) != 1 || lr.Leases[0].LeaseID != ar.LeaseID {
		t.Fatalf("leases after refused mutations = %+v, want lease %d", lr.Leases, ar.LeaseID)
	}
}
