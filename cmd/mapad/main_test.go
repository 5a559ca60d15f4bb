package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"mapa/internal/server"
)

// TestNewServerWiring drives the daemon's construction path end to end
// over a test listener: background warming, allocate/release, probe
// and metrics routes.
func TestNewServerWiring(t *testing.T) {
	o := options{
		topoName:    "dgx-a100",
		policyName:  "preserve",
		warmMaxGPUs: 4,
		queueDepth:  8,
		coalesce:    time.Millisecond,
	}
	srv, sys, err := newServer(o)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	sys.WaitWarm()
	ts := httptest.NewServer(httpServer(o, srv).Handler)
	defer ts.Close()

	body, _ := json.Marshal(server.AllocateRequest{Tenant: "t", NumGPUs: 2})
	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	var ar server.AllocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(ar.GPUs) != 2 {
		t.Fatalf("allocate: code %d lease %+v", resp.StatusCode, ar)
	}
	body, _ = json.Marshal(server.ReleaseRequest{Tenant: "t", LeaseID: ar.LeaseID})
	resp, err = http.Post(ts.URL+"/v1/release", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("release: %v code %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	for _, route := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s: %v code %d", route, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if sys.ActiveLeases() != 0 {
		t.Fatalf("leaked leases: %d", sys.ActiveLeases())
	}
}

// raceBuild is set when the tests run under the race detector.
var raceBuild bool

// TestHTTPCycleAllocations pins one warm allocate+release cycle served
// through the daemon's own handler on dgx-a100 at its measured cost,
// request construction and response recording included. A per-request
// handler deadline wrapper — a goroutine, a timer and a buffered reply
// per request — raised it to 106.
func TestHTTPCycleAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("under -race sync.Pool drops items at random, so net/http's allocation count is not stable")
	}
	const pinned = 62
	o := options{topoName: "dgx-a100", policyName: "preserve", warmMaxGPUs: 3, syncWarm: true}
	srv, _, err := newServer(o)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	h := httpServer(o, srv).Handler
	allocBody := []byte(`{"tenant":"t","num_gpus":2}`)
	var releaseBody []byte
	lease := int64(0)
	serve := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		serve("/v1/allocate", allocBody)
		// Leases are numbered in grant order, so the release body is
		// formatted into a reused buffer instead of decoding the reply.
		lease++
		releaseBody = append(releaseBody[:0], `{"tenant":"t","lease_id":`...)
		releaseBody = append(strconv.AppendInt(releaseBody, lease, 10), '}')
		serve("/v1/release", releaseBody)
	})
	t.Logf("%v allocations per allocate+release cycle", got)
	if got > pinned {
		t.Fatalf("%v allocations per allocate+release cycle, want <= %d", got, pinned)
	}
}

func TestNewServerRejectsUnknownTopology(t *testing.T) {
	if _, _, err := newServer(options{topoName: "no-such-machine", policyName: "preserve"}); err == nil {
		t.Fatal("want error for unknown topology")
	}
}
