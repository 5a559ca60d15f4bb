package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mapa"
	"mapa/internal/journal"
)

// fuzzRoutes are the POST routes whose bodies FuzzServeRequest sends.
var fuzzRoutes = []string{"/v1/allocate", "/v1/release", "/v1/renew", "/v1/health"}

// fuzzStatuses is the documented status set for a single request to a
// healthy, undrained server with a free admission queue (see the
// package comment); anything else — a 500 above all — is a bug.
var fuzzStatuses = map[int]bool{200: true, 400: true, 403: true, 404: true, 409: true, 413: true}

// FuzzServeRequest sends arbitrary bytes as the body of one POST route
// to an in-process server over a journaled dgx-a100 System holding two
// leases (one owned by tenant "a", one unowned) and one unhealthy GPU.
// The request must not panic, must answer a documented status, and
// when it answers anything but 2xx must leave the lease table, the
// free GPUs and the health set exactly as they were.
func FuzzServeRequest(f *testing.F) {
	for i, body := range []string{
		`{"tenant":"a","num_gpus":2,"shape":"Ring","sensitive":true,"ttl_ms":60000}`,
		`{"tenant":"a","lease_id":1}`,
		`{"tenant":"a","lease_id":1,"ttl_ms":1000}`,
		`{"action":"mark","gpus":[5]}`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	f.Add(uint8(0), []byte(`{"tenant":"`+strings.Repeat("a", maxBodyBytes)+`"}`))
	for _, body := range []string{
		`{"num_gpus":2}{"num_gpus":3}`,
		`{"num_gpus":2} x`,
		"{\"num_gpus\":2} \n\t\r\n",
	} {
		f.Add(uint8(0), []byte(body))
	}
	for _, bw := range []string{"NaN", "-1", "12.5"} {
		f.Add(uint8(3), []byte(`{"action":"degrade","u":0,"v":1,"bw":`+bw+`}`))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		sys, err := mapa.NewSystem("dgx-a100", "preserve",
			mapa.WithJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncInterval, Interval: time.Hour}))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		srv := New(sys, Options{})
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		for _, setup := range []string{
			`{"tenant":"a","num_gpus":2,"ttl_ms":60000}`,
			`{"num_gpus":3}`,
		} {
			if rec := do(http.MethodPost, "/v1/allocate", []byte(setup)); rec.Code != http.StatusOK {
				t.Fatalf("setup allocate %s: %d %s", setup, rec.Code, rec.Body)
			}
		}
		if err := sys.MarkUnhealthy(7); err != nil {
			t.Fatal(err)
		}
		state := func() string {
			leases := do(http.MethodGet, "/v1/leases", nil)
			if leases.Code != http.StatusOK {
				t.Fatalf("GET /v1/leases: %d", leases.Code)
			}
			return fmt.Sprint(leases.Body.String(), sys.FreeGPUs(), sys.UnhealthyGPUs())
		}
		before := state()

		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := do(http.MethodPost, path, body)
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("POST %s %q: undocumented status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code/100 == 2 {
			return
		}
		var er errorResponse
		if err := json.NewDecoder(rec.Body).Decode(&er); err != nil || er.Error == "" {
			t.Fatalf("POST %s %q: %d without an error body (%v)", path, body, rec.Code, err)
		}
		if after := state(); after != before {
			t.Fatalf("POST %s %q: %d (%s) changed the state:\n before %s\n after  %s", path, body, rec.Code, er.Error, before, after)
		}
	})
}
