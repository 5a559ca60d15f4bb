package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mapa"
)

// latencyBuckets are the allocate-latency histogram's upper bounds in
// seconds: decade steps with 2.5/5 subdivisions from 1 µs (a
// table-served decision) to 10 s (a cold universe build on a large
// machine), the classic Prometheus exponential ladder.
var latencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// histogram is a fixed-bucket Prometheus histogram: counts[i] is the
// number of observations <= buckets[i] (cumulated at render time, the
// exposition-format convention).
type histogram struct {
	buckets []float64
	counts  []uint64
	sum     float64
	count   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
}

// reqKey labels one requests_total series; the status code is
// formatted only when the series is rendered.
type reqKey struct {
	route string
	code  int
}

// metrics holds the daemon's own counters; the match-pipeline and
// machine-state gauges are read live from the System at scrape time.
type metrics struct {
	mu        sync.Mutex
	requests  map[reqKey]uint64
	latency   *histogram // allocate request latency, seconds
	rejected  uint64     // admission-queue overflows (429s)
	coalesced uint64     // requests served as batch joiners
	batches   uint64     // coalesced batches executed
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[reqKey]uint64),
		latency:  newHistogram(latencyBuckets),
	}
}

func (m *metrics) request(route string, code int) {
	m.mu.Lock()
	m.requests[reqKey{route, code}]++
	m.mu.Unlock()
}

func (m *metrics) observeAllocate(d time.Duration) {
	m.mu.Lock()
	m.latency.observe(d.Seconds())
	m.mu.Unlock()
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *metrics) coalesce(joiners int) {
	m.mu.Lock()
	m.batches++
	m.coalesced += uint64(joiners)
	m.mu.Unlock()
}

// render writes the Prometheus text exposition format: the daemon's
// request counters and allocate-latency histogram, the machine-state
// gauges, and the System's match-pipeline counters (modeled on the
// ROCm device plugin's monitoring metrics — health and utilization as
// first-class series).
func (m *metrics) render(w io.Writer, sys *mapa.System, queued, queueDepth int) {
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintln(w, "# HELP mapad_requests_total HTTP requests served, by route and status code.")
	fmt.Fprintln(w, "# TYPE mapad_requests_total counter")
	for _, k := range keys {
		fmt.Fprintf(w, "mapad_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}
	fmt.Fprintln(w, "# HELP mapad_allocate_latency_seconds Wall time of allocate requests, admission to response.")
	fmt.Fprintln(w, "# TYPE mapad_allocate_latency_seconds histogram")
	cum := uint64(0)
	for i, ub := range m.latency.buckets {
		cum += m.latency.counts[i]
		fmt.Fprintf(w, "mapad_allocate_latency_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	fmt.Fprintf(w, "mapad_allocate_latency_seconds_bucket{le=\"+Inf\"} %d\n", m.latency.count)
	fmt.Fprintf(w, "mapad_allocate_latency_seconds_sum %g\n", m.latency.sum)
	fmt.Fprintf(w, "mapad_allocate_latency_seconds_count %d\n", m.latency.count)
	fmt.Fprintln(w, "# HELP mapad_admission_rejected_total Requests rejected with 429 because the admission queue was full.")
	fmt.Fprintln(w, "# TYPE mapad_admission_rejected_total counter")
	fmt.Fprintf(w, "mapad_admission_rejected_total %d\n", m.rejected)
	fmt.Fprintln(w, "# HELP mapad_coalesced_requests_total Allocate requests served by joining another request's batch.")
	fmt.Fprintln(w, "# TYPE mapad_coalesced_requests_total counter")
	fmt.Fprintf(w, "mapad_coalesced_requests_total %d\n", m.coalesced)
	fmt.Fprintln(w, "# HELP mapad_coalesced_batches_total Coalesced allocate batches executed.")
	fmt.Fprintln(w, "# TYPE mapad_coalesced_batches_total counter")
	fmt.Fprintf(w, "mapad_coalesced_batches_total %d\n", m.batches)
	m.mu.Unlock()

	free := len(sys.FreeGPUs())
	unhealthy := len(sys.UnhealthyGPUs())
	cs := sys.CacheStats()
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	gauge("mapad_gpus_total", "GPUs in the serving topology.", sys.NumGPUs())
	gauge("mapad_gpus_free", "GPUs currently free.", free)
	gauge("mapad_gpus_unhealthy", "GPUs currently marked unhealthy (visible, unallocatable).", unhealthy)
	gauge("mapad_leases_active", "Live leases.", sys.ActiveLeases())
	gauge("mapad_admission_queued", "Requests currently admitted (in flight or queued on the decision lock).", queued)
	gauge("mapad_admission_depth", "Admission queue capacity.", queueDepth)
	warm := 0
	if sys.Warmed() {
		warm = 1
	}
	gauge("mapad_warm", "Whether the construction-time warm set is fully resident (1) or still building (0).", warm)
	counter("mapad_decisions_table_served_total", "Decisions answered by the table-served selection path (precomputed scores + O(k) arithmetic).", cs.TableServed)
	counter("mapad_decisions_search_served_total", "Decisions the view stream declined (incomplete universe, a binding candidate cap, or a stream out of sync with the state, which only a mis-published delta causes), answered by a fresh search.", cs.ViewRejected)
	gauge("mapad_universes_resident", "Idle-state match universes resident in the shared store.", cs.Universes)
	gauge("mapad_score_tables_resident", "Precomputed score tables resident in the shared store.", cs.ScoreTables)
	fmt.Fprintf(w, "# HELP mapad_universe_build_seconds_total Summed wall time of idle-state universe builds.\n")
	fmt.Fprintf(w, "# TYPE mapad_universe_build_seconds_total counter\n")
	fmt.Fprintf(w, "mapad_universe_build_seconds_total %g\n", cs.UniverseBuildTime.Seconds())
	fmt.Fprintf(w, "# HELP mapad_table_build_seconds_total Summed wall time of score-table builds over those universes.\n")
	fmt.Fprintf(w, "# TYPE mapad_table_build_seconds_total counter\n")
	fmt.Fprintf(w, "mapad_table_build_seconds_total %g\n", cs.TableBuildTime.Seconds())
	counter("mapad_topology_repairs_total", "Link-degradation events absorbed by incremental score-table repair.", cs.Repairs)

	// Durability series: present only when the daemon runs journaled.
	if js, ok := sys.JournalStats(); ok {
		counter("mapad_journal_records_total", "Mutation records appended to the write-ahead journal since the last snapshot truncation epoch began, plus replayed history.", js.Records)
		counter("mapad_journal_bytes_total", "Bytes appended to the write-ahead journal.", js.Bytes)
		counter("mapad_journal_fsyncs_total", "fsync calls issued against the journal.", js.Fsyncs)
		gauge("mapad_journal_last_seq", "Sequence number of the most recent journal record.", js.LastSeq)
		gauge("mapad_journal_records_since_snapshot", "Journal records accumulated since the last snapshot (replay debt).", js.RecordsSinceSnapshot)
		gauge("mapad_journal_snapshot_bytes", "Size of the last state snapshot in bytes (0 if none).", js.SnapshotBytes)
		age := float64(-1)
		if js.SnapshotUnixNano > 0 {
			age = time.Since(time.Unix(0, js.SnapshotUnixNano)).Seconds()
		}
		gauge("mapad_journal_snapshot_age_seconds", "Seconds since the last snapshot was written (-1 if none).", age)
		rs := sys.Recovery()
		gauge("mapad_leases_recovered", "Leases reconstructed from snapshot + journal at daemon startup.", rs.Leases)
		gauge("mapad_recovery_replay_seconds", "Wall time of the startup journal replay.", rs.ReplayTime.Seconds())
		counter("mapad_recovery_records_replayed_total", "Journal records replayed at daemon startup.", rs.Records)
		counter("mapad_leases_reaped_total", "Leases expired by the TTL reaper (journaled as releases).", sys.Reaped())
	}
}

// formatFloat renders a bucket bound the way Prometheus clients do —
// no exponent for the common range, no trailing zeros.
func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
