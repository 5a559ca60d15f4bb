// Command mapaload is mapad's load generator: it drives a running
// daemon with synthetic multi-tenant allocate/release traffic and
// reports sustained throughput and latency percentiles.
//
// Usage:
//
//	mapaload -addr http://127.0.0.1:8080 -tenants 8 -duration 10s
//	mapaload -rate 2000 -gpus 2,3,4 -shapes Ring,AllToAll
//	mapaload -coldshape Ring:6 -benchout   # cold-build overlap probe
//
// Closed-loop mode (default): each tenant runs a feedback loop holding
// up to -hold leases, allocating and releasing as fast as the daemon
// answers. Open-loop mode (-rate > 0) fires allocate+release pairs at
// a fixed aggregate rate regardless of response latency, the way real
// arrival processes do, and reports drops when the in-flight cap is
// hit.
//
// With -coldshape, one request for an expensive never-warmed shape
// fires mid-run: the daemon builds that shape's universe while normal
// traffic continues, and the report shows warmed-path throughput
// inside the build window — the no-full-system-stall check.
//
// With -benchout, results are also printed as Go benchmark result
// lines so `mapaload -benchout | benchjson` archives them (the CI
// BENCH_mapad.json artifact).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapa"
	"mapa/internal/policy"
)

// options bundles the load generator's CLI configuration.
type options struct {
	addr          string
	tenants       int
	duration      time.Duration
	rate          float64
	gpus          string
	shapes        string
	sensitive     float64
	hold          int
	coldShape     string
	coldAt        float64
	seed          int64
	benchout      bool
	fleetNodes    int
	fleetTemplate string
	fleetPolicy   string
	retries       int
	retryBase     time.Duration
	retryCap      time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "mapad base URL")
	flag.IntVar(&o.tenants, "tenants", 8, "concurrent tenant loops")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "run length")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop aggregate request rate per second (0 = closed loop)")
	flag.StringVar(&o.gpus, "gpus", "2,3,4", "comma-separated GPU counts to mix uniformly")
	flag.StringVar(&o.shapes, "shapes", "Ring", "comma-separated shapes to mix uniformly")
	flag.Float64Var(&o.sensitive, "sensitive", 0.5, "fraction of requests marked bandwidth-sensitive")
	flag.IntVar(&o.hold, "hold", 4, "closed loop: max outstanding leases per tenant")
	flag.StringVar(&o.coldShape, "coldshape", "", "shape:size to request once mid-run, forcing a cold universe build (e.g. Ring:6)")
	flag.Float64Var(&o.coldAt, "coldat", 0.5, "when to fire the cold request, as a fraction of -duration")
	flag.Int64Var(&o.seed, "seed", 1, "request-mix seed")
	flag.BoolVar(&o.benchout, "benchout", false, "also print Go benchmark result lines for benchjson")
	flag.IntVar(&o.fleetNodes, "fleet", 0, "drive an in-process fleet System of this many nodes instead of a daemon (closed loop; -addr/-rate/-coldshape ignored)")
	flag.StringVar(&o.fleetTemplate, "fleettemplate", "dgx-a100", "node-template topology for -fleet")
	flag.StringVar(&o.fleetPolicy, "fleetpolicy", "preserve", "allocation policy for -fleet")
	flag.IntVar(&o.retries, "retries", 3, "allocate retries on 429/503 before giving up (0 disables)")
	flag.DurationVar(&o.retryBase, "retry-base", 5*time.Millisecond, "first retry backoff; doubles per attempt with jitter")
	flag.DurationVar(&o.retryCap, "retry-cap", 250*time.Millisecond, "backoff ceiling; a server Retry-After overrides the computed delay")
	flag.Parse()

	run := run
	if o.fleetNodes > 0 {
		run = runFleet
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mapaload:", err)
		os.Exit(1)
	}
}

// sample is one completed allocate decision.
type sample struct {
	latency time.Duration
	done    time.Time
}

// counters aggregates one worker's outcome tallies.
type counters struct {
	ok, noalloc, throttled, failed int
}

func (c *counters) add(d counters) {
	c.ok += d.ok
	c.noalloc += d.noalloc
	c.throttled += d.throttled
	c.failed += d.failed
}

// client wraps the two mapad calls the generator makes. Allocates that
// bounce off backpressure (429 admission overflow, 503 drain) retry
// with capped exponential backoff + jitter, honoring a server
// Retry-After; retried and exhausted tallies feed the run summary.
type client struct {
	base      string
	http      *http.Client
	retries   int
	retryBase time.Duration
	retryCap  time.Duration
	retried   atomic.Uint64 // attempts re-fired after backpressure
	exhausted atomic.Uint64 // allocates dropped with retries spent
}

type allocateResponse struct {
	LeaseID int   `json:"lease_id"`
	GPUs    []int `json:"gpus"`
}

// retryable reports whether the status is a backpressure signal worth
// backing off on, rather than a decision outcome.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoff computes the sleep before retry attempt (0-based): the
// doubled-per-attempt base, capped, with full jitter on the upper
// half; a server-provided Retry-After acts as a floor.
func backoff(attempt int, base, cap, retryAfter time.Duration) time.Duration {
	d := base << attempt
	if d > cap || d <= 0 {
		d = cap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// allocate returns the HTTP status code and, on 200, the lease.
func (c *client) allocate(tenant, shape string, n int, sensitive bool) (int, allocateResponse, error) {
	code, retryAfter, ar, err := c.allocateOnce(tenant, shape, n, sensitive)
	for attempt := 0; attempt < c.retries && err == nil && retryable(code); attempt++ {
		time.Sleep(backoff(attempt, c.retryBase, c.retryCap, retryAfter))
		c.retried.Add(1)
		code, retryAfter, ar, err = c.allocateOnce(tenant, shape, n, sensitive)
	}
	if c.retries > 0 && err == nil && retryable(code) {
		c.exhausted.Add(1)
	}
	return code, ar, err
}

func (c *client) allocateOnce(tenant, shape string, n int, sensitive bool) (int, time.Duration, allocateResponse, error) {
	body, _ := json.Marshal(map[string]interface{}{
		"tenant": tenant, "num_gpus": n, "shape": shape, "sensitive": sensitive,
	})
	resp, err := c.http.Post(c.base+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, allocateResponse{}, err
	}
	defer resp.Body.Close()
	var ar allocateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			return resp.StatusCode, 0, ar, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, ar, nil
}

func (c *client) release(tenant string, leaseID int) error {
	body, _ := json.Marshal(map[string]interface{}{"tenant": tenant, "lease_id": leaseID})
	resp, err := c.http.Post(c.base+"/v1/release", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// summary is one run's aggregate result.
type summary struct {
	counters
	elapsed    time.Duration
	latencies  []time.Duration // successful allocates, unsorted
	p50        time.Duration
	p90        time.Duration
	p99        time.Duration
	mean       time.Duration
	rate       float64 // successful decisions/sec over the run
	dropped    int     // open loop: fires skipped at the in-flight cap
	retried    uint64  // allocate attempts re-fired after 429/503 backoff
	exhausted  uint64  // allocates dropped with all retries spent
	coldBuild  time.Duration
	coldOK     int     // decisions completed inside the cold window
	coldRate   float64 // decisions/sec inside the cold window
	coldMean   time.Duration
	coldServed bool
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// parseMix parses a comma-separated int list.
func parseMix(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad GPU count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty GPU mix")
	}
	return out, nil
}

// parseCold parses "Shape:size".
func parseCold(s string) (string, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("coldshape must be shape:size, got %q", s)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, fmt.Errorf("bad coldshape size %q", parts[1])
	}
	return parts[0], n, nil
}

func run(o options, w io.Writer) error {
	sizes, err := parseMix(o.gpus)
	if err != nil {
		return err
	}
	shapes := strings.Split(o.shapes, ",")
	for i := range shapes {
		shapes[i] = strings.TrimSpace(shapes[i])
	}
	if o.retryBase <= 0 {
		o.retryBase = 5 * time.Millisecond
	}
	if o.retryCap < o.retryBase {
		o.retryCap = o.retryBase
	}
	cl := &client{
		base: strings.TrimRight(o.addr, "/"),
		http: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        4 * o.tenants,
				MaxIdleConnsPerHost: 4 * o.tenants,
			},
		},
		retries:   o.retries,
		retryBase: o.retryBase,
		retryCap:  o.retryCap,
	}

	start := time.Now()
	deadline := start.Add(o.duration)
	var (
		mu      sync.Mutex
		samples []sample
		total   counters
		dropped int
	)
	record := func(s sample, c counters) {
		mu.Lock()
		if s.latency > 0 {
			samples = append(samples, s)
		}
		total.add(c)
		mu.Unlock()
	}

	// Cold-build probe: one expensive never-warmed shape fired mid-run.
	var coldStart, coldEnd time.Time
	var coldWG sync.WaitGroup
	if o.coldShape != "" {
		shape, n, err := parseCold(o.coldShape)
		if err != nil {
			return err
		}
		coldWG.Add(1)
		go func() {
			defer coldWG.Done()
			time.Sleep(time.Duration(o.coldAt * float64(o.duration)))
			coldStart = time.Now()
			code, ar, err := cl.allocate("cold-probe", shape, n, true)
			coldEnd = time.Now()
			if err == nil && code == http.StatusOK {
				cl.release("cold-probe", ar.LeaseID)
			}
		}()
	}

	var wg sync.WaitGroup
	if o.rate > 0 {
		// Open loop: fire allocate+release pairs at a fixed aggregate
		// rate from a pacing clock; each fire runs in its own goroutine
		// up to an in-flight cap, past which fires are dropped (and
		// reported) rather than queued — the load does not slow down
		// because the server does.
		inflight := make(chan struct{}, 8*o.tenants)
		interval := time.Duration(float64(time.Second) / o.rate)
		rng := rand.New(rand.NewSource(o.seed))
		for i := 0; time.Now().Before(deadline); i++ {
			tenant := fmt.Sprintf("tenant-%d", i%o.tenants)
			n := sizes[rng.Intn(len(sizes))]
			shape := shapes[rng.Intn(len(shapes))]
			sens := rng.Float64() < o.sensitive
			select {
			case inflight <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-inflight }()
					var c counters
					t0 := time.Now()
					code, ar, err := cl.allocate(tenant, shape, n, sens)
					lat := time.Since(t0)
					s := sample{}
					switch {
					case err != nil:
						c.failed++
					case code == http.StatusOK:
						c.ok++
						s = sample{latency: lat, done: time.Now()}
						cl.release(tenant, ar.LeaseID)
					case code == http.StatusConflict:
						c.noalloc++
					case retryable(code):
						c.throttled++
					default:
						c.failed++
					}
					record(s, c)
				}()
			default:
				mu.Lock()
				dropped++
				mu.Unlock()
			}
			time.Sleep(interval)
		}
	} else {
		// Closed loop: each tenant holds up to -hold leases and churns
		// allocate/release as fast as the daemon answers.
		for w := 0; w < o.tenants; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.seed + int64(w)))
				tenant := fmt.Sprintf("tenant-%d", w)
				var leases []int
				var c counters
				var local []sample
				for time.Now().Before(deadline) {
					if len(leases) < o.hold && (len(leases) == 0 || rng.Intn(2) == 0) {
						n := sizes[rng.Intn(len(sizes))]
						shape := shapes[rng.Intn(len(shapes))]
						t0 := time.Now()
						code, ar, err := cl.allocate(tenant, shape, n, rng.Float64() < o.sensitive)
						lat := time.Since(t0)
						switch {
						case err != nil:
							c.failed++
						case code == http.StatusOK:
							c.ok++
							local = append(local, sample{latency: lat, done: time.Now()})
							leases = append(leases, ar.LeaseID)
						case code == http.StatusConflict:
							c.noalloc++
							if len(leases) > 0 {
								cl.release(tenant, leases[0])
								leases = leases[1:]
							}
						case retryable(code):
							c.throttled++
							time.Sleep(time.Millisecond)
						default:
							c.failed++
						}
					} else if len(leases) > 0 {
						cl.release(tenant, leases[0])
						leases = leases[1:]
					}
				}
				for _, id := range leases {
					cl.release(tenant, id)
				}
				for _, s := range local {
					record(s, counters{})
				}
				record(sample{}, c)
			}(w)
		}
	}
	wg.Wait()
	coldWG.Wait()
	elapsed := time.Since(start)

	sum := summarize(samples, total, elapsed, dropped)
	sum.retried = cl.retried.Load()
	sum.exhausted = cl.exhausted.Load()
	if o.coldShape != "" && !coldEnd.IsZero() {
		sum.coldServed = true
		sum.coldBuild = coldEnd.Sub(coldStart)
		var coldLat time.Duration
		for _, s := range samples {
			if s.done.After(coldStart) && s.done.Before(coldEnd) {
				sum.coldOK++
				coldLat += s.latency
			}
		}
		if sum.coldBuild > 0 {
			sum.coldRate = float64(sum.coldOK) / sum.coldBuild.Seconds()
		}
		if sum.coldOK > 0 {
			sum.coldMean = coldLat / time.Duration(sum.coldOK)
		}
	}
	report(o, w, sum)
	return nil
}

// summarize folds raw samples and tallies into a run summary with
// latency percentiles and sustained throughput.
func summarize(samples []sample, total counters, elapsed time.Duration, dropped int) summary {
	sum := summary{counters: total, elapsed: elapsed, dropped: dropped}
	sorted := make([]time.Duration, len(samples))
	var totalLat time.Duration
	for i, s := range samples {
		sorted[i] = s.latency
		totalLat += s.latency
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sum.p50 = percentile(sorted, 0.50)
	sum.p90 = percentile(sorted, 0.90)
	sum.p99 = percentile(sorted, 0.99)
	if len(sorted) > 0 {
		sum.mean = totalLat / time.Duration(len(sorted))
	}
	sum.rate = float64(total.ok) / elapsed.Seconds()
	return sum
}

// runFleet is the -fleet mode: instead of talking HTTP to a daemon, it
// constructs a fleet System in-process — node-symmetric templates, the
// hierarchical two-level decision path — and churns it with the same
// closed-loop tenant structure. This measures the fleet decision path
// itself at sizes no flattened daemon instance could host (the flat
// pipeline is only materialized up to FleetFlattenLimit GPUs).
func runFleet(o options, w io.Writer) error {
	sizes, err := parseMix(o.gpus)
	if err != nil {
		return err
	}
	shapes := strings.Split(o.shapes, ",")
	maxSize := 0
	for i := range shapes {
		shapes[i] = strings.TrimSpace(shapes[i])
	}
	for _, n := range sizes {
		if n > maxSize {
			maxSize = n
		}
	}
	fs, err := mapa.NewFleetSystem(o.fleetTemplate, o.fleetNodes, o.fleetPolicy,
		mapa.WithWarmShapes(maxSize))
	if err != nil {
		return err
	}

	start := time.Now()
	deadline := start.Add(o.duration)
	var (
		mu      sync.Mutex
		samples []sample
		total   counters
	)
	var wg sync.WaitGroup
	for t := 0; t < o.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(t)))
			var leases []*mapa.Lease
			var c counters
			var local []sample
			for time.Now().Before(deadline) {
				if len(leases) < o.hold && (len(leases) == 0 || rng.Intn(2) == 0) {
					req := mapa.JobRequest{
						NumGPUs:   sizes[rng.Intn(len(sizes))],
						Shape:     shapes[rng.Intn(len(shapes))],
						Sensitive: rng.Float64() < o.sensitive,
					}
					t0 := time.Now()
					lease, err := fs.Allocate(req)
					lat := time.Since(t0)
					switch {
					case err == nil:
						c.ok++
						local = append(local, sample{latency: lat, done: time.Now()})
						leases = append(leases, lease)
					case errors.Is(err, policy.ErrNoAllocation):
						c.noalloc++
						if len(leases) > 0 {
							fs.Release(leases[0])
							leases = leases[1:]
						}
					default:
						c.failed++
					}
				} else if len(leases) > 0 {
					fs.Release(leases[0])
					leases = leases[1:]
				}
			}
			for _, l := range leases {
				fs.Release(l)
			}
			mu.Lock()
			samples = append(samples, local...)
			total.add(c)
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := summarize(samples, total, elapsed, 0)
	report(o, w, sum)
	st := fs.CacheStats()
	fmt.Fprintf(w, "  fleet: %d nodes, %d universes / %d tables (built in %s); %d hierarchical, %d flat-fallback\n",
		o.fleetNodes, st.Universes, st.ScoreTables,
		(st.UniverseBuildTime + st.TableBuildTime).Round(time.Millisecond),
		st.FleetServed, st.TableServed+st.ViewRejected)
	return nil
}

func report(o options, w io.Writer, s summary) {
	mode := "closed-loop"
	if o.rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f req/s", o.rate)
	}
	if o.fleetNodes > 0 {
		mode = fmt.Sprintf("in-process fleet (%d × %s, %s policy)", o.fleetNodes, o.fleetTemplate, o.fleetPolicy)
	}
	fmt.Fprintf(w, "mapaload: %s, %d tenants, %s\n", mode, o.tenants, s.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  decisions: %d ok, %d no-allocation, %d throttled (429/503), %d failed, %d dropped\n",
		s.ok, s.noalloc, s.throttled, s.failed, s.dropped)
	if s.retried > 0 || s.exhausted > 0 {
		fmt.Fprintf(w, "  backpressure: %d attempts retried, %d allocates exhausted retries\n",
			s.retried, s.exhausted)
	}
	fmt.Fprintf(w, "  throughput: %.1f decisions/sec\n", s.rate)
	fmt.Fprintf(w, "  allocate latency: mean %s  p50 %s  p90 %s  p99 %s\n", s.mean, s.p50, s.p90, s.p99)
	if s.coldServed {
		fmt.Fprintf(w, "  cold build (%s): %s wall; traffic during build: %d decisions (%.1f/sec, mean %s)\n",
			o.coldShape, s.coldBuild.Round(time.Millisecond), s.coldOK, s.coldRate, s.coldMean)
	}
	if !o.benchout {
		return
	}
	// Go benchmark result lines, parseable by cmd/benchjson: name,
	// iteration count, then value/unit pairs.
	name := "BenchmarkMapadSustained"
	if o.fleetNodes > 0 {
		name = fmt.Sprintf("BenchmarkFleetSustained/nodes-%d", o.fleetNodes)
	}
	fmt.Fprintf(w, "%s %d %d ns/op %.1f decisions/sec %d p50-ns %d p90-ns %d p99-ns %d retried %d retry-exhausted\n",
		name, s.ok, s.mean.Nanoseconds(), s.rate, s.p50.Nanoseconds(), s.p90.Nanoseconds(), s.p99.Nanoseconds(),
		s.retried, s.exhausted)
	if s.coldServed {
		fmt.Fprintf(w, "BenchmarkMapadColdOverlap %d %d ns/op %.1f decisions/sec %d cold-build-ns\n",
			s.coldOK, s.coldMean.Nanoseconds(), s.coldRate, s.coldBuild.Nanoseconds())
	}
}
