package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapa"
	"mapa/internal/server"
)

// window is what the clients saw between two marks of the run's clock.
type window struct {
	dur            time.Duration
	grants, ops    int
	alloc, release []float64 // client-observed latency, µs
	// cycles holds, per client, the µs from one reply to that client's
	// next: request, reply and the client's own work between them.
	cycles    [numClients][]float64
	effbwSum  float64 // eff_bw of sensitive multi-GPU grants
	effbwN    int
	daemonCPU time.Duration
}

// paceRate is the window's grants per second at its median pace: each
// client's operations per second taken from its median cycle, summed,
// times the share of the window's operations that were grants.
//
// Counting grants against the wall clock charges the program for every
// millisecond the host gave the core to someone else, and on a shared
// host that is most of what such a count then measures (grants per wall
// second halved for minutes while the median request took what it always
// takes). The median cycle is the time an operation takes when nothing
// interrupts it. It does not see rare stalls, the program's own
// included; the traced run's client.alloc_p99_us and
// client.granted_per_s_wall do.
func (wd *window) paceRate() float64 {
	var opsPerS float64
	for _, cyc := range wd.cycles {
		if len(cyc) > 0 {
			opsPerS += 1e6 / percentile(cyc, 50)
		}
	}
	return opsPerS * float64(wd.grants) / float64(wd.ops)
}

// sample is one timed operation as its client saw it.
type sample struct {
	end   int64 // clock() when the reply had been read
	us    float64
	kind  opKind
	effbw float64 // eff_bw of a sensitive multi-GPU grant, else 0
}

// mark is one reading of the run's clock and the daemon's CPU clock;
// two neighbouring marks bound a window.
type mark struct {
	at  int64
	cpu time.Duration
}

// tally counts a run's ops and keeps the first few failure messages.
// Counting is lock-free: both clients count every op.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

// ok counts n operations that succeeded.
func (t *tally) ok(n int) { t.attempted.Add(int64(n)) }

func (t *tally) add(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 5 {
		t.notes = append(t.notes, err.Error())
	}
	t.mu.Unlock()
}

// serveRun is the raw outcome of driving one mapad subprocess.
type serveRun struct {
	setupS  []float64 // one per set-up repetition
	windows []window  // merged over the clients
	tally   tally

	handlerMeanUS float64 // daemon's mapad_allocate_latency_seconds over the windows
	rejected429   float64
	peakRSSMB     float64
	ownCPU        time.Duration // generator CPU over the windows
	daemonCPU     time.Duration
	floorUS       float64 // p50 of GET /healthz on the idle daemon
	lost          int     // acked leases a SIGKILLed daemon did not bring back
	restartS      float64
}

// bind issues one allocate+release per (client, shape, size,
// sensitivity), so every tenant stream, on-demand universe and
// per-model selection order exists before anything is timed.
func bind(be backend, w *workload) error {
	for c := 0; c < numClients; c++ {
		for _, shape := range mapa.Shapes() {
			for size := 1; size <= w.maxSize; size++ {
				for _, sens := range []bool{false, true} {
					g, err := be.allocate(c, op{Shape: shape, Size: size, Sensitive: sens})
					if err != nil {
						return fmt.Errorf("binding %s/%d: %w", shape, size, err)
					}
					if err := be.release(c, g.ID); err != nil {
						return fmt.Errorf("binding %s/%d: %w", shape, size, err)
					}
				}
			}
		}
	}
	return nil
}

// runServe sets the daemon up at least `setups` times, and again while
// setupFor has not passed (keeping the last), lets both clients run
// closed-loop for warm+n×win, and audits the lease table afterwards —
// across a SIGKILL and restart when the workload is durable. Journals
// and the daemon log go under dir, which must be empty: a journal left
// by an earlier run would be recovered.
func runServe(e *env, dir string, w *workload, seed int64, setups int, setupFor, warm, win time.Duration, n int) (*serveRun, error) {
	bin, err := e.mapad()
	if err != nil {
		return nil, err
	}
	// The generator runs on one core's worth of scheduler while it
	// drives the daemon: two blocked callers need no more, and should the
	// run not be pinned, a second P would spend the daemon's CPU on the
	// generator's own spinning.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := &serveRun{windows: make([]window, n)}
	logPath := filepath.Join(dir, "mapad.log")
	var d *daemon
	var be *httpBackend
	var journalDir string
	// A set-up of a tenth of a second is repeated more often than one of
	// four: its time is the noisier, and the cheaper to take again.
	for s, begin := 0, time.Now(); s < setups || (time.Since(begin) < setupFor && s < maxSetups); s++ {
		if d != nil {
			be.close()
			d.kill()
			os.RemoveAll(journalDir)
		}
		journalDir = filepath.Join(dir, fmt.Sprintf("journal-%d", s))
		start := time.Now()
		if d, err = startDaemon(bin, logPath, w.daemonArgs(journalDir)); err != nil {
			return nil, err
		}
		be = newHTTPBackend("http://"+d.addr, w, oneConnTransport)
		if err := bind(be, w); err != nil {
			d.kill()
			return nil, err
		}
		run.setupS = append(run.setupS, time.Since(start).Seconds())
	}
	defer func() { d.kill() }()
	defer be.close()

	// The floor under every latency below: one round trip across the
	// process boundary to the idle daemon's cheapest route.
	floor := make([]float64, 1000)
	for i := range floor {
		start := clock()
		if err := be.do(0, "GET", "/healthz", nil, nil); err != nil {
			return nil, err
		}
		floor[i] = float64(clock()-start) / 1e3
	}
	run.floorUS = percentile(floor, 50)

	// Each client keeps its own samples, so the hot path shares nothing;
	// they are sorted into windows after the run.
	samples := make([][]sample, numClients)
	for c := range samples {
		samples[c] = make([]sample, 0, 1<<16)
	}
	t0 := clock() + int64(warm)
	obs := func(client, _ int, o op, start, end int64, g grant, err error) {
		run.tally.add(err)
		if err != nil || end < t0 {
			return
		}
		sm := sample{end: end, us: float64(end-start) / 1e3, kind: o.Kind}
		if o.Kind == opAllocate && o.Sensitive && o.Size > 1 {
			sm.effbw = g.EffBW
		}
		samples[client] = append(samples[client], sm)
	}
	clients := newClients(w, seed, be, newAudit(w.gpus), obs)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				c.step()
			}
		}(c)
	}

	// This goroutine only sleeps to the window boundaries and reads two
	// clocks there; the windows are bounded by when it really read them,
	// not by when it meant to. The metrics scrapes bracket the windows.
	marks := make([]mark, n+1)
	var before map[string]float64
	var ownBefore time.Duration
	for k := range marks {
		time.Sleep(time.Duration(t0 + int64(k)*int64(win) - clock()))
		marks[k].at = clock()
		if marks[k].cpu, err = procCPU(d.pid()); err != nil {
			break
		}
		if k == 0 {
			ownBefore = selfCPU()
			if before, err = scrape(d.addr); err != nil {
				break
			}
		}
	}
	run.ownCPU = selfCPU() - ownBefore
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	after, err := scrape(d.addr)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	if c := delta("mapad_allocate_latency_seconds_count"); c > 0 {
		run.handlerMeanUS = delta("mapad_allocate_latency_seconds_sum") / c * 1e6
	}
	run.rejected429 = delta("mapad_admission_rejected_total")
	run.daemonCPU = marks[n].cpu - marks[0].cpu
	for k := range run.windows {
		run.windows[k].dur = time.Duration(marks[k+1].at - marks[k].at)
		run.windows[k].daemonCPU = marks[k+1].cpu - marks[k].cpu
	}
	for c, mine := range samples {
		k := 0
		for i, sm := range mine { // ends ascend within one client
			for k < n && sm.end >= marks[k+1].at {
				k++
			}
			if k == n {
				break
			}
			if sm.end < marks[0].at {
				continue
			}
			wd := &run.windows[k]
			wd.ops++
			if i > 0 {
				wd.cycles[c] = append(wd.cycles[c], float64(sm.end-mine[i-1].end)/1e3)
			}
			switch sm.kind {
			case opAllocate:
				wd.grants++
				wd.alloc = append(wd.alloc, sm.us)
				if sm.effbw > 0 {
					wd.effbwSum += sm.effbw
					wd.effbwN++
				}
			case opRelease:
				wd.release = append(wd.release, sm.us)
			}
		}
	}

	// Lease audit: the daemon's table must be exactly the leases the
	// clients were granted and have not released.
	want := heldLeases(clients)
	got, err := be.listLeases(0)
	if err != nil {
		return nil, err
	}
	for _, m := range diffLeases(want, got) {
		run.tally.add(fmt.Errorf("lease audit: %s", m))
	}
	run.tally.add(nil) // the audit itself is one checked operation
	if run.peakRSSMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if !w.durable {
		return run, nil
	}

	// Crash audit: SIGKILL, restart on the same journal, and every
	// acked outstanding lease must be back — owner, GPUs and deadline.
	be.close()
	d.kill()
	start := time.Now()
	restarted, err := startDaemon(bin, logPath, w.daemonArgs(journalDir))
	if err != nil {
		return nil, err
	}
	d = restarted
	be.base = "http://" + d.addr
	run.restartS = time.Since(start).Seconds()
	if got, err = be.listLeases(0); err != nil {
		return nil, err
	}
	mismatches := diffLeases(want, got)
	run.lost = len(mismatches)
	for _, m := range mismatches {
		run.tally.add(fmt.Errorf("after SIGKILL and restart: %s", m))
	}
	run.tally.add(nil)
	return run, nil
}

// leaseKey is what must survive of a lease: owner, GPU set, deadline.
type leaseKey struct {
	tenant   string
	gpus     string
	deadline int64
}

// heldLeases is the lease table the clients believe in.
func heldLeases(cs []*client) map[int]leaseKey {
	want := make(map[int]leaseKey)
	for _, c := range cs {
		for _, g := range c.outstanding() {
			want[g.ID] = leaseKey{tenantName(c.id), fmt.Sprint(g.GPUs), g.Deadline}
		}
	}
	return want
}

// diffLeases describes every difference between the leases the
// generator holds and a daemon's /v1/leases listing.
func diffLeases(want map[int]leaseKey, got []server.LeaseEntry) []string {
	var out []string
	seen := make(map[int]bool)
	for _, l := range got {
		seen[l.LeaseID] = true
		k := leaseKey{l.Tenant, fmt.Sprint(l.GPUs), l.Deadline}
		if w, ok := want[l.LeaseID]; !ok {
			out = append(out, fmt.Sprintf("daemon lists lease %d that no client holds", l.LeaseID))
		} else if w != k {
			out = append(out, fmt.Sprintf("lease %d: daemon has %v, client was granted %v", l.LeaseID, k, w))
		}
	}
	for id := range want {
		if !seen[id] {
			out = append(out, fmt.Sprintf("acked lease %d is missing from the daemon", id))
		}
	}
	sort.Strings(out)
	return out
}
