package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mapa"
	"mapa/internal/journal"
	"mapa/internal/match"
	"mapa/internal/score"
	"mapa/internal/server"
)

// pass is one single-threaded replay of the seeded op sequence at one
// boundary. Ops are numbered globally (alternating clients), so the
// same request has the same number in every pass.
type pass struct {
	name       string
	ops        []op
	start, end []int64
	done       []bool // executed (ops on a failed lease are skipped)
	order      []int  // executed requests in execution order
	decisions  uint64 // FNV-1a over every grant's request number and GPUs
	// effbwSum/effbwN accumulate eff_bw over sensitive multi-GPU grants.
	effbwSum float64
	effbwN   int
	after    func(req int)
}

func newPass(name string, n int) *pass {
	return &pass{
		name: name, ops: make([]op, n), start: make([]int64, n), end: make([]int64, n),
		done: make([]bool, n), order: make([]int, 0, n), decisions: 14695981039346656037,
	}
}

// mix folds v into the decision hash without allocating: the passes
// that count heap allocations must not count the harness's.
func (p *pass) mix(v int) { p.decisions = (p.decisions ^ uint64(v)) * 1099511628211 }

func (p *pass) observer(t *tally) observer {
	return func(client, creq int, o op, start, end int64, g grant, err error) {
		t.add(err)
		req := creq*numClients + client
		p.ops[req], p.start[req], p.end[req], p.done[req] = o, start, end, true
		p.order = append(p.order, req)
		if o.Kind == opAllocate && err == nil {
			p.mix(req)
			for _, gpu := range g.GPUs {
				p.mix(gpu)
			}
			if o.Sensitive && o.Size > 1 {
				p.effbwSum += g.EffBW
				p.effbwN++
			}
		}
		if p.after != nil {
			p.after(req)
		}
	}
}

// us returns the executed ops' durations of one kind, in µs.
func (p *pass) us(kind opKind) []float64 {
	var out []float64
	for _, req := range p.order {
		if p.ops[req].Kind == kind {
			out = append(out, float64(p.end[req]-p.start[req])/1e3)
		}
	}
	return out
}

// run replays n ops of the workload against be and then returns the
// machine to idle — every lease released, every mark restored — so the
// next pass on the same System starts from the same state.
func (p *pass) run(w *workload, seed int64, be backend, t *tally, n int) []*client {
	cs := newClients(w, seed, be, newAudit(w.gpus), p.observer(t))
	replay(cs, n)
	return cs
}

func drain(cs []*client, be backend) error {
	for _, c := range cs {
		for _, g := range c.outstanding() {
			if err := be.release(c.id, g.ID); err != nil {
				return err
			}
		}
		if c.gen.marked >= 0 {
			if err := be.health(c.id, false, c.gen.marked); err != nil {
				return err
			}
		}
	}
	return nil
}

// handlerSpans is the benchmark-owned middleware around the server
// layer. The replays are closed-loop and single-threaded, so the k-th
// handled request is the k-th executed op.
type handlerSpans struct {
	on    atomic.Bool
	mu    sync.Mutex
	times [][2]int64
}

// taken returns the recorded intervals once the replay is over.
func (h *handlerSpans) taken() [][2]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.times
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := clock()
		next.ServeHTTP(w, r)
		end := clock()
		h.mu.Lock()
		h.times = append(h.times, [2]int64{start, end})
		h.mu.Unlock()
	})
}

// layerRun is the outcome of the traced replays of a workload.
type layerRun struct {
	trace   trace
	metrics map[string]float64
	tally   tally
	lost    int // acked leases an in-process recovery did not bring back
	// budget lines of the allocate path, in µs, top boundary first.
	// clientUS is their total as measured one boundary up, when the
	// traced run itself measures it (sim-paper).
	budget   []budgetLine
	clientUS float64
}

type budgetLine struct {
	name string
	us   float64
}

// stamp is one timed call below the System boundary.
type stamp struct {
	name string
	ns   int64
}

// replays is every pass of one traced run, and what the passes below
// the client recorded per request.
type replays struct {
	w    *workload
	seed int64
	n    int
	lr   *layerRun

	plain, client, direct, system, policy *pass

	handled  [][2]int64 // server.handle intervals, in the client pass's execution order
	stamps   [][]stamp  // policy.decide and matchcache.delta calls, by request
	recordOf []int      // journal record a request produced in the policy pass, -1 if none
	records  []journal.Record
	appendNS []int64 // journal.Append duration, by record
}

// runLayers replays the first n ops of the workload's seeded sequence
// at each public boundary in turn and assembles one span tree per
// request from the passes. Journals go under dir, which must be empty.
func runLayers(dir string, w *workload, seed int64, n int) (*layerRun, error) {
	lr := &layerRun{metrics: make(map[string]float64)}
	r := &replays{w: w, seed: seed, n: n, lr: lr}
	for _, step := range []func(string) error{r.httpPasses, r.systemPass, r.policyPass, r.journalPass} {
		if err := step(dir); err != nil {
			return nil, err
		}
	}
	// Every pass got the same requests, so it must have made the same
	// decisions.
	for _, p := range []*pass{r.plain, r.direct, r.system, r.policy} {
		if p.decisions != r.client.decisions {
			lr.tally.add(fmt.Errorf("the %s pass decided differently from the client pass", p.name))
		} else {
			lr.tally.add(nil)
		}
	}
	r.assemble()
	r.layerMetrics()
	return lr, nil
}

func (r *replays) run(p *pass, be backend) []*client {
	return p.run(r.w, r.seed, be, &r.lr.tally, r.n)
}

// httpPasses covers client and server.handle, truly nested, over an
// in-process server wired as cmd/mapad wires it: once untraced, once
// with the middleware recording, and once without sockets to count the
// server layer's allocations.
func (r *replays) httpPasses(dir string) error {
	sys, err := newSystem(r.w, filepath.Join(dir, "trace-http"))
	if err != nil {
		return err
	}
	defer sys.Close()
	var mw handlerSpans
	handler := mw.wrap(http.TimeoutHandler(server.New(sys, server.Options{}), 30*time.Second, `{"error":"request deadline exceeded"}`))
	ts := httptest.NewServer(handler)
	defer ts.Close()
	hb := newHTTPBackend(ts.URL, r.w, oneConnTransport)
	defer hb.close()
	if err := bind(hb, r.w); err != nil {
		return err
	}
	r.plain = newPass("client-untraced", r.n)
	if err := drain(r.run(r.plain, hb), hb); err != nil {
		return err
	}
	mw.on.Store(true)
	r.client = newPass("client", r.n)
	cs := r.run(r.client, hb)
	mw.on.Store(false)
	if err := drain(cs, hb); err != nil {
		return err
	}
	if r.handled = mw.taken(); len(r.handled) != len(r.client.order) {
		return fmt.Errorf("middleware saw %d requests for %d executed ops", len(r.handled), len(r.client.order))
	}
	r.lr.metrics["trace.overhead_us"] = percentile(r.client.us(opAllocate), 50) - percentile(r.plain.us(opAllocate), 50)

	direct := newHTTPBackend("http://mapad.invalid", r.w, func() http.RoundTripper { return handlerTransport{handler} })
	r.direct = newPass("handler-direct", r.n)
	before := mallocs()
	cs = r.run(r.direct, direct)
	r.lr.metrics["server.allocs_per_op"] = float64(mallocs()-before) / float64(len(r.direct.order))
	return drain(cs, direct)
}

// systemPass covers mapa.System through tenant handles — journaled and
// snapshotted when the workload is durable, and then recovered as after
// a crash: the journal is reopened as the replay left it, with no
// closing snapshot.
func (r *replays) systemPass(dir string) error {
	m, lr := r.lr.metrics, r.lr
	sysDir := filepath.Join(dir, "trace-system")
	sys, err := newSystem(r.w, sysDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	start := time.Now()
	sb, err := newSystemBackend(sys, r.w)
	if err != nil {
		return err
	}
	if err := bind(sb, r.w); err != nil {
		return err
	}
	m["system.tenant_bind_ms"] = time.Since(start).Seconds() * 1e3 / numClients
	r.system = newPass("system", r.n)
	var snapshotMS []float64
	if r.w.durable {
		every := max(r.n/5, 1)
		r.system.after = func(req int) {
			if (req+1)%every != 0 || req+1 == r.n {
				return
			}
			t0 := time.Now()
			if err := sys.Snapshot(); err != nil {
				lr.tally.add(fmt.Errorf("snapshot: %w", err))
			}
			snapshotMS = append(snapshotMS, time.Since(t0).Seconds()*1e3)
		}
	}
	before := mallocs()
	cs := r.run(r.system, sb)
	m["system.allocs_per_op"] = float64(mallocs()-before) / float64(len(r.system.order))
	m["journal.snapshot_ms"] = median(snapshotMS)
	if !r.w.durable {
		return nil
	}
	t0 := time.Now()
	rec, err := mapa.NewSystem(r.w.topology, "preserve", mapa.WithJournal(sysDir, journal.Options{Fsync: journal.FsyncAlways}))
	if err != nil {
		return fmt.Errorf("recovering %s: %w", sysDir, err)
	}
	defer rec.Close()
	took := time.Since(t0)
	if n := rec.Recovery().Records; n > 0 {
		m["durability.recover_ms_per_krecord"] = took.Seconds() * 1e3 / (float64(n) / 1e3)
	}
	var got []server.LeaseEntry
	for _, l := range rec.Leases() {
		got = append(got, server.LeaseEntry{LeaseID: l.ID, Tenant: l.Owner, GPUs: l.GPUs, Deadline: l.Deadline})
	}
	for _, d := range diffLeases(heldLeases(cs), got) {
		lr.lost++
		lr.tally.add(fmt.Errorf("in-process recovery: %s", d))
	}
	lr.tally.add(nil)
	return nil
}

// policyPass covers the policy decision and the view deltas on a
// hand-wired pipeline, with the match and score counters read around
// it.
func (r *replays) policyPass(string) error {
	m := r.lr.metrics
	pb, err := newPolicyBackend(r.w)
	if err != nil {
		return err
	}
	if err := bind(pb, r.w); err != nil {
		return err
	}
	r.policy = newPass("policy", r.n)
	r.stamps = make([][]stamp, r.n)
	r.recordOf = make([]int, r.n)
	var pending []stamp
	pb.stamp = func(name string, start, end int64) { pending = append(pending, stamp{name, end - start}) }
	bound := len(pb.records) // records of the binding decisions are not replayed
	nrec := bound
	r.policy.after = func(req int) {
		r.stamps[req], pending = pending, nil
		r.recordOf[req] = -1
		if len(pb.records) > nrec {
			r.recordOf[req] = len(pb.records) - 1 - bound
		}
		nrec = len(pb.records)
	}
	searches, filters, evals := match.Searches(), match.Filters(), score.Evaluations()
	served, decided := pb.tableServed(), pb.decisions
	r.run(r.policy, pb)
	if d := float64(pb.decisions - decided); d > 0 {
		m["match.searches_per_decision"] = float64(match.Searches()-searches) / d
		m["match.filters_per_decision"] = float64(match.Filters()-filters) / d
		m["score.evals_per_decision"] = float64(score.Evaluations()-evals) / d
		m["policy.table_served_share"] = float64(pb.tableServed()-served) / d
	}
	m["matchcache.warm_s"] = pb.warmS
	m["matchcache.resident_mb"] = pb.warmHeap
	m["matchcache.candidates"] = float64(pb.candidates())
	m["match.build_universe_s"] = pb.store.Stats().BuildTime.Seconds()
	r.records = pb.records[bound:]
	return nil
}

// journalPass feeds the journal the records the policy pass produced,
// in the workload's fsync mode.
func (r *replays) journalPass(dir string) error {
	r.appendNS = make([]int64, len(r.records))
	if !r.w.durable {
		return nil
	}
	j, err := journal.Open(filepath.Join(dir, "trace-journal"), journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		return err
	}
	for i := range r.records {
		t0 := clock()
		if err := j.Append(&r.records[i]); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		r.appendNS[i] = clock() - t0
	}
	st := j.Stats()
	if err := j.Close(); err != nil {
		return err
	}
	if st.Records > 0 {
		r.lr.metrics["journal.bytes_per_record"] = float64(st.Bytes) / float64(st.Records)
		r.lr.metrics["journal.fsyncs_per_record"] = float64(st.Fsyncs) / float64(st.Records)
	}
	return nil
}

// assemble builds one tree per request: client ⊃ server.handle as
// measured, the lower boundaries nested from their own passes.
func (r *replays) assemble() {
	tr := &r.lr.trace
	for i, req := range r.client.order {
		kind := r.client.ops[req].Kind
		layer := kind.String()
		if kind == opMark || kind == opRestore {
			layer = "health"
		}
		root := tr.add(0, req, "client."+layer, r.client.start[req], r.client.end[req])
		srv := tr.add(root, req, "server.handle", r.handled[i][0], r.handled[i][1])
		if !r.system.done[req] {
			continue
		}
		cursor := r.handled[i][0]
		sysID, _ := tr.nest(srv, req, "system."+layer, cursor, r.system.end[req]-r.system.start[req])
		for _, st := range r.stamps[req] {
			_, cursor = tr.nest(sysID, req, st.name, cursor, st.ns)
		}
		if r.w.durable && r.policy.done[req] && r.recordOf[req] >= 0 {
			tr.nest(sysID, req, "journal.append", cursor, r.appendNS[r.recordOf[req]])
		}
	}
}

// layerMetrics reads the per-layer numbers and the budget off the tree.
func (r *replays) layerMetrics() {
	m, spans := r.lr.metrics, r.lr.trace.spans
	self := selfTimes(spans)
	type key struct {
		name string
		kind opKind
	}
	durs, selfs := make(map[key][]float64), make(map[key][]float64)
	var appends []float64
	for _, s := range spans {
		k := key{s.Name, r.client.ops[s.Req].Kind}
		durs[k] = append(durs[k], float64(s.dur())/1e3)
		selfs[k] = append(selfs[k], float64(self[s.ID])/1e3)
		if s.Name == "journal.append" {
			appends = append(appends, float64(s.dur())/1e3)
		}
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	alloc := func(name string) float64 { return p50(durs[key{name, opAllocate}]) }
	handle, sysAlloc := alloc("server.handle"), alloc("system.allocate")
	decide, delta, appended := alloc("policy.decide"), alloc("matchcache.delta"), alloc("journal.append")
	// client ⊃ server.handle was observed as nested, so transport's self
	// time is taken per request. Below that the children come from
	// other passes: per-request differences of independent samples
	// would be biased by the clipping, so those self times are
	// differences of medians, floored at 0.
	m["transport.self_us"] = p50(selfs[key{"client.allocate", opAllocate}])
	m["server.handle_us"] = handle
	m["server.release_handle_us"] = p50(durs[key{"server.handle", opRelease}])
	m["server.self_us"] = max(0, handle-sysAlloc)
	m["system.allocate_us"] = sysAlloc
	m["system.release_us"] = p50(durs[key{"system.release", opRelease}])
	m["system.self_us"] = max(0, sysAlloc-decide-delta-appended)
	m["system.health_event_us"] = p50(slices.Concat(durs[key{"system.health", opMark}], durs[key{"system.health", opRestore}]))
	m["policy.decide_us"] = decide
	m["policy.decide_p99_us"] = percentile(durs[key{"policy.decide", opAllocate}], 99)
	m["matchcache.delta_us"] = p50(slices.Concat(durs[key{"matchcache.delta", opAllocate}], durs[key{"matchcache.delta", opRelease}]))
	m["journal.append_us"] = p50(appends)
	m["durability.lost_acked_leases"] = float64(r.lr.lost)
	if r.policy.effbwN > 0 {
		m["policy.effbw_mean_gbps"] = r.policy.effbwSum / float64(r.policy.effbwN)
	}
	r.lr.budget = []budgetLine{
		{"transport", m["transport.self_us"]},
		{"server", m["server.self_us"]},
		{"system", m["system.self_us"]},
		{"policy", decide},
		{"matchcache", delta},
		{"journal", appended},
	}
}
