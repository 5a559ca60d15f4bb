// Command mapad is the MAPA allocator daemon: a long-running HTTP
// service that leases GPUs on one machine's topology to many
// concurrent tenants. Every decision goes through the System's one
// allocator and live-view stream; a tenant is the owner label on its
// leases, and only the owner may release or renew one.
//
// Usage:
//
//	mapad -topology cluster-a100 -policy preserve -warm 5 -addr :8080 \
//	      -journal /var/lib/mapad -fsync interval -snapshot-every 30s
//
// Endpoints: POST /v1/allocate, POST /v1/release, POST /v1/renew,
// POST /v1/health (mark/restore/degrade topology events), GET
// /v1/leases, GET /healthz, GET /metrics (Prometheus text format).
// Overload answers 429 once the bounded admission queue fills;
// -coalesce merges identical (shape, size) allocate bursts into single
// decision-lock round trips. Each request is served on its connection's
// goroutine under fixed connection deadlines (header 10 s, read 30 s,
// write 60 s, idle 2 min); there is no per-request handler deadline.
// See cmd/mapaload for a load generator.
//
// With -journal, every committed mutation is written ahead to an
// append-only checksummed journal and the daemon recovers its full
// lease state — leases, owners, TTL deadlines, health marks, degraded
// links, repartition map — after a crash or restart. SIGTERM drains:
// new requests get 503 + Retry-After, in-flight requests finish, and a
// final snapshot is cut so the next start replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mapa"
	"mapa/internal/journal"
	"mapa/internal/server"
	"mapa/internal/topology"
)

// options bundles the daemon's CLI configuration.
type options struct {
	addr        string
	topoName    string
	policyName  string
	warmMaxGPUs int
	syncWarm    bool
	queueDepth  int
	coalesce    time.Duration

	journalDir    string
	fsyncMode     string
	fsyncInterval time.Duration
	snapshotEvery time.Duration
	reapEvery     time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.topoName, "topology", "dgx-a100", "hardware topology: "+strings.Join(topology.Names(), ", ")+", cluster-a100")
	flag.StringVar(&o.policyName, "policy", "preserve", "allocation policy")
	flag.IntVar(&o.warmMaxGPUs, "warm", 5, "prewarm universes + score tables for every shape up to this size (0 disables)")
	flag.BoolVar(&o.syncWarm, "sync-warm", false, "block startup until warming completes instead of overlapping it with traffic")
	flag.IntVar(&o.queueDepth, "queue", server.DefaultQueueDepth, "bounded admission depth; allocates beyond it get 429")
	flag.DurationVar(&o.coalesce, "coalesce", 0, "coalescing window for identical (shape,size) allocate bursts (0 disables)")
	flag.StringVar(&o.journalDir, "journal", "", "directory for the write-ahead journal + snapshots (empty disables durability)")
	flag.StringVar(&o.fsyncMode, "fsync", "always", "journal fsync policy: always (fsync per append) or interval (background fsync)")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background fsync cadence for -fsync=interval")
	flag.DurationVar(&o.snapshotEvery, "snapshot-every", time.Minute, "snapshot + journal-truncation cadence (0 disables periodic snapshots)")
	flag.DurationVar(&o.reapEvery, "reap-every", time.Second, "TTL-expiry reaper cadence (0 disables the reaper)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mapad:", err)
		os.Exit(1)
	}
}

// newServer constructs the System and serving layer for the options —
// split from run so tests can wire a daemon without binding a socket.
func newServer(o options) (*server.Server, *mapa.System, error) {
	var opts []mapa.SystemOption
	if o.warmMaxGPUs > 1 {
		opts = append(opts, mapa.WithWarmShapes(o.warmMaxGPUs))
		if !o.syncWarm {
			// Serve early traffic while universes warm: a decision for a
			// not-yet-warm shape builds it on demand, outside the
			// decision lock.
			opts = append(opts, mapa.WithBackgroundWarming())
		}
	}
	if o.journalDir != "" {
		mode, err := journal.ParseFsyncMode(o.fsyncMode)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, mapa.WithJournal(o.journalDir, journal.Options{
			Fsync:    mode,
			Interval: o.fsyncInterval,
		}))
	}
	sys, err := mapa.NewSystem(o.topoName, o.policyName, opts...)
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(sys, server.Options{
		QueueDepth:     o.queueDepth,
		CoalesceWindow: o.coalesce,
	})
	return srv, sys, nil
}

// Connection deadlines of the daemon's http.Server. There is no
// per-request handler deadline: each request runs on its connection's
// goroutine, whose stack is already grown and is reused across
// keep-alive requests.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer is the http.Server the daemon serves srv through — split
// from run so tests serve through exactly the same handler.
func httpServer(o options, srv *server.Server) *http.Server {
	return &http.Server{
		Addr:              o.addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(o options) error {
	srv, sys, err := newServer(o)
	if err != nil {
		return err
	}
	if rs := sys.Recovery(); rs.Enabled {
		fmt.Printf("mapad: recovered %d leases (%d journal records, snapshot LSN %d) in %v\n",
			rs.Leases, rs.Records, rs.SnapshotLSN, rs.ReplayTime)
		// Benchmark-format line so CI can archive recovery time next to
		// the other BENCH_*.json series.
		fmt.Printf("BenchmarkMapadRecovery 1 %d ns/op %d records %d leases\n",
			rs.ReplayTime.Nanoseconds(), rs.Records, rs.Leases)
	}

	hs := httpServer(o, srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("mapad: serving %s (%d GPUs) policy=%s on %s (warm=%v journal=%q)\n",
		sys.Topology(), sys.NumGPUs(), sys.Policy(), o.addr, sys.Warmed(), o.journalDir)

	stop := make(chan struct{})
	var maintenance []chan struct{}
	spawn := func(every time.Duration, tick func()) {
		if every <= 0 {
			return
		}
		done := make(chan struct{})
		maintenance = append(maintenance, done)
		go func() {
			defer close(done)
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					tick()
				}
			}
		}()
	}
	if o.reapEvery > 0 {
		spawn(o.reapEvery, func() {
			if n, err := srv.ReapExpired(time.Now()); err != nil {
				fmt.Fprintln(os.Stderr, "mapad: reaper:", err)
			} else if n > 0 {
				fmt.Printf("mapad: reaped %d expired leases\n", n)
			}
		})
	}
	if o.journalDir != "" && o.snapshotEvery > 0 {
		spawn(o.snapshotEvery, func() {
			if err := sys.Snapshot(); err != nil {
				fmt.Fprintln(os.Stderr, "mapad: snapshot:", err)
			}
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		close(stop)
		return err
	case s := <-sig:
		fmt.Printf("mapad: %v, draining\n", s)
		// Refuse new work first (503 + Retry-After) so load balancers
		// move on, then wait out in-flight requests, stop maintenance,
		// and cut the final snapshot so the next start replays nothing.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		close(stop)
		for _, done := range maintenance {
			<-done
		}
		if err := sys.Close(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Println("mapad: drained")
		return nil
	}
}
