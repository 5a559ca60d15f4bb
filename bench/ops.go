package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mapa"
)

// numClients is the number of closed-loop clients every serve
// workload runs: the box has two cores, and mapad's callers are job
// schedulers that block on the reply, so two blocked callers is the
// most load the generator can offer without its own scheduling lag
// becoming the measurement.
const numClients = 2

// leaseTTLMillis is the TTL serve-durable attaches to every lease:
// long enough that the reaper never fires inside a run, present so
// deadlines are journaled, renewed and recovered.
const leaseTTLMillis = 10 * 60 * 1000

// workload is one named traffic mix. The serve-* fields configure the
// daemon and the per-client op generator; sim-paper has simJobs only.
type workload struct {
	name     string
	topology string
	gpus     int  // machine size, for the sizing invariant and the audit
	warm     int  // mapad -warm / mapa.WithWarmShapes
	durable  bool // journal on, fsync always, TTL'd leases, renew/leases reads
	maxHeld  int  // leases one client may hold
	maxSize  int  // request sizes are uniform 1..maxSize
	// auxEvery makes every auxEvery-th op of a client a renew or a
	// lease listing in place of a release (durable only).
	auxEvery int
	// healthEvery makes client 0 replace every healthEvery-th op with a
	// health mark of one GPU, restored healthFor ops later by op index.
	healthEvery, healthFor int
	sim                    bool
}

var workloads = []workload{
	{name: "serve-small", topology: "dgx-a100", gpus: 8, warm: 5, maxHeld: 1, maxSize: 4},
	{name: "serve-durable", topology: "dgx-a100", gpus: 8, warm: 5, maxHeld: 1, maxSize: 4, durable: true, auxEvery: 8},
	{name: "serve-cluster", topology: "cluster-a100", gpus: 72, warm: 3, maxHeld: 10, maxSize: 3, healthEvery: 500, healthFor: 50},
	{name: "sim-paper", topology: "dgx-v100", gpus: 8, sim: true},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// daemonArgs are the mapad flags of a serve workload, minus -addr.
func (w *workload) daemonArgs(journalDir string) []string {
	args := []string{"-topology", w.topology, "-policy", "preserve", "-warm", fmt.Sprint(w.warm), "-sync-warm"}
	if w.durable {
		args = append(args, "-journal", journalDir, "-fsync", "always", "-snapshot-every", "5s")
	}
	return args
}

type opKind uint8

const (
	opAllocate opKind = iota
	opRelease
	opRenew
	opLeases
	opMark
	opRestore
)

func (k opKind) String() string {
	return [...]string{"allocate", "release", "renew", "leases", "mark", "restore"}[k]
}

// op is one generated request. Leases are addressed by slot — the
// position in the client's held list — so the sequence is a pure
// function of the seed, independent of the lease IDs a run hands out.
type op struct {
	Kind      opKind
	Shape     string // allocate
	Size      int    // allocate
	Sensitive bool   // allocate
	Slot      int    // release, renew
	GPU       int    // mark, restore
}

func (o op) String() string {
	switch o.Kind {
	case opAllocate:
		return fmt.Sprintf("allocate %s/%d sensitive=%t", o.Shape, o.Size, o.Sensitive)
	case opRelease, opRenew:
		return fmt.Sprintf("%s slot %d", o.Kind, o.Slot)
	case opMark, opRestore:
		return fmt.Sprintf("%s gpu %d", o.Kind, o.GPU)
	}
	return o.Kind.String()
}

// opGen produces one client's op sequence from the seed. It tracks
// only what the sequence depends on — how many leases the client holds
// and of what size — never a daemon's answers, so the daemon sees
// nothing but generated requests and a failed request cannot bend the
// sequence.
type opGen struct {
	w      *workload
	client int
	rng    *rand.Rand
	shapes []string
	i      int   // index of the next op
	held   []int // sizes of the held leases, by slot
	// sinceAux counts ops since the last renew/leases substitution and
	// auxFlip alternates the two.
	sinceAux int
	auxFlip  bool
	marked   int // GPU marked unhealthy by this client, -1 if none
	markedAt int // op index of that mark
}

func newOpGen(w *workload, seed int64, client int) *opGen {
	return &opGen{
		w:      w,
		client: client,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(client))),
		shapes: mapa.Shapes(),
		marked: -1,
	}
}

// heldGPUs is the number of GPUs this client holds after the ops
// generated so far.
func (g *opGen) heldGPUs() int {
	n := 0
	for _, s := range g.held {
		n += s
	}
	return n
}

func (g *opGen) next() op {
	i := g.i
	g.i++
	w := g.w
	if w.healthEvery > 0 && g.client == 0 {
		if g.marked >= 0 && i == g.markedAt+w.healthFor {
			o := op{Kind: opRestore, GPU: g.marked}
			g.marked = -1
			return o
		}
		if i > 0 && i%w.healthEvery == 0 && g.marked < 0 {
			g.marked, g.markedAt = g.rng.Intn(w.gpus), i
			return op{Kind: opMark, GPU: g.marked}
		}
	}
	release := len(g.held) == w.maxHeld || (len(g.held) > 0 && g.rng.Intn(2) == 1)
	if !release {
		g.sinceAux++
		o := op{
			Kind:      opAllocate,
			Shape:     g.shapes[g.rng.Intn(len(g.shapes))],
			Size:      1 + g.rng.Intn(w.maxSize),
			Sensitive: g.rng.Intn(2) == 0,
		}
		g.held = append(g.held, o.Size)
		return o
	}
	if w.auxEvery > 0 && g.sinceAux >= w.auxEvery-1 {
		g.sinceAux = 0
		g.auxFlip = !g.auxFlip
		if g.auxFlip {
			return op{Kind: opRenew, Slot: g.rng.Intn(len(g.held))}
		}
		return op{Kind: opLeases}
	}
	g.sinceAux++
	slot := g.rng.Intn(len(g.held))
	last := len(g.held) - 1
	g.held[slot] = g.held[last]
	g.held = g.held[:last]
	return op{Kind: opRelease, Slot: slot}
}
