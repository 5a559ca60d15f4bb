package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// grant is a backend's answer to an allocate.
type grant struct {
	ID       int
	GPUs     []int
	EffBW    float64
	Deadline int64
}

// backend is one boundary of the system the generated ops can be
// executed against: the daemon over HTTP, an in-process handler, a
// mapa.System, or the policy + matchcache pipeline. Every boundary
// receives the same ops, so their timings line up request by request.
type backend interface {
	allocate(client int, o op) (grant, error)
	release(client, leaseID int) error
	renew(client, leaseID int) (deadline int64, err error)
	leases(client int) (int, error)
	health(client int, mark bool, gpu int) error
}

func tenantName(client int) string { return fmt.Sprintf("c%d", client) }

// clock is nanoseconds since the process started measuring.
var clockBase = time.Now()

func clock() int64 { return int64(time.Since(clockBase)) }

// audit is the generator's own picture of the machine, shared by the
// clients: which client holds each GPU and since when a GPU is marked
// unhealthy. A grant that contradicts it is a failure of the system
// under test.
type audit struct {
	owner    []atomic.Int32 // per GPU: 0 free, else client+1
	markedAt []atomic.Int64 // per GPU: clock() when its mark was acked, 0 = healthy
}

func newAudit(gpus int) *audit {
	return &audit{owner: make([]atomic.Int32, gpus), markedAt: make([]atomic.Int64, gpus)}
}

// claim checks one grant against the request and the held set, and
// records it. sent is when the request left: only a request sent after
// a mark was acknowledged must avoid the marked GPU.
func (a *audit) claim(client, size int, g grant, sent int64) error {
	if len(g.GPUs) != size {
		return fmt.Errorf("lease %d: granted %d GPUs, asked for %d", g.ID, len(g.GPUs), size)
	}
	var err error
	for _, gpu := range g.GPUs {
		if gpu < 0 || gpu >= len(a.owner) {
			return fmt.Errorf("lease %d: GPU %d is not on the machine", g.ID, gpu)
		}
		if at := a.markedAt[gpu].Load(); at != 0 && sent > at && err == nil {
			err = fmt.Errorf("lease %d: GPU %d granted while marked unhealthy", g.ID, gpu)
		}
		if !a.owner[gpu].CompareAndSwap(0, int32(client+1)) && err == nil {
			err = fmt.Errorf("lease %d: GPU %d granted while client %d holds it", g.ID, gpu, a.owner[gpu].Load()-1)
		}
	}
	return err
}

// unclaim forgets a lease. It runs before the release is sent: the
// system may hand the GPUs to the other client before this client has
// read the release's reply.
func (a *audit) unclaim(client int, g grant) {
	for _, gpu := range g.GPUs {
		a.owner[gpu].CompareAndSwap(int32(client+1), 0)
	}
}

// observer receives every executed op with its client-side interval.
// req numbers the ops of one run (per client in concurrent runs).
type observer func(client, req int, o op, start, end int64, g grant, err error)

// client executes one generated op sequence against a backend.
type client struct {
	id   int
	gen  *opGen
	be   backend
	au   *audit
	obs  observer
	held []grant // by slot, mirroring gen.held; ID < 0 marks a failed allocate
	reqs int
}

func newClients(w *workload, seed int64, be backend, au *audit, obs observer) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = &client{id: i, gen: newOpGen(w, seed, i), be: be, au: au, obs: obs}
	}
	return cs
}

// step generates and executes the client's next op. Ops on a lease
// whose allocate failed are skipped: the failure was counted once.
func (c *client) step() {
	o := c.gen.next()
	req := c.reqs
	c.reqs++
	var g grant
	var err error
	start := clock()
	switch o.Kind {
	case opAllocate:
		g, err = c.be.allocate(c.id, o)
		end := clock()
		if err == nil {
			err = c.au.claim(c.id, o.Size, g, start)
		}
		if err != nil {
			c.held = append(c.held, grant{ID: -1})
		} else {
			c.held = append(c.held, g)
		}
		c.obs(c.id, req, o, start, end, g, err)
		return
	case opRelease:
		g = c.held[o.Slot]
		last := len(c.held) - 1
		c.held[o.Slot] = c.held[last]
		c.held = c.held[:last]
		if g.ID < 0 {
			return
		}
		c.au.unclaim(c.id, g)
		err = c.be.release(c.id, g.ID)
	case opRenew:
		if g = c.held[o.Slot]; g.ID < 0 {
			return
		}
		if g.Deadline, err = c.be.renew(c.id, g.ID); err == nil {
			c.held[o.Slot].Deadline = g.Deadline
		}
	case opLeases:
		_, err = c.be.leases(c.id)
	case opMark:
		err = c.be.health(c.id, true, o.GPU)
		if err == nil {
			c.au.markedAt[o.GPU].Store(clock())
		}
	case opRestore:
		c.au.markedAt[o.GPU].Store(0)
		err = c.be.health(c.id, false, o.GPU)
	}
	c.obs(c.id, req, o, start, clock(), g, err)
}

// outstanding lists the leases the client still holds.
func (c *client) outstanding() []grant {
	var out []grant
	for _, g := range c.held {
		if g.ID >= 0 {
			out = append(out, g)
		}
	}
	return out
}

// replay runs n ops single-threaded, alternating the clients, so the
// interleaving — and with it every decision — is a function of the
// seed alone.
func replay(cs []*client, n int) {
	for i := 0; i < n; i++ {
		cs[i%len(cs)].step()
	}
}
