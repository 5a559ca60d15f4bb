package sched

import (
	"fmt"

	"mapa/internal/jobs"
	"mapa/internal/workload"
)

// Discipline selects the job-queue ordering. The paper evaluates FIFO
// ("we use First-in First-out for scheduling jobs from the queue") but
// notes MAPA is agnostic to scheduling policy and can employ
// reordering; the extra disciplines quantify that claim.
type Discipline int

const (
	// FIFO admits strictly in submission order; the head blocks the
	// queue (no backfill). This is the paper's configuration.
	FIFO Discipline = iota
	// SJF picks the queued job with the shortest estimated duration
	// whenever GPUs free up.
	SJF
	// Backfill is FIFO with EASY-style backfilling: when the head
	// cannot be placed, later jobs that fit the currently free GPUs
	// may run, keeping the machine busy without starving the head
	// indefinitely (smaller jobs drain quickly on a single node).
	Backfill
)

// String names the discipline for reports.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case SJF:
		return "sjf"
	case Backfill:
		return "backfill"
	}
	return fmt.Sprintf("Discipline(%d)", int(d))
}

// ParseDiscipline parses a discipline name.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "sjf":
		return SJF, nil
	case "backfill":
		return Backfill, nil
	}
	return 0, fmt.Errorf("sched: unknown queue discipline %q", s)
}

// Disciplines lists the supported queue orderings.
func Disciplines() []Discipline { return []Discipline{FIFO, SJF, Backfill} }

// estimateDuration returns the queue's duration estimate for ordering
// purposes: the job's workload model at the reference bandwidth.
// Estimation never sees the eventual allocation (that would be
// clairvoyant).
func estimateDuration(w *workload.Workload, j jobs.Job) float64 {
	return w.ExecTimeAtBandwidth(FixedReferenceBW, j.NumGPUs, j.Iters)
}

// queue holds pending jobs under one discipline. It indexes the
// caller's job list instead of copying it, and every operation the
// engine performs per placement is O(1) (FIFO, Backfill) or O(log n)
// (SJF) in the queue length.
type queue struct {
	discipline Discipline
	jobs       []jobs.Job // submission order; shared with the caller, never mutated
	n          int        // jobs still queued
	// head is the lowest queued index under FIFO and Backfill
	// (len(jobs) once drained).
	head int
	// next and prev link the queued indices in submission order under
	// Backfill, so a job placed from the middle leaves in O(1).
	next, prev []int
	// estimates and heap order the queue under SJF: a binary min-heap
	// of queued indices on (estimate, submission index).
	estimates []float64
	heap      []int
}

// newQueue queues jobList under discipline d; wls holds each job's
// workload model (resolveWorkloads).
func newQueue(d Discipline, jobList []jobs.Job, wls []*workload.Workload) *queue {
	q := &queue{discipline: d, jobs: jobList, n: len(jobList)}
	switch d {
	case SJF:
		q.estimates = make([]float64, len(jobList))
		q.heap = make([]int, len(jobList))
		for i, j := range jobList {
			q.estimates[i] = estimateDuration(wls[i], j)
			q.heap[i] = i
		}
		for i := len(q.heap)/2 - 1; i >= 0; i-- {
			q.siftDown(i)
		}
	case Backfill:
		q.next = make([]int, len(jobList))
		q.prev = make([]int, len(jobList))
		for i := range jobList {
			q.next[i], q.prev[i] = i+1, i-1
		}
	}
	return q
}

func (q *queue) empty() bool { return q.n == 0 }
func (q *queue) len() int    { return q.n }

// first returns the index of the job the engine must try to place
// next, or -1 when the queue is empty: the head under FIFO and
// Backfill, the shortest job (lowest index among equals) under SJF.
func (q *queue) first() int {
	if q.n == 0 {
		return -1
	}
	if q.discipline == SJF {
		return q.heap[0]
	}
	return q.head
}

// after returns the candidate to try when the job at index i could not
// be placed, or -1 when the discipline allows none: only Backfill
// looks past a blocked job, at every later queued job in turn.
func (q *queue) after(i int) int {
	if q.discipline != Backfill || q.next[i] == len(q.jobs) {
		return -1
	}
	return q.next[i]
}

// remove takes the job at index i — one first or after returned — off
// the queue.
func (q *queue) remove(i int) jobs.Job {
	q.n--
	switch q.discipline {
	case SJF:
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		q.siftDown(0)
	case Backfill:
		nx, pv := q.next[i], q.prev[i]
		if pv >= 0 {
			q.next[pv] = nx
		} else {
			q.head = nx
		}
		if nx < len(q.jobs) {
			q.prev[nx] = pv
		}
	default:
		q.head++
	}
	return q.jobs[i]
}

// shorter orders queued indices by (estimate, submission index).
func (q *queue) shorter(a, b int) bool {
	if q.estimates[a] != q.estimates[b] {
		return q.estimates[a] < q.estimates[b]
	}
	return a < b
}

func (q *queue) siftDown(i int) {
	h := q.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && q.shorter(h[c+1], h[c]) {
			c++
		}
		if !q.shorter(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
