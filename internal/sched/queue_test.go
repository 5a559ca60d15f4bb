package sched

import (
	"testing"

	"mapa/internal/appgraph"
	"mapa/internal/jobs"
	"mapa/internal/policy"
	"mapa/internal/topology"
)

func TestDisciplineNamesRoundTrip(t *testing.T) {
	for _, d := range Disciplines() {
		got, err := ParseDiscipline(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDiscipline(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDiscipline("lifo"); err == nil {
		t.Error("unknown discipline should error")
	}
	if Discipline(42).String() == "" {
		t.Error("unknown discipline String should not be empty")
	}
}

// testQueue queues jl under d with its workloads resolved as Run does.
func testQueue(t *testing.T, d Discipline, jl []jobs.Job) *queue {
	t.Helper()
	wls, err := resolveWorkloads(jl)
	if err != nil {
		t.Fatal(err)
	}
	return newQueue(d, jl, wls)
}

// candidateOrder lists what the engine would try in one admission
// round: first, then after until the discipline allows no more.
func candidateOrder(q *queue) []int {
	var out []int
	for i := q.first(); i >= 0; i = q.after(i) {
		out = append(out, i)
	}
	return out
}

func TestQueueCandidatesFIFO(t *testing.T) {
	jl := smallMix(5, 1)
	q := testQueue(t, FIFO, jl)
	for want := 0; want < len(jl); want++ {
		if got := candidateOrder(q); len(got) != 1 || got[0] != want {
			t.Fatalf("FIFO candidates = %v, want [%d]", got, want)
		}
		if got := q.remove(want); got.ID != jl[want].ID {
			t.Fatalf("remove(%d) returned job %d", want, got.ID)
		}
		if q.len() != len(jl)-want-1 {
			t.Fatalf("len = %d", q.len())
		}
	}
	if !q.empty() || q.first() != -1 {
		t.Fatal("drained FIFO queue still offers a job")
	}
}

func TestQueueCandidatesSJF(t *testing.T) {
	// Job 2 is clearly shortest (fewest iters); jobs 1, 3 and 4 tie, so
	// they leave in submission order.
	long := jobs.Job{Workload: "vgg-16", NumGPUs: 2, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 6500}
	jl := []jobs.Job{long, long, long, long}
	jl[1].Iters = 10
	for i := range jl {
		jl[i].ID = i + 1
	}
	q := testQueue(t, SJF, jl)
	for _, want := range []int{2, 1, 3, 4} {
		got := candidateOrder(q)
		if len(got) != 1 || jl[got[0]].ID != want {
			t.Fatalf("SJF should pick job %d, got %v", want, got)
		}
		q.remove(got[0])
	}
	if !q.empty() {
		t.Fatal("SJF queue not drained")
	}
}

func TestQueueCandidatesBackfill(t *testing.T) {
	q := testQueue(t, Backfill, smallMix(5, 1))
	// Jobs leave from the middle, the tail and the head; what remains
	// is always offered head first, in submission order.
	for _, step := range []struct {
		remove int
		want   []int
	}{
		{-1, []int{0, 1, 2, 3, 4}},
		{2, []int{0, 1, 3, 4}},
		{4, []int{0, 1, 3}},
		{0, []int{1, 3}},
		{1, []int{3}},
		{3, nil},
	} {
		if step.remove >= 0 {
			q.remove(step.remove)
		}
		got := candidateOrder(q)
		if len(got) != len(step.want) {
			t.Fatalf("after remove(%d): candidates = %v, want %v", step.remove, got, step.want)
		}
		for i := range got {
			if got[i] != step.want[i] {
				t.Fatalf("after remove(%d): candidates = %v, want %v", step.remove, got, step.want)
			}
		}
		if q.len() != len(step.want) {
			t.Fatalf("after remove(%d): len = %d", step.remove, q.len())
		}
	}
}

func TestQueueEmpty(t *testing.T) {
	for _, d := range Disciplines() {
		q := testQueue(t, d, nil)
		if !q.empty() || q.first() != -1 {
			t.Fatalf("%s: empty queue misbehaves", d)
		}
	}
}

func TestBackfillKeepsMachineBusier(t *testing.T) {
	// A 5-GPU head job blocking FIFO while 2-GPU jobs wait: backfill
	// should finish the stream no later than FIFO.
	big := jobs.Job{ID: 1, Workload: "inception-v3", NumGPUs: 5, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 3500}
	jl := []jobs.Job{big, big} // two 5-GPU jobs cannot co-run on 8 GPUs
	for i := 0; i < 6; i++ {
		jl = append(jl, jobs.Job{ID: 3 + i, Workload: "alexnet", NumGPUs: 2, Shape: appgraph.ShapeRing, Sensitive: true, Iters: 9000})
	}
	top := topology.DGXV100()

	run := func(d Discipline) RunResult {
		e := NewEngine(top, policy.NewPreserve(nil))
		e.Queue = d
		res, err := e.Run(jl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo := run(FIFO)
	bf := run(Backfill)
	if len(fifo.Records) != len(jl) || len(bf.Records) != len(jl) {
		t.Fatalf("incomplete runs: %d, %d", len(fifo.Records), len(bf.Records))
	}
	if bf.Makespan > fifo.Makespan+1e-6 {
		t.Errorf("backfill makespan %.0f should not exceed FIFO %.0f", bf.Makespan, fifo.Makespan)
	}
	// While the second 5-GPU job waits under FIFO, 3 free GPUs idle;
	// backfill should start at least one 2-GPU job during that window.
	if bf.Throughput < fifo.Throughput {
		t.Errorf("backfill throughput %.3f below FIFO %.3f", bf.Throughput, fifo.Throughput)
	}
}

func TestSJFCompletesAllJobs(t *testing.T) {
	top := topology.DGXV100()
	e := NewEngine(top, policy.NewGreedy(nil))
	e.Queue = SJF
	res, err := e.Run(smallMix(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 40 {
		t.Fatalf("SJF completed %d of 40", len(res.Records))
	}
}

func TestDisciplinesNeverLoseJobs(t *testing.T) {
	top := topology.Summit()
	jl := smallMix(25, 13)
	for _, d := range Disciplines() {
		e := NewEngine(top, policy.NewPreserve(nil))
		e.Queue = d
		res, err := e.Run(jl)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(res.Records) != len(jl) {
			t.Fatalf("%s: completed %d of %d", d, len(res.Records), len(jl))
		}
		seen := make(map[int]bool)
		for _, r := range res.Records {
			if seen[r.Job.ID] {
				t.Fatalf("%s: job %d ran twice", d, r.Job.ID)
			}
			seen[r.Job.ID] = true
		}
	}
}
