package main

import (
	"fmt"
	"sync"
	"time"

	"naiad/internal/graphalgo"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/workload"
)

// loopLength is the chain length of the loop_tcp graph: the number of hops
// a chain's minimum label may have to travel, so roughly the number of loop
// iterations a job runs. README.md records how it was sized.
const loopLength = 512

// loopJob is one WCC computation over the permuted chains, built fresh:
// 2 processes × 1 worker on loopback TCP, graphalgo.BuildWCC unchanged.
type loopJob struct {
	scope  *lib.Scope
	in     *lib.Input[workload.Edge]
	tp     *probes
	mu     sync.Mutex
	labels map[int64]int64 // per-node minimum over every emitted improvement
	recs   int64           // label records that left the loop
}

// startLoopJob builds and starts one job. tap observes the transport;
// tracer hands the runtime its tracer. They are separate because the
// runtime's per-callback events are expensive on a workload that delivers
// records one at a time: the layer budget comes from tapped jobs, the
// tracer's own cost from traced ones.
func startLoopJob(tap, tracer bool) (*loopJob, error) {
	j := &loopJob{labels: make(map[int64]int64)}
	cfg := runtime.Config{Processes: 2, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal, UseTCP: true}
	if tap || tracer {
		j.tp = newProbes()
	}
	if tracer {
		cfg.Tracer = j.tp.tracer
	}
	if tap {
		t, err := j.tp.observedTCP(2)
		if err != nil {
			return nil, err
		}
		cfg.UseTCP, cfg.Transport = false, t
	}
	s, err := lib.NewScope(cfg)
	if err != nil {
		return nil, err
	}
	j.scope = s
	var edges *lib.Stream[workload.Edge]
	j.in, edges = lib.NewInput[workload.Edge](s, "edges", graphalgo.EdgeCodec())
	out := graphalgo.BuildWCC(s, edges, 1<<20)
	lib.SubscribeParallel(out, func(_ int, _ int64, recs []lib.Pair[int64, int64]) {
		j.mu.Lock()
		for _, p := range recs {
			if cur, ok := j.labels[p.Key]; !ok || p.Val < cur {
				j.labels[p.Key] = p.Val
			}
		}
		j.recs += int64(len(recs))
		j.mu.Unlock()
	})
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	return j, nil
}

// run feeds the whole graph as one epoch and waits for the fixed point.
func (j *loopJob) run(edges []workload.Edge) (time.Duration, error) {
	t0 := now()
	j.in.Send(edges...)
	j.in.Close()
	if err := j.scope.C.Join(); err != nil {
		return 0, err
	}
	return time.Duration(now() - t0), nil
}

// verify compares the job's labels with the union-find reference.
func (j *loopJob) verify(want map[int64]int64) error {
	if len(j.labels) != len(want) {
		return fmt.Errorf("wcc labelled %d nodes, want %d", len(j.labels), len(want))
	}
	for n, l := range want {
		if j.labels[n] != l {
			return fmt.Errorf("wcc node %d labelled %d, want %d", n, j.labels[n], l)
		}
	}
	return nil
}

// loopRun repeats jobs until the budget is spent. Every job is its own
// set-up sample (graph construction, TCP mesh, worker start; as on every
// workload, not the input generator) and its own latency sample (feed →
// fixed point).
type loopRun struct {
	jobMS, setupS, rps []float64
	iters              int
	recs               int64 // label records that left the loop, per job
}

func loopJobs(seed int64, budget time.Duration) (*loopRun, error) {
	r := &loopRun{}
	edges, iters := permutedChains(seed, loopChains, loopLength)
	want := workload.ExpectedWCC(edges)
	r.iters = iters
	end := now() + int64(budget)
	for now() < end || len(r.jobMS) == 0 {
		t0 := now()
		j, err := startLoopJob(false, false)
		if err != nil {
			return nil, err
		}
		setup := float64(now()-t0) / 1e9
		d, err := j.run(edges)
		if err != nil {
			return nil, err
		}
		if err := j.verify(want); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, setup)
		r.jobMS = append(r.jobMS, ms(int64(d)))
		r.rps = append(r.rps, float64(j.recs)/d.Seconds())
		r.recs = j.recs
	}
	return r, nil
}

func runLoopTCP(rc runConfig) (*outcome, error) {
	if rc.traced {
		return traceLoopTCP(rc)
	}
	o := newOutcome(endToEnd)
	r, err := loopJobs(rc.seed, rc.span(1))
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(r.jobMS))
	o.endToEnd(r.setupS, r.rps, r.jobMS)
	o.notef("%d jobs of ~%d iterations over %d chains x %d nodes; %d label records left the loop per job",
		len(r.jobMS), r.iters, loopChains, loopLength, r.recs)
	return o, nil
}
