package runtime

import (
	"naiad/internal/graph"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

// This file is the runtime side of the observability subsystem (package
// trace): the frontier-movement hook and the transport observation wiring.
// The per-callback and scheduler hooks live inline in worker.go; everything
// here shares the same discipline — nil tracer means one predictable branch,
// an enabled tracer never blocks the dataflow.

// emitFrontierMoves diffs worker 0's per-location frontier minima against
// the last emission and emits one EvFrontier per movement. The tracker's
// generation counter makes the no-movement case (the common one — a worker
// quantum rarely moves the frontier) a single integer compare. Worker 0's
// local view is conservative, like every worker's; the event stream reports
// when this view learned of the movement, which is what frontier-lag
// diagnosis needs.
func (w *worker) emitFrontierMoves() {
	gen := w.tracker.Gen()
	if gen == w.traceGen {
		return
	}
	w.traceGen = gen
	// Frontier() is time-major sorted, so the first pointstamp seen per
	// location is that location's minimum.
	next := make(map[graph.Location]int64, len(w.traceFrontier))
	for _, p := range w.tracker.Frontier() {
		if _, ok := next[p.Loc]; !ok {
			next[p.Loc] = p.Time.Epoch
		}
	}
	for loc, epoch := range next {
		if prev, ok := w.traceFrontier[loc]; !ok || prev != epoch {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvFrontier, Worker: int32(w.id), Stage: -1,
				Loc: int32(loc), Epoch: epoch,
			})
		}
	}
	for loc, epoch := range w.traceFrontier {
		if _, ok := next[loc]; !ok {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvFrontier, Aux: 1, Worker: int32(w.id), Stage: -1,
				Loc: int32(loc), Epoch: epoch,
			})
		}
	}
	w.traceFrontier = next
}

// observeTransport wraps the computation's (fully constructed) transport so
// every frame the runtime sends or dispatches lands in the event log.
func observeTransport(t transport.Transport, tr *trace.Tracer) transport.Transport {
	return transport.NewObserved(t,
		func(from, to int, kind transport.Kind, n int) {
			tr.Emit(trace.Event{
				Kind: trace.EvFrameSend, Aux: int32(kind), Worker: -1,
				Stage: -1, Loc: int32(to), Epoch: -1, N: int64(n),
			})
		},
		func(from, to int, kind transport.Kind, n int) {
			tr.Emit(trace.Event{
				Kind: trace.EvFrameRecv, Aux: int32(kind), Worker: -1,
				Stage: -1, Loc: int32(from), Epoch: -1, N: int64(n),
			})
		})
}

// attachTracer binds the tracer to this computation's shape. Called from
// Start before any worker goroutine launches, which gives the lock-free
// rings their happens-before edge.
func (c *Computation) attachTracer(tr *trace.Tracer) error {
	metas := make([]trace.StageMeta, len(c.stages))
	for i, si := range c.stages {
		metas[i] = trace.StageMeta{ID: int32(si.id), Name: si.name}
	}
	return tr.Attach(c.cfg.Workers(), metas)
}
