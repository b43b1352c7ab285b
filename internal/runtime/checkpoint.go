package runtime

import (
	"fmt"
	"sync"

	"naiad/internal/codec"
	"naiad/internal/trace"
)

// Checkpointer is the fault tolerance interface of §3.4: stateful vertices
// serialize their state on demand and reconstruct it on recovery. Both
// calls run on the vertex's owning worker thread, so no locking is needed.
type Checkpointer interface {
	Checkpoint(enc *codec.Encoder)
	Restore(dec *codec.Decoder)
}

// checkpointState is the rendezvous object shared by the workers while a
// checkpoint or restore is in progress: checkpointing workers add their
// fragments to snap under mu, restoring workers only read it.
type checkpointState struct {
	mu   sync.Mutex
	snap *CutSnapshot
}

// Checkpoint is §3.4's synchronous checkpoint: it pauses each worker in turn
// at a quantum boundary, flushes its queued deliveries, and captures every
// vertex's fragment exactly as a barrier cut does at its aligned instant.
// Call it only when the fed epochs have completed (e.g. after
// Probe.WaitFor); checkpointing a computation with in-flight work returns an
// inconsistent snapshot. A drained graph has nothing in flight, so the
// result is the barrier cut of that boundary (after Carbone et al.): Cut 0,
// Epoch the smallest input epoch, no Channels, and Caps holding whatever
// capabilities and notification requests outlive the drained epochs.
func (c *Computation) Checkpoint() (*CutSnapshot, error) {
	if !c.started {
		return nil, fmt.Errorf("runtime: Checkpoint before Start")
	}
	snap := newCutSnapshot(0, 0)
	if err := c.rendezvous(ctlCheckpoint, &checkpointState{snap: snap}); err != nil {
		return nil, err
	}
	for i, in := range c.inputs {
		if e := snap.InputEpochs[in.stage]; i == 0 || e < snap.Epoch {
			snap.Epoch = e
		}
	}
	return snap, nil
}

// UnknownStageError reports a snapshot that references a StageID the
// current graph does not have — typically a snapshot taken from an older
// build of the dataflow. Restoring it would silently drop the orphaned
// state, so Restore rejects it before touching any vertex.
type UnknownStageError struct {
	Stage StageID
}

func (e *UnknownStageError) Error() string {
	return fmt.Sprintf("runtime: snapshot references stage %d, which this graph does not have", e.Stage)
}

// Restore loads a snapshot — a Checkpoint result or a barrier cut — into a
// freshly started computation: vertex fragments restore on their owning
// workers, and the inputs advance to their snapshot positions so the
// progress protocol accounts for the skipped epochs. The caller owns
// redelivery of everything past the snapshot's epoch boundary, by replaying
// its input log from the restored epochs. That replay also regenerates the
// obligations (held capabilities, notification requests) and deferred
// channel batches, so they are NOT re-injected here (that would deliver them
// twice); they serve selective rollback (ReviveWorker), where the delivery
// log — not a replayed feed — reconstructs the post-boundary execution.
//
// Input epochs only move forward: an InputEpochs entry ≤ the input's current
// epoch leaves that input where it is, because rewinding an epoch would
// violate the frontier invariant. The normal recovery flow — rebuild the
// graph, Start, Restore — restores into inputs at epoch 0, so only a caller
// restoring into an already-fed computation can observe the skip.
//
// A snapshot referencing a StageID outside the graph (in Vertices or
// InputEpochs) is rejected with *UnknownStageError before any vertex state
// is touched. A fragment that does not decode, or one for a stage that does
// not checkpoint, is refused with an error naming the stage and vertex;
// other vertices may already be restored by then, so discard the
// computation.
func (c *Computation) Restore(snap *CutSnapshot) error {
	if !c.started {
		return fmt.Errorf("runtime: Restore before Start")
	}
	for sid := range snap.Vertices {
		if int(sid) < 0 || int(sid) >= len(c.stages) {
			return &UnknownStageError{Stage: sid}
		}
	}
	for sid := range snap.InputEpochs {
		if int(sid) < 0 || int(sid) >= len(c.stages) {
			return &UnknownStageError{Stage: sid}
		}
	}
	if err := c.rendezvous(ctlRestore, &checkpointState{snap: snap}); err != nil {
		return err
	}
	for _, in := range c.inputs {
		if e, ok := snap.InputEpochs[in.stage]; ok && e > in.Epoch() {
			in.AdvanceTo(e)
		}
	}
	return nil
}

// rendezvous sends a control message to every worker and collects acks.
// Mailboxes drop pushes after an abort, so the wait also watches the abort
// channel: a crashed or aborted computation makes Checkpoint/Restore return
// the failure instead of hanging on acks that will never come.
func (c *Computation) rendezvous(op controlOp, cp *checkpointState) error {
	acks := make([]chan error, len(c.workers))
	for i, w := range c.workers {
		acks[i] = make(chan error, 1)
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{op: op, cp: cp, ack: acks[i]}})
	}
	var first error
	for _, ack := range acks {
		select {
		case err := <-ack:
			if err != nil && first == nil {
				first = err
			}
		case <-c.abortCh:
			c.failMu.Lock()
			err := c.failErr
			c.failMu.Unlock()
			return fmt.Errorf("runtime: checkpoint rendezvous interrupted by abort: %w", err)
		}
	}
	return first
}

// checkpointVertices runs on the worker thread: it flushes queued local
// deliveries and adds every hosted vertex's fragment to the snapshot.
func (w *worker) checkpointVertices(cp *checkpointState) error {
	defer w.traceRendezvous(trace.EvCheckpoint)()
	w.deliverAll()
	for _, vs := range w.vsList {
		state, held := vs.captureFragment()
		cp.mu.Lock()
		cp.snap.addFragment(vs, state, held)
		cp.mu.Unlock()
	}
	return nil
}

// restoreVertices runs on the worker thread: it hands each hosted vertex its
// fragment, then records the snapshot, stripped to what was actually applied
// (fragments and input positions), as the baseline a later snap-less revival
// replays the whole post-restore delivery log against.
func (w *worker) restoreVertices(cp *checkpointState) error {
	defer w.traceRendezvous(trace.EvRestore)()
	s := cp.snap
	for _, vs := range w.vsList {
		if err := vs.restoreFragment(s); err != nil {
			return err
		}
	}
	w.restoredCut = &CutSnapshot{Cut: s.Cut, Epoch: s.Epoch, Vertices: s.Vertices, InputEpochs: s.InputEpochs}
	return nil
}

// traceRendezvous starts timing this worker's part of a rendezvous; the
// returned func emits it as one event of the given kind.
func (w *worker) traceRendezvous(kind trace.Kind) func() {
	if w.tracer == nil {
		return func() {}
	}
	t0 := w.tracer.Now()
	return func() {
		w.tracer.Emit(trace.Event{Kind: kind, Worker: int32(w.id), Stage: -1, Loc: -1, Epoch: -1, Dur: w.tracer.Now() - t0})
	}
}
