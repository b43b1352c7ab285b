package runtime

import (
	"fmt"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
)

// Selective rollback: when SetWorkerCrashHandler is installed, every worker
// keeps an in-memory delivery log — the exact sequence of state-changing
// events its vertices observed — segmented by snapshot cut. A crashed
// worker loses its vertex state but not its mailbox or log; revival rebuilds
// the vertices, restores the latest complete cut's fragments, and replays
// the log from that cut's boundary with all side effects suppressed (the
// original execution already sent the messages and posted the occurrence
// counts). Healthy workers never stop. This is the Falkirk-Wheel style of
// replay-with-output-suppression, driven by the cut structure instead of
// epochs.

// vlogEntryKind tags delivery-log entries.
type vlogEntryKind uint8

const (
	// vlogRecv is one delivered data batch, held by reference: the log
	// never leaves the process, so it keeps the batch the data plane built.
	vlogRecv vlogEntryKind = iota
	// vlogNotify is one delivered notification (identified, like every
	// obligations-table entry, by its per-vertex sequence number).
	vlogNotify
	// vlogAdvance moved an input vertex to a new epoch.
	vlogAdvance
	// vlogClose closed an input vertex.
	vlogClose
	// vlogCapDrop retired a held capability through the asynchronous drop
	// path (identified by its per-vertex sequence number). Synchronous drops
	// are not logged: they happen inside callbacks, which replay re-executes.
	vlogCapDrop
)

type vlogEntry struct {
	kind  vlogEntryKind
	ci    *connInfo       // vlogRecv
	t     ts.Timestamp    // vlogRecv
	batch *batchbuf.Batch // vlogRecv: one reference, the log's own
	epoch int64           // vlogAdvance
	seq   uint64          // vlogNotify, vlogCapDrop
}

// vlogSeg is the run of entries a vertex observed after snapshotting for
// `cut` (the first segment, tagged 0, covers everything since start or
// since the last full restore). nextSeq is the vertex's obligation sequence
// counter at the segment's start: replay must continue the exact numbering
// the entries refer to.
type vlogSeg struct {
	cut     int64
	nextSeq uint64
	entries []vlogEntry
}

// vlog is one vertex's delivery log.
type vlog struct {
	segs []vlogSeg
}

func newVlog() *vlog {
	return &vlog{segs: []vlogSeg{{cut: 0}}}
}

func (l *vlog) add(e vlogEntry) {
	s := &l.segs[len(l.segs)-1]
	s.entries = append(s.entries, e)
}

// begin opens a new segment at a cut's snapshot boundary.
func (l *vlog) begin(cut int64, nextSeq uint64) {
	l.segs = append(l.segs, vlogSeg{cut: cut, nextSeq: nextSeq})
}

// abortSeg merges an aborted cut's segment back into its predecessor: the
// snapshot boundary no longer exists, but the entries still happened, so
// their batches stay referenced.
func (l *vlog) abortSeg(cut int64) {
	for i := 1; i < len(l.segs); i++ {
		if l.segs[i].cut == cut {
			l.segs[i-1].entries = append(l.segs[i-1].entries, l.segs[i].entries...)
			l.segs = append(l.segs[:i], l.segs[i+1:]...)
			return
		}
	}
}

// retire prunes segments made obsolete by a completed, persisted cut —
// revival will never start before that cut's boundary again — and releases
// the batches they held. Until then a segment keeps its batches across any
// number of replays: a second crash replays the same segment.
func (l *vlog) retire(cut int64) {
	for len(l.segs) >= 2 && l.segs[1].cut <= cut {
		for _, e := range l.segs[0].entries {
			if e.batch != nil {
				e.batch.Release()
			}
		}
		l.segs[0] = vlogSeg{}
		l.segs = l.segs[1:]
	}
}

// from returns the segments at and after the one tagged `cut`, or an error
// when the boundary has been pruned (the caller's snapshot is too old).
func (l *vlog) from(cut int64) ([]vlogSeg, error) {
	if cut == 0 {
		return l.segs, nil
	}
	for i := range l.segs {
		if l.segs[i].cut == cut {
			return l.segs[i:], nil
		}
	}
	return nil, fmt.Errorf("runtime: delivery log has no segment for cut %d (pruned?)", cut)
}

// reviveReq is the supervisor→worker revival handshake.
type reviveReq struct {
	snap *CutSnapshot // nil: fall back to the full-restore baseline
	ack  chan error
}

// CrashWorker simulates the failure of a single worker: at its next quantum
// boundary the worker discards all vertex state and parks, firing the
// crash handler installed with SetWorkerCrashHandler. Its mailbox keeps
// accepting traffic — the rest of the cluster runs on. Only valid when a
// crash handler is installed. Safe to call concurrently with Start (a
// supervisor rebuilding the computation races external fault injection):
// until Start completes it errors without touching the worker table.
func (c *Computation) CrashWorker(worker int) error {
	if !c.running.Load() {
		return fmt.Errorf("runtime: CrashWorker before Start")
	}
	if c.onWorkerCrash == nil {
		return fmt.Errorf("runtime: CrashWorker without a worker-crash handler")
	}
	if worker < 0 || worker >= len(c.workers) {
		return fmt.Errorf("runtime: no worker %d", worker)
	}
	c.workers[worker].mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{op: ctlCrash}})
	return nil
}

// ReviveWorker restores a parked worker from a completed cut snapshot and
// replays its delivery log from that cut's boundary, then resumes it. Pass
// nil to revive from the computation's full-restore baseline (or from
// scratch when there is none) by replaying the whole log. Blocks until the
// worker acknowledges; an error leaves the computation aborted only if the
// worker's replay failed mid-way (state can no longer be trusted).
func (c *Computation) ReviveWorker(worker int, snap *CutSnapshot) error {
	if worker < 0 || worker >= len(c.workers) {
		return fmt.Errorf("runtime: no worker %d", worker)
	}
	w := c.workers[worker]
	req := reviveReq{snap: snap, ack: make(chan error, 1)}
	select {
	case w.reviveCh <- req:
	case <-c.abortCh:
		return fmt.Errorf("runtime: revive interrupted by abort: %w", c.Err())
	}
	select {
	case err := <-req.ack:
		return err
	case <-c.abortCh:
		return fmt.Errorf("runtime: revive interrupted by abort: %w", c.Err())
	}
}

// park holds a crashed worker until revival. The worker reaches here at a
// quantum boundary with its local queue drained and output flushed, so the
// delivery log is exactly the state the mailbox's remaining contents expect.
// Returns false when the worker should exit (abort, or failed revival).
func (w *worker) park() bool {
	c := w.comp
	if h := c.onWorkerCrash; h != nil {
		go h(w.id)
	}
	select {
	case req := <-w.reviveCh:
		err := w.revive(req.snap)
		req.ack <- err
		if err != nil {
			c.fail(fmt.Errorf("runtime: worker %d revival failed: %w", w.id, err))
			return false
		}
		w.crashed = false
		return true
	case <-c.abortCh:
		return false
	}
}

// restoreFragment is the one per-vertex fragment restore, shared by Restore
// and a selective revival: it hands the vertex its state bytes from s, if s
// has any. Bytes that do not decode, and bytes for a stage that does not
// checkpoint, are refused with an error naming the stage and vertex.
func (vs *vertexState) restoreFragment(s *CutSnapshot) error {
	frag, ok := s.Vertices[vs.si.id][vs.vertexIdx]
	if !ok {
		return nil
	}
	cpr, isCp := vs.vertex.(Checkpointer)
	if !isCp {
		return fmt.Errorf("runtime: snapshot has state for stage %s vertex %d, which does not checkpoint",
			vs.si.name, vs.vertexIdx)
	}
	if err := codec.Catch(func() { cpr.Restore(codec.NewDecoder(frag)) }); err != nil {
		return fmt.Errorf("runtime: restoring stage %s vertex %d: %w", vs.si.name, vs.vertexIdx, err)
	}
	return nil
}

// revive rebuilds the worker's vertices and reconstructs their state:
// restore the cut's fragments (state bytes, obligations table, input
// positions), then replay the delivery log from the cut boundary with side
// effects suppressed. The progress tracker, channel counters, and delivery
// log itself survive the crash — they describe the channels, which never
// stopped.
func (w *worker) revive(snap *CutSnapshot) error {
	var t0 int64
	if w.tracer != nil {
		t0 = w.tracer.Now()
	}
	base := snap
	segFrom := int64(0)
	if base != nil {
		segFrom = base.Cut
	} else {
		base = w.restoredCut
	}
	// Batches a vertex had deferred for an alignment the crash tore are in
	// neither the delivery log (never processed) nor the mailbox (already
	// taken): carry them over and, once the state is rebuilt, redeliver them
	// as ordinary traffic ahead of everything that arrived later.
	var deferred []delivery
	for _, vs := range w.vsList {
		deferred = append(deferred, vs.barrierDefer...)
	}
	w.buildVertices()
	// The dead incarnation's token book is void: its tokens' occurrence
	// counts live on in every tracker (posts were broadcast and never
	// retracted), and the reconstruction below re-mints seeded stand-ins for
	// exactly the tokens that were live at the snapshot instant.
	w.caps.Reset()
	w.notifyCount = 0
	w.notifyCands = w.notifyCands[:0]
	w.notifyDirty = true // the first delivery pass rebuilds from the tables
	for _, vs := range w.vsList {
		if base != nil {
			// Re-mint the obligations live at the snapshot instant before the
			// fragment restores, so Restore can reattach to capabilities by Seq.
			for _, h := range base.Caps[vs.si.id][vs.vertexIdx] {
				hc := &Capability{w: w, stage: vs.si.id, seq: h.Seq, notify: h.Notify, guarantee: h.Guarantee}
				if h.HasCap {
					hc.pc = w.caps.MintSeeded(progress.Pointstamp{Time: h.Time, Loc: graph.StageLoc(vs.si.id)})
				}
				if h.Notify {
					w.notifyCount++
				}
				vs.heldCaps = append(vs.heldCaps, hc)
			}
			if err := vs.restoreFragment(base); err != nil {
				return err
			}
		}
		if vs.si.role == graph.RoleInput {
			// The seed token comes back at the restored epoch; replayed advances
			// and closes move it (with posts suppressed) to exactly where the
			// pre-crash token stood.
			if base != nil {
				vs.inputEpoch = base.InputEpochs[vs.si.id]
			}
			vs.inputCap = w.caps.MintSeeded(progress.Pointstamp{Time: ts.Root(vs.inputEpoch), Loc: graph.StageLoc(vs.si.id)})
		}
	}
	if err := w.replayLogs(segFrom); err != nil {
		return err
	}
	for _, d := range deferred {
		d.vs = w.vertices[d.ci.dst]
		w.localQ = append(w.localQ, d)
	}
	if tr := w.tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvRestart, Aux: -1, Worker: int32(w.id), Stage: -1, Loc: -1,
			Epoch: segFrom, Dur: tr.Now() - t0,
		})
	}
	return nil
}

// replayLogs re-runs each hosted vertex's delivery log from the given cut
// boundary (0 = from the log's beginning) through the live delivery
// routines, with w.replaying set: sendBy and postUpdate drop every side
// effect — the original execution already sent the messages and posted the
// counts, and the sends were logged at their receivers — so per-vertex
// sequential replay reproduces the pre-crash interleaving's effects exactly.
func (w *worker) replayLogs(cut int64) error {
	if w.dlogs == nil {
		if cut != 0 {
			return fmt.Errorf("runtime: no delivery logs to replay cut %d from", cut)
		}
		return nil
	}
	w.replaying = true
	defer func() { w.replaying = false }()
	for _, vs := range w.vsList {
		segs, err := w.dlogs[vs.si.id].from(cut)
		if err != nil {
			return fmt.Errorf("runtime: stage %s vertex %d: %w", vs.si.name, vs.vertexIdx, err)
		}
		vs.nextCapSeq = segs[0].nextSeq
		for _, seg := range segs {
			for i := range seg.entries {
				if err := w.replayEntry(vs, &seg.entries[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *worker) replayEntry(vs *vertexState, e *vlogEntry) error {
	switch e.kind {
	case vlogRecv:
		w.deliver(vs, e.ci.inputIdx, e.batch, e.t)
	case vlogNotify:
		i, ok := vs.heldIndex(e.seq)
		if !ok || !vs.heldCaps[i].notify {
			return fmt.Errorf("runtime: replay of stage %s vertex %d: logged notification %d has no pending request",
				vs.si.name, vs.vertexIdx, e.seq)
		}
		w.notify(vs, i)
	case vlogAdvance:
		w.advanceInput(vs, e.epoch)
	case vlogClose:
		w.closeInput(vs)
	case vlogCapDrop:
		w.dropHeldCap(vs.si.id, e.seq)
	}
	return nil
}
