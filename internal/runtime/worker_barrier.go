package runtime

import (
	"fmt"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

// Worker-side barrier protocol. Markers travel through the same queues as
// data (the local delivery queue, mailboxes, transport links), so each
// vertex observes its channels' markers exactly where the barrier sits in
// the stream. All methods here run on the worker thread.
//
// Alignment is epoch-aligned: a vertex begins aligning at its first marker
// for a cut, keeps processing sub-boundary (epoch < E) work normally, and
// defers epoch-≥E batches (deliverBatch logs them into the cut and stashes
// them). It snapshots only once every channel's marker has arrived and no
// sub-boundary notification remains pending — at that instant its state is
// exactly what a stop-the-world checkpoint at epoch E would have captured.
// Markers go out ahead of any post-snapshot output, then the deferred
// batches are redelivered as ordinary traffic.

// startInputBarriers begins cut `cut` at this worker's source vertices:
// input stages and any stage with no in-graph input channels. Everything
// downstream aligns when the markers reach it.
func (w *worker) startInputBarriers(cut, epoch int64) {
	if cut <= w.cutDone {
		return
	}
	for _, vs := range w.vsList {
		if vs.si.role != graph.RoleInput && len(w.comp.lg.Inputs(vs.si.id)) > 0 {
			continue
		}
		if vs.barrierCut == 0 && vs.lastCut < cut {
			w.beginAlignment(vs, cut, epoch)
			w.tryCompleteBarrier(vs)
		}
	}
}

// beginAlignment is the first-marker action: record the cut and its epoch
// boundary, and compute the alignment set — one marker per (input
// connector, source vertex). No state is captured yet: the vertex keeps
// running, deferring epoch-≥boundary work, until tryCompleteBarrier finds
// the boundary fully drained.
func (w *worker) beginAlignment(vs *vertexState, cut, epoch int64) {
	c := w.comp
	vs.barrierCut = cut
	vs.barrierEpoch = epoch
	if w.tracer != nil {
		vs.barrierT0 = w.tracer.Now()
	}
	workers := c.cfg.Workers()
	vs.barrierWait = make(map[uint64]bool)
	for _, cid := range c.lg.Inputs(vs.si.id) {
		srcPeers := c.stage(c.conn(cid).src).parallelism(workers)
		for s := 0; s < srcPeers; s++ {
			vs.barrierWait[chanKey(cid, s)] = true
		}
	}
}

// tryCompleteBarrier snapshots an aligning vertex if its boundary has fully
// drained: every input channel's marker has arrived, and no notification
// request below the cut's epoch boundary remains (sub-boundary
// notifications must fire into the fragment — they are state transitions of
// the epochs the cut covers). Called when the alignment set empties and
// after every notification delivered on an aligning vertex; sub-boundary
// work is never blocked anywhere, so the boundary always drains and this
// always eventually fires.
func (w *worker) tryCompleteBarrier(vs *vertexState) {
	if vs.barrierCut == 0 || len(vs.barrierWait) > 0 {
		return
	}
	for _, hc := range vs.heldCaps {
		if hc.notify && hc.guarantee.Epoch < vs.barrierEpoch {
			return
		}
	}
	w.finishBarrier(vs)
}

// captureFragment is the one per-vertex snapshot capture, shared by
// Checkpoint and a barrier's finishBarrier: the vertex's Checkpointer state
// (nil for a stateless vertex) and its obligations table in Seq order. It
// runs on the owning worker thread.
func (vs *vertexState) captureFragment() (state []byte, held []HeldCapability) {
	if cpr, ok := vs.vertex.(Checkpointer); ok {
		enc := codec.NewEncoder(256)
		cpr.Checkpoint(enc)
		state = append([]byte(nil), enc.Bytes()...)
	}
	for _, hc := range vs.heldCaps {
		h := HeldCapability{Seq: hc.seq, Notify: hc.notify, Guarantee: hc.guarantee}
		if hc.pc != nil {
			h.HasCap, h.Time = true, hc.pc.Time()
		}
		held = append(held, h)
	}
	return state, held
}

// finishBarrier takes the vertex's snapshot at the fully drained boundary:
// capture the fragment (state bytes and the obligations table — held
// capabilities, e.g. a sink whose commit I/O for a sealed epoch has not
// reported back yet, and notification requests, all post-boundary now),
// open a new delivery-log segment, forward markers downstream ahead of any
// post-snapshot output, report the fragment, and release the deferred
// batches.
func (w *worker) finishBarrier(vs *vertexState) {
	cut := vs.barrierCut
	state, held := vs.captureFragment()
	if w.dlogs != nil {
		w.dlogs[vs.si.id].begin(cut, vs.nextCapSeq)
	}
	// Flush batched output so everything sent before the snapshot precedes
	// the markers on every link, then emit the markers themselves.
	w.flushData()
	w.emitMarkers(vs, cut)
	if tr := w.tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvBarrierAlign, Worker: int32(w.id), Stage: int32(vs.si.id),
			Loc: -1, Epoch: cut, Dur: tr.Now() - vs.barrierT0, N: int64(len(vs.barrierChans)),
		})
	}
	w.comp.reportCutFragment(cut, vs, state, held, vs.barrierChans)
	vs.lastCut = cut
	w.clearBarrier(vs)
}

// emitMarkers forwards cut markers on every outgoing channel of vs: one
// marker per (connector, destination vertex), carrying the sender's
// cumulative batch count so the receiver can detect a torn cut. Local
// destinations get a fenced queue entry — the fence forces subsequent
// fast-path sends on the connector behind the queued marker.
func (w *worker) emitMarkers(vs *vertexState, cut int64) {
	c := w.comp
	workers := c.cfg.Workers()
	epochT := ts.Root(vs.barrierEpoch)
	for _, cid := range c.lg.Outputs(vs.si.id) {
		ci := c.conn(cid)
		dstSi := c.stage(ci.dst)
		peers := dstSi.parallelism(workers)
		for dv := 0; dv < peers; dv++ {
			count := w.chanSent[chanKey(cid, dv)]
			dstWorker := dstSi.workerFor(dv)
			switch {
			case dstWorker == w.id:
				w.localFence[cid]++
				w.localQ = append(w.localQ, delivery{
					ci: ci, vs: w.vertices[ci.dst], marker: true, fenced: true,
					cut: cut, src: vs.vertexIdx, count: count, time: epochT,
				})
			case dstWorker/c.cfg.WorkersPerProcess == w.proc:
				c.workers[dstWorker].mailbox.push(mailItem{
					kind: mailBarrier, conn: cid, src: vs.vertexIdx,
					barrier: cut, count: count, time: epochT,
				})
			default:
				payload := EncodeBarrierMarker(BarrierMarker{
					Cut: cut, Epoch: vs.barrierEpoch, Conn: cid,
					Src: vs.vertexIdx, Dst: dv, Count: count,
				})
				c.trans.Send(w.proc, dstWorker/c.cfg.WorkersPerProcess, transport.KindControl, payload)
			}
		}
	}
}

// handleMarker processes one barrier marker popped from the local delivery
// queue. Late markers for retired or aborted cuts are dropped; any other
// protocol violation — a duplicated marker, a count mismatch proving FIFO
// was broken — poisons the cut rather than risking a torn snapshot.
func (w *worker) handleMarker(d delivery) {
	cut := d.cut
	if cut <= w.cutDone {
		return // the cut is already retired or aborted: a late duplicate
	}
	vs := d.vs
	if vs.barrierCut == 0 {
		if cut <= vs.lastCut {
			w.comp.poisonCut(cut, fmt.Errorf(
				"runtime: stage %s vertex %d received a duplicate marker for cut %d after alignment",
				vs.si.name, vs.vertexIdx, cut))
			return
		}
		w.beginAlignment(vs, cut, d.time.Epoch)
	} else if vs.barrierCut != cut {
		if vs.barrierCut <= w.cutDone {
			// The previous cut was aborted; its broadcast raised cutDone but
			// this vertex's state was cleared on another path. Restart.
			w.clearBarrier(vs)
			w.beginAlignment(vs, cut, d.time.Epoch)
		} else {
			w.comp.poisonCut(cut, fmt.Errorf(
				"runtime: stage %s vertex %d saw marker for cut %d while aligning cut %d",
				vs.si.name, vs.vertexIdx, cut, vs.barrierCut))
			return
		}
	}
	key := chanKey(d.ci.id, d.src)
	if !vs.barrierWait[key] {
		w.comp.poisonCut(cut, fmt.Errorf(
			"runtime: stage %s vertex %d received a duplicate marker on channel (conn %d, src %d) for cut %d",
			vs.si.name, vs.vertexIdx, d.ci.id, d.src, cut))
		return
	}
	if got := w.chanRecv[key]; got != d.count {
		w.comp.poisonCut(cut, fmt.Errorf(
			"runtime: torn cut %d at stage %s vertex %d: channel (conn %d, src %d) delivered %d batches, marker says %d — link FIFO violated",
			cut, vs.si.name, vs.vertexIdx, d.ci.id, d.src, got, d.count))
		return
	}
	delete(vs.barrierWait, key)
	if len(vs.barrierWait) == 0 {
		w.tryCompleteBarrier(vs)
	}
}

// clearBarrier discards a vertex's alignment state and releases its
// deferred batches as ordinary traffic, in arrival order. The fields are
// zeroed before redelivery so the batches are not deferred again (and, on
// the abort path, so a fresh alignment can start cleanly afterwards).
// Gated post-boundary notifications become eligible again, so the
// candidate queue is marked dirty.
func (w *worker) clearBarrier(vs *vertexState) {
	stash := vs.barrierDefer
	vs.barrierCut = 0
	vs.barrierWait = nil
	vs.barrierChans = nil
	vs.barrierDefer = nil
	for _, d := range stash {
		w.deliverBatch(d)
	}
	w.notifyDirty = true
}

// abortBarrierCtl handles ctlBarrierAbort: the cut is abandoned, partial
// alignment state is dropped (deferred batches are delivered — they are
// real traffic whether or not the snapshot survives), and the cut's
// delivery-log segments merge back into their predecessors (the snapshot
// boundary no longer exists).
func (w *worker) abortBarrierCtl(cut int64) {
	if cut > w.cutDone {
		w.cutDone = cut
	}
	for _, vs := range w.vsList {
		if vs.barrierCut == cut {
			w.clearBarrier(vs)
		}
	}
	if w.dlogs != nil {
		for _, vs := range w.vsList {
			w.dlogs[vs.si.id].abortSeg(cut)
		}
	}
}

// retireCutCtl handles ctlCutRetire: cut is complete and persisted, so
// delivery-log segments older than its snapshot boundary are pruned and any
// straggling alignment state at or before it is defensively cleared.
func (w *worker) retireCutCtl(cut int64) {
	if cut > w.cutDone {
		w.cutDone = cut
	}
	for _, vs := range w.vsList {
		if vs.barrierCut != 0 && vs.barrierCut <= cut {
			w.clearBarrier(vs)
		}
	}
	if w.dlogs != nil {
		for _, vs := range w.vsList {
			w.dlogs[vs.si.id].retire(cut)
		}
	}
}

// noteDelivery observes one delivered (not deferred) batch on a channel: it
// advances the receive counter markers are checked against — unless the
// batch already counted when it was deferred — and appends it to the
// vertex's delivery log for selective replay. The batch is borrowed; the
// log takes a reference of its own, which is safe because a delivered
// batch is read-only.
func (w *worker) noteDelivery(ci *connInfo, vs *vertexState, src int, t ts.Timestamp, b *batchbuf.Batch, uncounted bool) {
	if w.chanRecv != nil && !uncounted {
		w.chanRecv[chanKey(ci.id, src)]++
	}
	if w.dlogs != nil && !w.replaying {
		w.dlogs[vs.si.id].add(vlogEntry{kind: vlogRecv, ci: ci, t: t, batch: b.Retain()})
	}
}

// logEntry appends a state-changing event to the vertex's delivery log when
// selective rollback keeps one. Replay re-runs logged events through the
// live code paths; it must not log them a second time.
func (w *worker) logEntry(vs *vertexState, e vlogEntry) {
	if w.dlogs != nil && !w.replaying {
		w.dlogs[vs.si.id].add(e)
	}
}
