package runtime

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

// frame is one entry of a vertex's callback-time stack: the timestamp the
// current callback runs at, and whether sending is permitted (false inside
// purge notifications, which hold no capability).
type timeFrame struct {
	t       ts.Timestamp
	canSend bool
}

// vertexState is a worker's record of one vertex it hosts.
type vertexState struct {
	si        *stageInfo
	ctx       *Context
	vertex    Vertex
	bv        BatchVertex // non-nil when vertex implements the batch fast path
	vertexIdx int
	timeStack []timeFrame

	// input-stage bookkeeping. inputCap is the vertex's seed token: minted
	// seeded at Root(0) (the occurrence is installed directly by seedInputs),
	// downgraded on every epoch advance, dropped at close — the input's
	// frontier contribution is exactly this token's trajectory.
	inputEpoch  int64
	inputClosed bool
	inputCap    *progress.Capability

	// The vertex's obligations table (capability.go): every held capability
	// and every outstanding notification request, ordered by the per-vertex
	// sequence number nextCapSeq hands out. Replayed callbacks re-execute in
	// log order, so sequence assignment is deterministic across crash and
	// revival.
	heldCaps   []*Capability
	nextCapSeq uint64

	// Barrier alignment state (asynchronous snapshots). barrierCut is the
	// cut this vertex is currently aligning (0 = none) and barrierEpoch its
	// epoch boundary E; lastCut the last cut it finished. barrierWait holds
	// the channels (chanKey) whose marker is still outstanding. While
	// aligning, the vertex processes epoch-<E work normally; epoch-≥E
	// batches are logged into barrierChans (the cut's in-flight channel
	// state) and held in barrierDefer, in arrival order, until the snapshot
	// completes. The snapshot is taken after every marker has arrived and
	// every sub-boundary notification has fired, so the fragment sits exactly
	// on the epoch boundary.
	barrierCut   int64
	lastCut      int64
	barrierWait  map[uint64]bool
	barrierChans [][]byte
	barrierDefer []delivery
	barrierEpoch int64
	barrierT0    int64

	// Open send sessions from sessHead on, and each port's builder arena.
	sessions []session
	sessHead int
	arenas   []batchbuf.Arena
}

// session is the records a vertex's callbacks sent on one port at one time,
// in a builder from the port's arena.
type session struct {
	port int
	t    ts.Timestamp
	b    *batchbuf.Batch
}

// outKey identifies one pending outgoing batch.
type outKey struct {
	conn      graph.ConnectorID
	dstWorker int
	time      ts.Timestamp
}

// delivery is a queued batch of messages awaiting local delivery, or — when
// marker is set — a barrier marker travelling through the same queue so it
// stays FIFO with the data batches around it. The queue owns one reference
// to batch; deliverBatch releases it.
type delivery struct {
	ci    *connInfo
	vs    *vertexState
	time  ts.Timestamp
	batch *batchbuf.Batch
	src   int // sending vertex index (channel endpoint)

	// marker deliveries (cut/count per BarrierMarker; time carries the
	// cut's epoch boundary as ts.Root(epoch)). fenced markers hold a
	// localFence reference forcing later same-connector sends to queue
	// behind them instead of taking the synchronous fast path.
	marker bool
	fenced bool
	cut    int64
	count  int64

	// uncounted batches already advanced the receive-side channel counter:
	// deferred batches count at deferral, so their redelivery after the
	// snapshot must not count again.
	uncounted bool
}

// notifyCand is one entry of the deliverable-candidate queue: a notification
// entry of a vertex's obligations table whose guarantee time had no active
// precursor when the queue was last built. Candidates are revalidated
// against the table and the live tracker before delivery, so a stale entry
// is dropped, never delivered unsafely.
type notifyCand struct {
	vs *vertexState
	hc *Capability
}

// worker is one scheduler thread (§3.2): it owns a partition of the
// vertices, delivers their messages and notifications single-threadedly,
// and participates in the progress protocol through its local tracker.
type worker struct {
	comp    *Computation
	id      int
	proc    int
	mailbox *mailbox

	vertices []*vertexState // indexed by stage id; nil when not hosted
	vsList   []*vertexState // hosted vertices, in stage order

	tracker     *progress.Tracker
	caps        *progress.CapSet // this worker's book of live timestamp tokens
	pbuf        *progress.Buffer
	raw         []update // AccNone: chronological, uncombined
	pend        update   // current run of adjacent updates to one pointstamp
	havePend    bool
	outBatch    map[outKey]*batchbuf.Batch // pending outgoing batch builders
	localQ      []delivery
	localQHead  int
	notifyCount int
	notifyCands []notifyCand // deliverable candidates, guarantee order
	notifyDirty bool         // candidate queue invalidated by a tracker change
	spare       []mailItem

	// Pooled encode/scatter scratch. frameEnc backs encodeFrame: the worker
	// is single-threaded, so one reusable encoder serves every frame it
	// produces (the old per-frame codec.NewEncoder with its undersized
	// capacity guess was a steady allocation-and-grow tax on the hot path).
	// scratchBox is the boxing spill for codecs without a typed column path;
	// dsts is routeBatch's destination buffer (fully consumed before any
	// delivery can recurse, so one suffices).
	// scatter is a STACK of per-destination builder tables indexed by
	// scatterDepth: routeBatch's dispatch loop delivers synchronously and
	// can re-enter routeBatch (feedback cycles, reentrant vertices), so each
	// nesting level needs its own table — sharing one corrupts the outer
	// call's pending builders.
	frameEnc     *codec.Encoder
	scratchBox   []Message
	scatter      [][]*batchbuf.Batch
	scatterDepth int
	dsts         []uint32
	flushKeys    []outKey // flushData's key scratch

	// Barrier-snapshot state (nil/zero unless a cut handler is installed).
	// chanSent counts batches sent per (connector, dst vertex); chanRecv
	// counts batches delivered per (connector, src vertex) — markers carry
	// the former and are checked against the latter. localFence counts
	// markers queued locally per connector, forcing later sends behind them.
	// cutDone is the highest retired-or-aborted cut id.
	chanSent   map[uint64]int64
	chanRecv   map[uint64]int64
	localFence map[graph.ConnectorID]int
	cutDone    int64

	// Selective-rollback state (nil unless a worker-crash handler is
	// installed). dlogs holds one delivery log per hosted stage, which keeps
	// references to the batches it logged; all of it —
	// like the channel counters — survives a simulated crash: the crash
	// destroys vertex state, not the channels. replaying suppresses sends
	// and occurrence posts during log replay.
	dlogs       []*vlog
	crashed     bool
	replaying   bool
	reviveCh    chan reviveReq
	restoredCut *CutSnapshot // full-restore baseline for snap-less revival

	// Tracing state. tracer is nil when tracing is off — every hook is a
	// single predictable branch in that case. The frontier-diff fields are
	// only touched by worker 0 (one conservative local view is enough for
	// the frontier-movement event stream).
	tracer        *trace.Tracer
	traceGen      uint64
	traceFrontier map[graph.Location]int64
}

func newWorker(c *Computation, id, proc int) *worker {
	return &worker{
		comp:        c,
		id:          id,
		proc:        proc,
		mailbox:     newMailbox(),
		pbuf:        progress.NewBuffer(),
		outBatch:    make(map[outKey]*batchbuf.Batch),
		notifyDirty: true,
		tracer:      c.cfg.Tracer,
		reviveCh:    make(chan reviveReq),
		frameEnc:    codec.NewEncoder(1024),
	}
}

// run is the worker main loop.
func (w *worker) run() {
	defer w.comp.workerWG.Done()
	defer func() {
		if r := recover(); r != nil {
			w.comp.fail(fmt.Errorf("runtime: worker %d: %v\n%s", w.id, r, debug.Stack()))
		}
	}()
	w.initVertices()
	w.seedInputs()
	idle := false
	for {
		items, ok := w.mailbox.drain(idle, w.spare)
		if !ok {
			return // aborted
		}
		var quantum0 int64
		traceQ := w.tracer != nil && len(items) > 0
		if traceQ {
			quantum0 = w.tracer.Now()
		}
		for i := range items {
			w.handleItem(&items[i])
			if w.crashed && i+1 < len(items) {
				// The quantum ends here: hand the unprocessed suffix back so
				// no delivery is lost across the park/revive cycle.
				w.mailbox.requeue(items[i+1:])
				break
			}
		}
		w.spare = items
		w.deliverAll()
		w.flushData()
		w.flushProgress()
		if w.crashed {
			// Park at a clean quantum boundary: the local queue has drained
			// and output is flushed, so the delivery log matches exactly the
			// prefix the mailbox's remaining contents continue from.
			if !w.park() {
				return
			}
			idle = false
			continue
		}
		if traceQ {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvSchedule, Worker: int32(w.id), Stage: -1, Loc: -1,
				Epoch: -1, Dur: w.tracer.Now() - quantum0, N: int64(len(items)),
			})
		}
		if w.id == 0 {
			if w.tracer != nil {
				w.emitFrontierMoves()
			}
			w.checkProbes()
		}
		if w.tracker.Empty() && w.notifyCount == 0 && !w.haveLocalQ() && w.mailbox.empty() {
			// The local view has drained; the protocol's safety property
			// (a local frontier never passes the global frontier) makes
			// this a sound global termination test.
			if m := w.comp.monitor; m != nil {
				if err := m.CheckDrained(w.id); err != nil {
					panic(err)
				}
			}
			break
		}
		idle = !w.haveLocalQ()
	}
	w.shutdownVertices()
}

// initVertices builds this worker's vertices and the per-worker machinery
// that outlives them (tracker, channel counters, delivery logs).
func (w *worker) initVertices() {
	c := w.comp
	w.buildVertices()
	w.tracker = progress.NewTracker(c.lg)
	// Every occurrence delta a token generates flows through postUpdate, so
	// capability accounting rides the ordinary broadcast path (and is
	// suppressed during replay like any other post).
	w.caps = progress.NewCapSet(fmt.Sprintf("worker %d", w.id),
		func(p progress.Pointstamp, d int64) { w.postUpdate(p, d) })
	if c.onCut != nil {
		w.chanSent = make(map[uint64]int64)
		w.chanRecv = make(map[uint64]int64)
		w.localFence = make(map[graph.ConnectorID]int)
	}
	if c.onWorkerCrash != nil {
		w.dlogs = make([]*vlog, len(c.stages))
		for _, vs := range w.vsList {
			w.dlogs[vs.si.id] = newVlog()
		}
	}
}

// buildVertices instantiates this worker's partition of every stage. It is
// called at startup and again on revival after a simulated crash — vertex
// state is rebuilt from scratch, everything else on the worker survives.
func (w *worker) buildVertices() {
	c := w.comp
	w.vertices = make([]*vertexState, len(c.stages))
	w.vsList = w.vsList[:0]
	for _, si := range c.stages {
		var idx int
		switch {
		case si.pinned >= 0:
			if si.pinned != w.id {
				continue
			}
			idx = 0
		default:
			idx = w.id
		}
		vs := &vertexState{si: si, vertexIdx: idx, arenas: make([]batchbuf.Arena, si.numPorts)}
		vs.ctx = &Context{w: w, vs: vs, index: idx, peers: si.parallelism(c.cfg.Workers())}
		if si.factory != nil {
			vs.vertex = si.factory(vs.ctx)
		} else if si.role == graph.RoleNormal {
			panic(fmt.Sprintf("runtime: stage %s has no vertex factory", si.name))
		} else {
			// System stages (ingress, egress, feedback) forward messages;
			// the timestamp action happens in sendBy. Input stages never
			// receive messages.
			if si.role != graph.RoleInput {
				vs.vertex = &forwardVertex{ctx: vs.ctx}
			}
		}
		vs.bv, _ = vs.vertex.(BatchVertex)
		w.vertices[si.id] = vs
		w.vsList = append(w.vsList, vs)
	}
}

// seedInputs installs the initial input pointstamps (§2.3) directly into
// the local tracker. Every worker seeds identically — one occurrence per
// physical input vertex — so local views are conservative from the first
// instant without any broadcast. The worker's own hosted input vertices get
// a seeded token standing for their occurrence: minted without posting (the
// seed is already in every tracker), but downgraded and dropped through the
// ordinary broadcast path as epochs advance and close.
func (w *worker) seedInputs() {
	for _, si := range w.comp.stages {
		if si.role != graph.RoleInput {
			continue
		}
		n := int64(si.parallelism(w.comp.cfg.Workers()))
		w.tracker.Update(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(si.id)}, n)
		if vs := w.vertices[si.id]; vs != nil {
			vs.inputCap = w.caps.MintSeeded(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(si.id)})
		}
	}
}

func (w *worker) haveLocalQ() bool { return w.localQHead < len(w.localQ) }

// handleItem processes one mailbox item.
func (w *worker) handleItem(it *mailItem) {
	switch it.kind {
	case mailLocalData:
		ci := w.comp.conn(it.conn)
		w.enqueueLocal(ci, it.src, it.time, it.batch)
	case mailRawData:
		ci, _, src, t, b := decodeDataBatch(w.comp, it.payload)
		// The decoded batch is self-contained (Codec contract), so the frame
		// buffer goes back to the receive arena immediately.
		batchbuf.PutBytes(it.payload)
		w.enqueueLocal(ci, src, t, b)
	case mailBarrier:
		// Markers join the local queue so they stay FIFO with data batches
		// already queued for the same vertex.
		ci := w.comp.conn(it.conn)
		vs := w.vertices[ci.dst]
		if vs == nil {
			panic(fmt.Sprintf("runtime: worker %d received marker for unhosted stage %s",
				w.id, w.comp.stage(ci.dst).name))
		}
		w.localQ = append(w.localQ, delivery{
			ci: ci, vs: vs, marker: true, cut: it.barrier, src: it.src,
			count: it.count, time: it.time,
		})
	case mailProgress:
		w.tracker.Apply(it.updates)
		w.notifyDirty = true // frontier may have moved; candidates are stale
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{
				Kind: trace.EvProgressApply, Worker: int32(w.id), Stage: -1,
				Loc: -1, Epoch: -1, N: int64(len(it.updates)),
			})
		}
		if w.comp.cfg.CheckInvariants {
			w.tracker.CheckInvariants()
		}
		if m := w.comp.monitor; m != nil {
			if err := m.CheckFrontier(w.id, w.tracker.Frontier()); err != nil {
				panic(err)
			}
		}
	case mailControl:
		w.handleControl(it.ctl)
	}
}

func (w *worker) enqueueLocal(ci *connInfo, src int, t ts.Timestamp, b *batchbuf.Batch) {
	vs := w.vertices[ci.dst]
	if vs == nil {
		panic(fmt.Sprintf("runtime: worker %d received batch for unhosted stage %s",
			w.id, w.comp.stage(ci.dst).name))
	}
	w.localQ = append(w.localQ, delivery{ci: ci, vs: vs, src: src, time: t, batch: b})
}

func (w *worker) handleControl(ctl *controlMsg) {
	switch ctl.op {
	case ctlInputFeed:
		vs := w.vertices[ctl.stage]
		if vs.inputClosed {
			panic(fmt.Sprintf("runtime: input %s fed after close", vs.si.name))
		}
		if ctl.epoch != vs.inputEpoch {
			panic(fmt.Sprintf("runtime: input %s fed at epoch %d, current %d",
				vs.si.name, ctl.epoch, vs.inputEpoch))
		}
		w.sendBatchBy(vs, 0, ctl.batch, ts.Root(ctl.epoch))
	case ctlInputAdvance:
		w.advanceInput(w.vertices[ctl.stage], ctl.epoch)
	case ctlInputClose:
		w.closeInput(w.vertices[ctl.stage])
	case ctlCheckpoint:
		ctl.ack <- w.checkpointVertices(ctl.cp)
	case ctlRestore:
		ctl.ack <- w.restoreVertices(ctl.cp)
	case ctlBarrier:
		w.startInputBarriers(ctl.cut, ctl.epoch)
	case ctlBarrierAbort:
		w.abortBarrierCtl(ctl.cut)
	case ctlCutRetire:
		w.retireCutCtl(ctl.cut)
	case ctlCrash:
		w.crashed = true
	case ctlCapDrop:
		w.dropHeldCap(ctl.stage, ctl.hseq)
	}
}

// advanceInput moves an input vertex to epoch. Each downgrade of its seed
// token posts +1 at the new epoch before -1 at the old one, so no tracker
// sees a transient frontier advance. Live control and log replay both come
// through here; replay suppresses the posts.
func (w *worker) advanceInput(vs *vertexState, epoch int64) {
	for e := vs.inputEpoch; e < epoch; e++ {
		vs.inputCap.Downgrade(ts.Root(e + 1))
	}
	vs.inputEpoch = epoch
	w.logEntry(vs, vlogEntry{kind: vlogAdvance, epoch: epoch})
}

// closeInput retires an input vertex's seed token; closing twice is a no-op.
func (w *worker) closeInput(vs *vertexState) {
	if vs.inputClosed {
		return
	}
	vs.inputClosed = true
	vs.inputCap.Drop()
	w.logEntry(vs, vlogEntry{kind: vlogClose})
}

// deliverAll drains local work: queued messages first, then deliverable
// notifications, repeating until quiescent (§3.2's messages-before-
// notifications policy; Config.NotificationsFirst inverts it for
// ablation).
func (w *worker) deliverAll() {
	for {
		progressed := false
		if w.comp.cfg.NotificationsFirst {
			for w.deliverOneNotify() {
				progressed = true
			}
		}
		for w.haveLocalQ() {
			d := w.localQ[w.localQHead]
			w.localQ[w.localQHead] = delivery{}
			w.localQHead++
			if d.marker {
				if d.fenced {
					w.localFence[d.ci.id]--
				}
				w.handleMarker(d)
			} else {
				w.deliverBatch(d)
			}
			progressed = true
		}
		if w.localQHead == len(w.localQ) {
			w.localQ = w.localQ[:0]
			w.localQHead = 0
		}
		if w.deliverOneNotify() {
			progressed = true
			continue
		}
		if !progressed {
			return
		}
	}
}

// deliverBatch invokes OnRecv for each record of a queued batch and then
// retires the batch's occurrence counts with a single update. Posting the
// retirement after all the callbacks keeps every +1 they produced
// chronologically ahead of the parent batch's -count, so the protocol's
// causal-chronology discipline is preserved while a 10k-record batch costs
// one occurrence update instead of 10k.
func (w *worker) deliverBatch(d delivery) {
	n := d.batch.Len()
	if n == 0 {
		d.batch.Release()
		return
	}
	vs := d.vs
	if vs.barrierCut != 0 && d.time.Epoch >= vs.barrierEpoch {
		// The batch is on the far side of the cut's epoch boundary: log it
		// into the cut as in-flight channel state and hold it, unprocessed,
		// until the snapshot completes. The channel counter advances now —
		// the batch has arrived; only its processing is deferred — and the
		// uncounted flag keeps redelivery from counting it twice. The queue's
		// reference rides along in barrierDefer until redelivery.
		if w.chanRecv != nil && !d.uncounted {
			w.chanRecv[chanKey(d.ci.id, d.src)]++
		}
		vs.barrierChans = append(vs.barrierChans,
			w.encodeFrameOwned(d.ci, vs.vertexIdx, d.src, d.time, d.batch))
		d.uncounted = true
		vs.barrierDefer = append(vs.barrierDefer, d)
		return
	}
	if vs.si.logged {
		w.comp.logBatch(vs.si.id, w.encodeFrameOwned(d.ci, vs.vertexIdx, d.src, d.time, d.batch))
	}
	w.noteDelivery(d.ci, vs, d.src, d.time, d.batch, d.uncounted)
	w.deliver(vs, d.ci.inputIdx, d.batch, d.time)
	w.postUpdate(progress.Pointstamp{Time: d.time, Loc: graph.ConnLoc(d.ci.id)}, -int64(n))
	d.batch.Release()
}

// deliver runs a vertex's receive callback on batch b — the only place that
// happens, for live delivery and log replay alike. The batch goes through the
// BatchVertex fast path when the vertex has one, otherwise one OnRecv per
// record; either way the delivery is observed once and costs one time-stack
// frame, and the vertex's open send sessions flush before the callback's
// re-entrancy count drops. The batch is borrowed — the caller keeps its
// reference.
func (w *worker) deliver(vs *vertexState, input int, b *batchbuf.Batch, t ts.Timestamp) {
	n := b.Len()
	tr := w.observe(w.comp.counters.records, vs, int64(n))
	vs.timeStack = append(vs.timeStack, timeFrame{t: t, canSend: true})
	vs.ctx.executing++
	var t0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	if vs.bv != nil {
		vs.bv.OnRecvBatch(input, b, t)
	} else {
		for i := 0; i < n; i++ {
			vs.vertex.OnRecv(input, b.Record(i), t)
		}
	}
	w.flushSessions(vs)
	if tr != nil {
		tr.CallbackN(w.id, int32(vs.si.id), t.Epoch, false, time.Duration(tr.Now()-t0), int64(n))
	}
	vs.ctx.executing--
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
}

// observe accounts for one callback about to run — n on the vertex's stage
// counter, which the watchdog also reads as its activity signal — and
// returns the tracer to time it with, nil when tracing is off. A replayed
// callback rebuilds state the original already accounted for: it is neither
// counted nor traced.
func (w *worker) observe(counter []atomic.Int64, vs *vertexState, n int64) *trace.Tracer {
	if w.replaying {
		return nil
	}
	counter[vs.si.id].Add(n)
	return w.tracer
}

// encodeFrame serializes a batch through the worker's pooled frame encoder.
// The returned bytes are valid only until the next encodeFrame call — long
// enough for a transport Send (every transport copies or writes before
// returning) but nothing that outlives the call.
func (w *worker) encodeFrame(ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch) []byte {
	w.frameEnc.Reset()
	w.scratchBox = encodeDataInto(w.frameEnc, ci, dstVertex, srcVertex, t, b, w.scratchBox)
	return w.frameEnc.Bytes()
}

// encodeFrameOwned is encodeFrame into an exact-size copy the caller owns —
// for barrier channel state and the log sink, which persist the frame.
func (w *worker) encodeFrameOwned(ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch) []byte {
	return append([]byte(nil), w.encodeFrame(ci, dstVertex, srcVertex, t, b)...)
}

// notifyGated reports whether a pending notification is held back by an
// in-progress cut alignment: requests at or above the cut's epoch boundary
// belong to the post-snapshot execution, so they fire only after the
// vertex's fragment is captured. Sub-boundary requests are never gated —
// the snapshot waits for them, not the other way round.
func notifyGated(vs *vertexState, guarantee ts.Timestamp) bool {
	return vs.barrierCut != 0 && guarantee.Epoch >= vs.barrierEpoch
}

// candBefore orders the candidate queue: by guarantee time, stage id
// breaking ties, then request order within a vertex.
func candBefore(a, b notifyCand) bool {
	if c := a.hc.guarantee.Compare(b.hc.guarantee); c != 0 {
		return c < 0
	}
	if a.vs.si.id != b.vs.si.id {
		return a.vs.si.id < b.vs.si.id
	}
	return a.hc.seq < b.hc.seq
}

// rebuildNotifyCands rescans every vertex's obligations table and collects
// the notification entries whose guarantee has no active precursor in the
// local view, in candBefore order. The local tracker changes only when a
// progress batch is applied, so this scan runs once per frontier movement
// instead of once per delivered notification.
func (w *worker) rebuildNotifyCands() {
	w.notifyDirty = false
	w.notifyCands = w.notifyCands[:0]
	for _, vs := range w.vsList {
		loc := graph.StageLoc(vs.si.id)
		var last *Capability
		deliverable := false
		for _, hc := range vs.heldCaps {
			if !hc.notify || notifyGated(vs, hc.guarantee) {
				continue // gated requests resurface when the cut settles (clearBarrier)
			}
			// Equal guarantees share a verdict; repeats are usually adjacent.
			if last == nil || last.guarantee != hc.guarantee {
				deliverable = !w.tracker.SomePrecursorOf(progress.Pointstamp{Time: hc.guarantee, Loc: loc})
			}
			last = hc
			if deliverable {
				w.notifyCands = append(w.notifyCands, notifyCand{vs: vs, hc: hc})
			}
		}
	}
	sort.Slice(w.notifyCands, func(i, j int) bool { return candBefore(w.notifyCands[i], w.notifyCands[j]) })
}

// deliverOneNotify delivers at most one pending notification whose
// guarantee time has no active precursor in the local view, taken from the
// candidate queue. The queue is rebuilt lazily after the tracker changes;
// each popped candidate is revalidated against the live tracker (and the
// vertex's current table) before delivery, so staleness can only suppress a
// candidate — never deliver one unsafely. It reports whether a notification
// was delivered.
func (w *worker) deliverOneNotify() bool {
	if w.notifyDirty {
		w.rebuildNotifyCands()
	}
	for len(w.notifyCands) > 0 {
		cand := w.notifyCands[0]
		w.notifyCands = w.notifyCands[1:]
		vs, hc := cand.vs, cand.hc
		i, ok := vs.heldIndex(hc.seq)
		if !ok || vs.heldCaps[i] != hc {
			continue // already delivered; a duplicate candidate went stale
		}
		if notifyGated(vs, hc.guarantee) {
			// An alignment began after this candidate was queued; the request
			// is post-boundary now. clearBarrier marks the queue dirty, so the
			// rebuild after the cut settles resurfaces it.
			continue
		}
		p := progress.Pointstamp{Time: hc.guarantee, Loc: graph.StageLoc(vs.si.id)}
		if w.tracker.SomePrecursorOf(p) {
			// Inserted optimistically (e.g. before the input seeds) and no
			// longer deliverable; the rebuild after the next frontier
			// movement will resurface it.
			continue
		}
		if m := w.comp.monitor; m != nil {
			if err := m.CheckDeliverable(w.id, p); err != nil {
				panic(err)
			}
		}
		w.logEntry(vs, vlogEntry{kind: vlogNotify, seq: hc.seq})
		w.notify(vs, i)
		if vs.barrierCut != 0 {
			// A sub-boundary notification just fired on an aligning vertex;
			// it may have been the last thing the snapshot was waiting for.
			w.tryCompleteBarrier(vs)
		}
		return true
	}
	return false
}

// notify runs OnNotify for table entry i of vs — the only place that
// happens, for live delivery and log replay alike. The entry leaves the
// table first; the callback runs at the entry's capability time (a purge
// notification has none and may not send); when it returns, the vertex's
// sessions flush and then the token drops.
func (w *worker) notify(vs *vertexState, i int) {
	hc := vs.heldCaps[i]
	vs.retire(i)
	w.notifyCount--
	tr := w.observe(w.comp.counters.notifications, vs, 1)
	frame := timeFrame{canSend: hc.pc != nil}
	if hc.pc != nil {
		frame.t = hc.pc.Time()
	}
	vs.timeStack = append(vs.timeStack, frame)
	vs.ctx.executing++
	var t0 int64
	if tr != nil {
		t0 = tr.Now()
	}
	vs.vertex.OnNotify(hc.guarantee)
	w.flushSessions(vs)
	if tr != nil {
		tr.Callback(w.id, int32(vs.si.id), hc.guarantee.Epoch, true, time.Duration(tr.Now()-t0))
	}
	vs.ctx.executing--
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
	if hc.pc != nil {
		hc.pc.Drop()
	}
}

// sendBy implements Context.SendBy: the record joins a send session of vs.
// Outside a callback of vs (a Capability.SendBy while the vertex is not
// running) that session is the one call, and it leaves at once.
func (w *worker) sendBy(vs *vertexState, port int, msg Message, t ts.Timestamp) {
	if w.replaying {
		// Replay reconstructs state only: every send of the original
		// execution was already delivered (and logged at its receiver).
		return
	}
	w.checkSend(vs, port, t)
	w.sessionAppend(vs, port, msg, t)
	if vs.ctx.executing == 0 {
		w.flushSessions(vs)
	}
}

// sendBatchBy implements Context.SendBatchBy, consuming one reference to b,
// after the vertex's open sessions: a port's records leave in call order.
func (w *worker) sendBatchBy(vs *vertexState, port int, b *batchbuf.Batch, t ts.Timestamp) {
	if w.replaying {
		b.Release() // the original execution already delivered this send
		return
	}
	w.checkSend(vs, port, t)
	w.flushSessions(vs)
	w.emit(vs, port, t, b)
}

// checkSend enforces the sending contract: not from a purge notification,
// not before the callback's time (§2.2), on a port the stage has.
func (w *worker) checkSend(vs *vertexState, port int, t ts.Timestamp) {
	si := vs.si
	if n := len(vs.timeStack); n > 0 {
		top := &vs.timeStack[n-1]
		if !top.canSend {
			panic(fmt.Sprintf("runtime: %s sent a message from a purge notification", si.name))
		}
		if !top.t.LessEq(t) {
			panic(fmt.Sprintf("runtime: %s sent backwards in time: %v < callback time %v", si.name, t, top.t))
		}
	}
	if port < 0 || port >= si.numPorts {
		panic(fmt.Sprintf("runtime: stage %s: SendBy on invalid port %d", si.name, port))
	}
}

// emit applies the stage's timestamp action to a send of batch b on port at
// t and routes b over every connector of the port, consuming its reference.
func (w *worker) emit(vs *vertexState, port int, t ts.Timestamp, b *batchbuf.Batch) {
	si, conns := vs.si, vs.si.outPorts[port]
	switch si.role {
	case graph.RoleIngress:
		t = t.PushLoop()
	case graph.RoleEgress:
		t = t.PopLoop()
	case graph.RoleFeedback:
		if t = t.Tick(); si.hasMaxIter && t.Inner() >= si.maxIter {
			conns = nil // iteration bound reached: the send goes nowhere
		}
	}
	if len(conns) == 0 {
		b.Release()
		return
	}
	// routeBatch consumes a reference per connector; the batch arrives with
	// exactly one, so fan-out retains the difference up front.
	for i := 1; i < len(conns); i++ {
		b.Retain()
	}
	for _, cid := range conns {
		w.routeBatch(vs, w.comp.conn(cid), b, t)
	}
}

// sessionAppend adds msg to vs's open session for (port, t), opening one if
// there is none; a full session first flushes every session. A session
// opens with a builder from the port's arena, typed when the port's first
// record's type has a registered pool.
func (w *worker) sessionAppend(vs *vertexState, port int, msg Message, t ts.Timestamp) {
	i := len(vs.sessions) - 1
	for i >= vs.sessHead && (vs.sessions[i].port != port || vs.sessions[i].t != t) {
		i--
	}
	if i >= vs.sessHead && vs.sessions[i].b.Len() >= w.comp.cfg.batchSize() {
		w.flushSessions(vs)
		i = -1
	}
	if i < vs.sessHead {
		if len(vs.si.outPorts[port]) == 0 {
			return
		}
		if vs.arenas[port] == (batchbuf.Arena{}) {
			vs.arenas[port] = batchbuf.ArenaFor(msg)
		}
		i = len(vs.sessions)
		vs.sessions = append(vs.sessions, session{port: port, t: t, b: vs.arenas[port].Get(1)})
	}
	vs.push(&vs.sessions[i], msg)
}

// push appends msg to session s's builder, widening a typed one that cannot
// hold it; the port's later sessions then start boxed.
func (vs *vertexState) push(s *session, msg Message) {
	if !s.b.Append(msg) {
		s.b = widen(s.b, 1)
		s.b.Append(msg)
		vs.arenas[s.port] = batchbuf.ArenaFor(nil)
	}
}

// flushSessions routes every open session of vs, oldest first. It runs when
// a callback returns (before its re-entrancy count drops), when a session is
// full, and before a SendBatchBy or a Capability.Drop/Downgrade of the
// vertex: every +n a session posts precedes the -1 retiring its authority.
func (w *worker) flushSessions(vs *vertexState) {
	if len(vs.sessions) > 0 {
		w.flushOpen(vs)
	}
}

// flushOpen is flushSessions' loop. A session leaves the list before it is
// routed; a re-entrant callback of vs opens its own and continues the loop.
func (w *worker) flushOpen(vs *vertexState) {
	for vs.sessHead < len(vs.sessions) {
		s := &vs.sessions[vs.sessHead]
		port, t, b := s.port, s.t, s.b
		s.b = nil
		vs.sessHead++
		w.emit(vs, port, t, b)
	}
	vs.sessions, vs.sessHead = vs.sessions[:0], 0
}

// widen replaces a typed builder that met a foreign record by a boxed copy.
func widen(cur *batchbuf.Batch, extra int) *batchbuf.Batch {
	wide := batchbuf.GetBoxed(cur.Len() + extra)
	wide.AppendBatch(cur)
	cur.Release()
	return wide
}

// routeBatch routes a whole batch on one connector, consuming one reference
// to b. Unpartitioned (or single-peer) connectors forward the batch intact;
// partitioned ones compute every record's destination — in one typed pass
// through the connector's batch partitioner when it has one, else through
// the boxed per-record partitioner — and scatter into per-destination
// builder batches, unless every record has the same destination: then the
// batch goes there intact, as a one-record session always does.
func (w *worker) routeBatch(vsSrc *vertexState, ci *connInfo, b *batchbuf.Batch, t ts.Timestamp) {
	n := b.Len()
	if n == 0 {
		b.Release()
		return
	}
	c := w.comp
	dstSi := c.stage(ci.dst)
	peers := dstSi.parallelism(c.cfg.Workers())
	w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, int64(n))
	if ci.part == nil || peers == 1 {
		var dstVertex int
		switch {
		case dstSi.pinned >= 0 || peers == 1:
			dstVertex = 0
		default:
			dstVertex = w.id
		}
		w.routeBatchTo(vsSrc.vertexIdx, ci, b, dstVertex, t)
		return
	}
	// Vectorized exchange: one pass computes the destinations (into worker
	// scratch, like the builder table), then the batch is scattered.
	w.dsts = slices.Grow(w.dsts[:0], n)[:n]
	dsts := w.dsts
	same, ok := false, false
	if ci.bpart != nil {
		same, ok = ci.bpart(b, peers, dsts)
	}
	if !ok { // a foreign column, or a connector without a batch partitioner
		same = true
		for i := range dsts {
			dsts[i] = bucket(ci.part(b.Record(i)), peers)
			same = same && dsts[i] == dsts[0]
		}
	}
	if same {
		w.routeBatchTo(vsSrc.vertexIdx, ci, b, int(dsts[0]), t)
		return
	}
	if w.scatterDepth == len(w.scatter) {
		w.scatter = append(w.scatter, nil)
	}
	subs := slices.Grow(w.scatter[w.scatterDepth][:0], peers)[:peers] // all nil between calls
	w.scatter[w.scatterDepth] = subs
	b.Scatter(dsts, subs)
	b.Release()
	// Dispatch under a bumped depth: a synchronous delivery below may
	// re-enter routeBatch, which must not reuse this level's table.
	w.scatterDepth++
	for dv, sub := range subs {
		if sub != nil {
			subs[dv] = nil
			w.routeBatchTo(vsSrc.vertexIdx, ci, sub, dv, t)
		}
	}
	w.scatterDepth--
}

// routeBatchTo delivers a batch to one destination vertex of a connector,
// consuming one reference: synchronously when the destination is local and
// not too deeply re-entered, queued locally otherwise, or merged into the
// pending outgoing builder for a remote worker. The occurrence counts for
// the batch were already posted by routeBatch.
func (w *worker) routeBatchTo(src int, ci *connInfo, b *batchbuf.Batch, dstVertex int, t ts.Timestamp) {
	c := w.comp
	dstSi := c.stage(ci.dst)
	dstWorker := dstSi.workerFor(dstVertex)
	if dstWorker == w.id {
		if w.chanSent != nil {
			w.chanSent[chanKey(ci.id, dstVertex)]++
		}
		vsDst := w.vertices[ci.dst]
		if w.fastPathOpen(ci, dstSi, vsDst, t) {
			if dstSi.logged {
				w.comp.logBatch(dstSi.id, w.encodeFrameOwned(ci, dstVertex, src, t, b))
			}
			w.noteDelivery(ci, vsDst, src, t, b, false)
			w.deliver(vsDst, ci.inputIdx, b, t)
			w.postUpdate(progress.Pointstamp{Time: t, Loc: graph.ConnLoc(ci.id)}, -int64(b.Len()))
			b.Release()
		} else {
			w.localQ = append(w.localQ, delivery{ci: ci, vs: vsDst, src: src, time: t, batch: b})
		}
		return
	}
	key := outKey{conn: ci.id, dstWorker: dstWorker, time: t}
	cur, ok := w.outBatch[key]
	if !ok {
		w.outBatch[key] = b // adopted; appendable copies it if still shared
		if b.Len() >= w.comp.cfg.batchSize() {
			w.flushOne(key)
		}
		return
	}
	cur = w.appendable(key, cur, b.Len())
	if !cur.AppendBatch(b) {
		// Mixed record types on one connector: widen the builder to boxed.
		cur = widen(cur, b.Len())
		cur.AppendBatch(b)
		w.outBatch[key] = cur
	}
	b.Release()
	if cur.Len() >= w.comp.cfg.batchSize() {
		w.flushOne(key)
	}
}

// appendable readies the builder for key to take n more records: one that
// adopted a batch others still read (a fan-out share, a forwarded batch) is
// replaced by a private copy, since appending would change what they read.
func (w *worker) appendable(key outKey, cur *batchbuf.Batch, n int) *batchbuf.Batch {
	if !cur.Shared() {
		return cur
	}
	own := cur.NewLike(cur.Len() + n)
	own.AppendBatch(cur)
	cur.Release()
	w.outBatch[key] = own
	return own
}

// fastPathOpen reports whether a local delivery to vsDst at time t may run
// synchronously instead of through the queue: the destination is not too
// deeply re-entered (§3.2), no queued marker fences the connector —
// delivering synchronously would put a post-snapshot record ahead of the
// marker — and the destination is not aligning a cut that t lies beyond,
// whose records must reach deliverBatch to be deferred.
func (w *worker) fastPathOpen(ci *connInfo, dstSi *stageInfo, vsDst *vertexState, t ts.Timestamp) bool {
	limit := dstSi.reentrancy
	if limit == 0 {
		limit = w.comp.cfg.maxReentrancy()
	}
	if w.comp.cfg.DisableLocalFastPath {
		limit = 0
	}
	return w.localFence[ci.id] == 0 && vsDst.ctx.executing < limit &&
		!(vsDst.barrierCut != 0 && t.Epoch >= vsDst.barrierEpoch)
}

// flushOne sends one pending outgoing batch.
func (w *worker) flushOne(key outKey) {
	b := w.outBatch[key]
	delete(w.outBatch, key)
	c := w.comp
	ci := c.conn(key.conn)
	dstProc := key.dstWorker / c.cfg.WorkersPerProcess
	dstSi := c.stage(ci.dst)
	dstVertex := key.dstWorker
	if dstSi.pinned >= 0 {
		dstVertex = 0
	}
	// The channel's source endpoint is this worker's vertex of the source
	// stage (a connector has exactly one sender per worker).
	src := w.id
	if c.stage(ci.src).pinned >= 0 {
		src = 0
	}
	if w.chanSent != nil {
		w.chanSent[chanKey(ci.id, dstVertex)]++
	}
	if dstProc == w.proc {
		// The push transfers the batch's reference to the receiving worker.
		c.workers[key.dstWorker].mailbox.push(mailItem{
			kind: mailLocalData, conn: key.conn, src: src,
			time: key.time, batch: b,
		})
		return
	}
	// Transports copy (or fully write) the payload before Send returns, so
	// the pooled frame encoder's view is safe to hand over.
	payload := w.encodeFrame(ci, dstVertex, src, key.time, b)
	c.trans.Send(w.proc, dstProc, transport.KindData, payload)
	b.Release()
}

// flushData sends all pending outgoing batches in a deterministic order.
func (w *worker) flushData() {
	keys := w.flushKeys[:0]
	for k := range w.outBatch {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		slices.SortFunc(keys, func(a, b outKey) int {
			return cmp.Or(cmp.Compare(a.conn, b.conn), cmp.Compare(a.dstWorker, b.dstWorker), a.time.Compare(b.time))
		})
	}
	for _, k := range keys {
		w.flushOne(k)
	}
	w.flushKeys = keys
}

// postUpdate records a progress update for the next flush. Occurrence
// counts reach trackers (including this worker's own) only through the
// broadcast protocol, never directly. Adjacent updates to the same
// pointstamp — a routed batch's per-message +1s, a fast-path delivery's
// +1/-1 pair — coalesce into a single running ±count before touching the
// combining buffer; merging only adjacent runs preserves the worker's
// chronological order, so the safety monitor and the positives-first flush
// discipline see the same history. AccNone keeps the raw per-event stream:
// it exists to measure the uncombined protocol.
func (w *worker) postUpdate(p progress.Pointstamp, delta int64) {
	if w.replaying {
		// The original execution posted these counts; they were broadcast
		// and never retracted, so replay must not post them again.
		return
	}
	if m := w.comp.monitor; m != nil {
		if err := m.Post(p, delta); err != nil {
			panic(err)
		}
	}
	if w.comp.cfg.Accumulation == AccNone {
		w.raw = append(w.raw, update{P: p, D: delta})
		return
	}
	if w.havePend && w.pend.P == p {
		w.pend.D += delta
		return
	}
	w.flushPend()
	w.pend = update{P: p, D: delta}
	w.havePend = true
}

// flushPend moves the current run into the combining buffer, dropping runs
// that cancelled to zero (a local fast-path delivery's +1/-1 pair).
func (w *worker) flushPend() {
	if !w.havePend {
		return
	}
	if w.pend.D != 0 {
		w.pbuf.Add(w.pend.P, w.pend.D)
	}
	w.havePend = false
}

// flushProgress broadcasts this worker's pending updates (§3.3).
func (w *worker) flushProgress() {
	w.flushPend()
	var us []update
	if w.comp.cfg.Accumulation == AccNone {
		if len(w.raw) == 0 {
			return
		}
		us = w.raw
		w.raw = nil
	} else {
		if w.pbuf.Empty() {
			return
		}
		us = w.pbuf.Drain()
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{
			Kind: trace.EvProgressPost, Worker: int32(w.id), Stage: -1,
			Loc: -1, Epoch: -1, N: int64(len(us)),
		})
	}
	w.comp.routeWorkerFlush(w.proc, us)
}

// notifyAt implements Context.NotifyAt, NotifyAtCap and NotifyAtPurge: the
// request becomes an entry of the vertex's obligations table — a token held
// at capability (none when !hasCap), marked to notify at guarantee.
func (w *worker) notifyAt(vs *vertexState, guarantee, capability ts.Timestamp, hasCap bool) {
	if n := len(vs.timeStack); n > 0 {
		top := vs.timeStack[n-1]
		if !top.t.LessEq(guarantee) {
			panic(fmt.Sprintf("runtime: %s requested notification before callback time: %v < %v",
				vs.si.name, guarantee, top.t))
		}
		if hasCap && (!top.canSend || !top.t.LessEq(capability)) {
			panic(fmt.Sprintf("runtime: %s requested capability it does not hold: %v at callback time %v",
				vs.si.name, capability, top.t))
		}
	}
	hc := w.hold(vs, capability, !hasCap)
	hc.notify, hc.guarantee = true, guarantee
	w.notifyCount++
	// Evaluate deliverability at insertion: the candidate queue is only
	// rebuilt on frontier movement, and an already-deliverable request
	// would otherwise wait for a progress batch that may never come.
	// Replayed requests and post-boundary requests on an aligning vertex
	// wait for the rebuild that revival or the cut's settling forces.
	if w.replaying || notifyGated(vs, guarantee) || w.notifyDirty || w.tracker == nil ||
		w.tracker.SomePrecursorOf(progress.Pointstamp{Time: guarantee, Loc: graph.StageLoc(vs.si.id)}) {
		return
	}
	cand := notifyCand{vs: vs, hc: hc}
	j := sort.Search(len(w.notifyCands), func(j int) bool { return candBefore(cand, w.notifyCands[j]) })
	w.notifyCands = slices.Insert(w.notifyCands, j, cand)
}

// checkProbes advances registered probes past epochs that are complete at
// their location, according to this worker's (conservative) local view.
func (w *worker) checkProbes() {
	maxEpoch := w.comp.maxEpoch.Load()
	for _, pr := range w.comp.probes {
		next := pr.completed.Load() + 1
		for next <= maxEpoch {
			p := progress.Pointstamp{Time: ts.Root(next), Loc: pr.loc}
			if w.tracker.SomePrecursorOf(p) || w.tracker.Occurrence(p) > 0 {
				break
			}
			pr.advance(next)
			next++
		}
	}
}

// shutdownVertices delivers OnShutdown to vertices that want it, then
// reports any still-live capabilities to the leak audit. Only the clean
// termination path reaches here (aborts return early), so a reported token
// is a genuine leak — a permanent frontier stall — not a torn-down test.
func (w *worker) shutdownVertices() {
	for _, vs := range w.vsList {
		if n, ok := vs.vertex.(Notifiable); ok {
			n.OnShutdown()
		}
	}
	w.caps.ReportLeaks()
}

// forwardVertex is the system vertex of ingress, egress, and feedback
// stages: it forwards every message on port 0, letting sendBy apply the
// stage's timestamp action.
type forwardVertex struct {
	ctx *Context
}

func (v *forwardVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	v.ctx.SendBy(0, msg, t)
}

// OnRecvBatch forwards the whole batch without unboxing it; the extra
// Retain balances SendBatchBy consuming a reference the runtime still holds.
func (v *forwardVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	v.ctx.SendBatchBy(0, b.Retain(), t)
}

func (v *forwardVertex) OnNotify(ts.Timestamp) {}
