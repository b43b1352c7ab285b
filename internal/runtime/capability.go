package runtime

import (
	"cmp"
	"fmt"
	"slices"

	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
)

// Held capabilities: the runtime face of the progress package's timestamp
// tokens. A vertex callback may hold a capability at a time ≥ its callback
// time; the token keeps that pointstamp occupied in every tracker — stalling
// notifications and probes at or after it — until the holder downgrades it
// away or drops it. This is how an operator withholds completion across
// asynchronous work (the exactly-once sink holds one across its commit I/O)
// without keeping a callback on the worker thread.
//
// A notification request (§2.2, §2.4) is the same thing with a guarantee
// time attached: NotifyAt holds a token at the capability time, the worker
// calls OnNotify once the guarantee time is complete, and the token drops
// when the callback returns. A purge notification is an entry with no token.
// Each vertex therefore has ONE obligations table (vertexState.heldCaps),
// and the cut format, revival and replay know only that table.
//
// Identity across crash and replay: each vertex numbers its table entries
// with a per-vertex sequence counter. Replayed callbacks re-execute in log
// order, so re-made entries receive the same sequence numbers the pre-crash
// execution assigned, and entries live at a snapshot instant are recorded in
// the cut and re-minted on revival. Asynchronous drops and logged
// notification deliveries therefore address an entry by (stage, seq) against
// the *current* vertex incarnation — a drop queued before a crash still
// retires the re-minted token after replay, and a duplicate drop (the
// pre-crash goroutine and its replayed twin both reporting) is a no-op.

// Capability is a held timestamp token bound to one vertex. Time, Downgrade,
// Drop, SendBy, and SendBatchBy must run on the owning worker thread (from a
// vertex callback); DropAsync is safe from any goroutine and is the only
// method an async holder should touch after capturing what it needs.
type Capability struct {
	w     *worker
	stage StageID
	seq   uint64
	pc    *progress.Capability // nil for a purge notification: no token

	// notify marks a notification request: OnNotify(guarantee) is owed once
	// guarantee has no active precursor, and the entry retires with it.
	notify    bool
	guarantee ts.Timestamp
}

// hold appends an entry to the vertex's obligations table under the next
// sequence number, minting a token at t unless the entry is bare (a purge
// notification). During replay the mint's +1 is suppressed — the pre-crash
// execution already posted it — but the token still registers.
func (w *worker) hold(vs *vertexState, t ts.Timestamp, bare bool) *Capability {
	hc := &Capability{w: w, stage: vs.si.id, seq: vs.nextCapSeq}
	vs.nextCapSeq++
	if !bare {
		hc.pc = w.caps.Mint(progress.Pointstamp{Time: t, Loc: graph.StageLoc(vs.si.id)})
	}
	vs.heldCaps = append(vs.heldCaps, hc)
	return hc
}

// heldIndex finds the table entry numbered seq. The table is ordered by seq:
// entries are appended under an increasing counter and re-minted in order.
func (vs *vertexState) heldIndex(seq uint64) (int, bool) {
	return slices.BinarySearchFunc(vs.heldCaps, seq, func(hc *Capability, seq uint64) int {
		return cmp.Compare(hc.seq, seq)
	})
}

// retire removes table entry i.
func (vs *vertexState) retire(i int) {
	vs.heldCaps = slices.Delete(vs.heldCaps, i, i+1)
}

// HoldCapability mints a capability at time t, which must be ≥ the current
// callback time. Only valid inside a sending callback (not a purge
// notification): the capability inherits the callback's right to act at t.
func (c *Context) HoldCapability(t ts.Timestamp) *Capability {
	vs := c.vs
	n := len(vs.timeStack)
	if n == 0 {
		panic(fmt.Sprintf("runtime: %s: HoldCapability outside a callback", vs.si.name))
	}
	top := vs.timeStack[n-1]
	if !top.canSend {
		panic(fmt.Sprintf("runtime: %s: HoldCapability from a purge notification", vs.si.name))
	}
	if !top.t.LessEq(t) {
		panic(fmt.Sprintf("runtime: %s: HoldCapability at %v before callback time %v", vs.si.name, t, top.t))
	}
	return c.w.hold(vs, t, false)
}

// HeldCap returns the currently held capability with the given sequence
// number, or nil if it has been dropped. A vertex restored from a snapshot
// uses this to reattach to capabilities it recorded by Seq in its state
// (the snapshot re-mints them; the vertex's old pointers died with it).
// Worker-thread only.
func (c *Context) HeldCap(seq uint64) *Capability {
	if i, ok := c.vs.heldIndex(seq); ok && !c.vs.heldCaps[i].notify {
		return c.vs.heldCaps[i]
	}
	return nil
}

// Seq returns the capability's per-vertex sequence number — the stable
// identity a vertex checkpoints to find the token again after a restore.
func (hc *Capability) Seq() uint64 { return hc.seq }

// Time returns the capability's current time. Worker-thread only (a
// concurrent Downgrade would race); async holders capture it before leaving
// the callback.
func (hc *Capability) Time() ts.Timestamp { return hc.pc.Time() }

// Dropped reports whether the token has been retired. Worker-thread only.
func (hc *Capability) Dropped() bool { return hc.pc.Dropped() }

// Downgrade moves the capability forward to time t (≥ its current time),
// relinquishing the right to act at earlier times. The vertex's open send
// sessions leave first: their +n must precede the -1. Worker-thread only.
func (hc *Capability) Downgrade(t ts.Timestamp) {
	hc.w.flushSessions(hc.w.vertices[hc.stage])
	_, cur := hc.current("Downgrade")
	cur.pc.Downgrade(t)
}

// Drop retires the capability synchronously, after the vertex's open send
// sessions leave (as for Downgrade). Worker-thread only; dropping a
// capability twice panics (use DropAsync from racy paths — it is idempotent).
func (hc *Capability) Drop() {
	hc.w.flushSessions(hc.w.vertices[hc.stage])
	i, cur := hc.current("Drop")
	hc.w.vertices[hc.stage].retire(i)
	cur.pc.Drop()
}

// DropAsync retires the capability from any goroutine by queueing the drop
// through the worker's mailbox. Idempotent at the protocol level: the drop
// resolves by (stage, seq) against the vertex's current incarnation, so a
// duplicate — or a drop whose token was already retired by a replayed log
// entry — is a no-op. This is the only Capability method an asynchronous
// holder may call.
func (hc *Capability) DropAsync() {
	hc.w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{
		op: ctlCapDrop, stage: hc.stage, hseq: hc.seq,
	}})
}

// SendBy emits a message at time t ≥ the capability's time, under the
// capability's authority — usable from callbacks whose own time has passed t
// (including purge notifications). Sent while the vertex is not running, the
// message leaves at once, as a one-record batch. Worker-thread only.
func (hc *Capability) SendBy(output int, msg Message, t ts.Timestamp) {
	_, cur := hc.current("SendBy")
	w, vs := hc.w, hc.w.vertices[hc.stage]
	vs.timeStack = append(vs.timeStack, timeFrame{t: cur.pc.Time(), canSend: true})
	w.sendBy(vs, output, msg, t)
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
}

// SendBatchBy is SendBy for a whole batch, consuming one reference to b.
func (hc *Capability) SendBatchBy(output int, b *Batch, t ts.Timestamp) {
	_, cur := hc.current("SendBatchBy")
	w, vs := hc.w, hc.w.vertices[hc.stage]
	vs.timeStack = append(vs.timeStack, timeFrame{t: cur.pc.Time(), canSend: true})
	w.sendBatchBy(vs, output, b, t)
	vs.timeStack = vs.timeStack[:len(vs.timeStack)-1]
}

// current resolves the capability against the vertex's current incarnation,
// panicking if it was dropped.
func (hc *Capability) current(op string) (int, *Capability) {
	vs := hc.w.vertices[hc.stage]
	i, ok := vs.heldIndex(hc.seq)
	if !ok {
		panic(fmt.Sprintf("runtime: %s: %s on dropped capability %d", vs.si.name, op, hc.seq))
	}
	return i, vs.heldCaps[i]
}

// dropHeldCap retires entry (stage, seq) for an asynchronous drop: live from
// ctlCapDrop, and again when a revived worker replays the logged drop. A
// missing entry means the token was already retired — a duplicate async
// drop, or a replayed callback that dropped it synchronously — and is
// ignored; exactly one resolution posts the -1. Live drops are logged so
// replay retires the re-minted token too.
func (w *worker) dropHeldCap(stage StageID, seq uint64) {
	vs := w.vertices[stage]
	if vs == nil {
		return
	}
	i, ok := vs.heldIndex(seq)
	if !ok {
		return
	}
	w.logEntry(vs, vlogEntry{kind: vlogCapDrop, seq: seq})
	cur := vs.heldCaps[i]
	vs.retire(i)
	cur.pc.TryDrop()
}
