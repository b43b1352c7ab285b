package runtime

import (
	"sync"

	"naiad/internal/batchbuf"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// mailKind tags mailbox items.
type mailKind uint8

const (
	// mailLocalData is a record batch from a worker in the same process
	// (no serialization; Naiad's shared-memory path).
	mailLocalData mailKind = iota
	// mailRawData is a serialized record batch from another process.
	mailRawData
	// mailProgress is a progress update batch (shared read-only).
	mailProgress
	// mailControl is a runtime control message.
	mailControl
	// mailBarrier is a barrier marker from a worker in the same process:
	// conn and src identify the channel, barrier the cut, count the
	// sender's per-channel batch counter at marker emission, and time
	// carries the cut's epoch boundary (ts.Root(epoch)).
	mailBarrier
)

// mailItem is one unit of work delivered to a worker.
type mailItem struct {
	kind mailKind

	// mailLocalData: the destination vertex is implied — the receiving
	// worker hosts exactly one vertex of the connector's destination stage.
	// src is the sending vertex index (the channel's other endpoint). The
	// push transfers the batch's reference to the receiving worker.
	conn  graph.ConnectorID
	src   int
	time  ts.Timestamp
	batch *batchbuf.Batch

	// mailRawData:
	payload []byte

	// mailProgress:
	updates []update

	// mailBarrier (also uses conn, src):
	barrier int64
	count   int64

	// mailControl:
	ctl *controlMsg
}

// controlOp enumerates control messages.
type controlOp uint8

const (
	ctlInputFeed controlOp = iota
	ctlInputAdvance
	ctlInputClose
	ctlCheckpoint
	ctlRestore
	// ctlBarrier starts an asynchronous snapshot cut at this worker's
	// input-stage vertices (cut carries the cut id, epoch its boundary).
	ctlBarrier
	// ctlBarrierAbort cancels an in-flight cut: vertices discard partial
	// alignment state, deferred records are released, and delivery-log
	// segments merge back (cut identifies it).
	ctlBarrierAbort
	// ctlCutRetire prunes delivery-log segments older than a completed,
	// persisted cut (cut identifies it).
	ctlCutRetire
	// ctlCrash parks the worker at the next quantum boundary, simulating a
	// single-worker failure for selective-rollback tests.
	ctlCrash
	// ctlCapDrop retires a held capability from an asynchronous holder
	// (Capability.DropAsync): stage and hseq identify the token against the
	// vertex's current incarnation, so the drop is idempotent across crash,
	// replay, and duplicate reports.
	ctlCapDrop
)

// controlMsg carries input and checkpoint commands from the user thread
// (and the checkpoint coordinator) to a worker.
type controlMsg struct {
	op    controlOp
	stage StageID
	epoch int64
	cut   int64  // ctlBarrier / ctlBarrierAbort / ctlCutRetire
	hseq  uint64 // ctlCapDrop (with stage): held-capability sequence number
	// ctlInputFeed: the records, as one batch whose reference the push
	// transfers to the worker.
	batch *batchbuf.Batch
	// checkpoint/restore rendezvous:
	cp  *checkpointState
	ack chan error
}

// mailbox is the unbounded MPSC queue feeding a worker: data batches,
// progress batches, and control messages, in arrival order. Pushes signal
// the worker if it is parked.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []mailItem
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push appends an item. Items pushed after close are dropped.
func (m *mailbox) push(it mailItem) {
	m.mu.Lock()
	if !m.closed {
		m.items = append(m.items, it)
	}
	m.mu.Unlock()
	m.cond.Signal()
}

// drain removes all queued items. If block is set and the queue is empty,
// it parks until an item arrives or the mailbox closes. The second result
// is false once the mailbox is closed and drained.
func (m *mailbox) drain(block bool, spare []mailItem) ([]mailItem, bool) {
	m.mu.Lock()
	if block {
		for len(m.items) == 0 && !m.closed {
			m.cond.Wait()
		}
	}
	items := m.items
	m.items = spare[:0]
	closed := m.closed
	m.mu.Unlock()
	return items, !closed
}

// requeue prepends items ahead of everything queued, preserving their
// order — used by a crashing worker to push back the drained-but-unhandled
// suffix of its quantum so no delivery is lost across a park/revive cycle.
// The items are copied: the caller's slice aliases its drain buffer.
func (m *mailbox) requeue(items []mailItem) {
	if len(items) == 0 {
		return
	}
	m.mu.Lock()
	if !m.closed {
		merged := make([]mailItem, 0, len(items)+len(m.items))
		merged = append(merged, items...)
		merged = append(merged, m.items...)
		m.items = merged
	}
	m.mu.Unlock()
}

// empty reports whether the queue is currently empty.
func (m *mailbox) empty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items) == 0
}

// close wakes the worker and marks the mailbox dead (used on abort).
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}
