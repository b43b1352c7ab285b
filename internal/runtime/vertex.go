package runtime

import (
	"naiad/internal/batchbuf"
	ts "naiad/internal/timestamp"
)

// Message is one dataflow record. The runtime is untyped at this level —
// exactly like Naiad's object-typed core — and the operator library layers
// generic type safety on top.
type Message = any

// Batch is a pooled, reference-counted batch of records — the unit the data
// plane moves. See batchbuf's package comment for the ownership rules.
type Batch = batchbuf.Batch

// Vertex is the low-level timely dataflow vertex API (§2.2). OnRecv is
// invoked once per delivered message; OnNotify once per delivered
// notification, only after no further OnRecv invocations at times ≤ t can
// occur. Both run on the single worker thread that owns the vertex, so
// implementations need no internal locking.
//
// During a callback with timestamp t, a vertex may only call SendBy or
// NotifyAt with times t' ≥ t; the runtime enforces this and panics on
// violations, since sending backwards in time would break the progress
// contract for every other vertex.
type Vertex interface {
	// OnRecv delivers one message that arrived on the input with the given
	// index (the position of the connector among the stage's inputs).
	OnRecv(input int, msg Message, t ts.Timestamp)
	// OnNotify signals that all messages bearing times ≤ t have been
	// delivered to this vertex.
	OnNotify(t ts.Timestamp)
}

// BatchVertex is the typed-batch fast path a vertex may optionally
// implement. When present, the runtime delivers whole batches through
// OnRecvBatch instead of boxing each record through OnRecv — one callback,
// one time-stack frame, and (for a typed batch) a single []T type assertion
// per batch.
//
// The batch is borrowed for the duration of the call: the runtime still
// owns it and releases it afterwards. A vertex that forwards the batch
// (ctx.SendBatchBy) or stores it past the callback must Retain it first.
// The slice obtained from b.Col().Slice() is likewise valid only during
// the callback unless the vertex holds a retained reference. The batch is
// read-only: OnRecvBatch must not modify its records, because the runtime
// may keep a reference after the callback returns (the delivery log of
// selective rollback replays the very batch a crashed vertex saw).
type BatchVertex interface {
	Vertex
	// OnRecvBatch delivers one batch that arrived on the input with the
	// given index. Equivalent to OnRecv once per record, at the same time.
	OnRecvBatch(input int, b *Batch, t ts.Timestamp)
}

// Notifiable is implemented by vertices that want a callback when the
// computation is shutting down, after all messages and notifications have
// drained. Final flushes belong in OnNotify; OnShutdown is for releasing
// external resources.
type Notifiable interface {
	OnShutdown()
}

// VertexFactory instantiates one vertex of a stage. It runs on the worker
// that will own the vertex; ctx is permanently bound to that vertex and is
// how the vertex sends messages and requests notifications.
type VertexFactory func(ctx *Context) Vertex

// Context is a vertex's handle to the runtime: its identity within the
// stage and the SendBy/NotifyAt system calls of §2.2. A Context must only
// be used from the vertex's own callbacks (or, before Start, not at all).
type Context struct {
	w         *worker
	vs        *vertexState
	index     int
	peers     int
	executing int // re-entrancy depth of the vertex, managed by the worker
}

// Index returns the vertex's index within its stage [0, Peers).
func (c *Context) Index() int { return c.index }

// Peers returns the number of parallel vertices in the stage.
func (c *Context) Peers() int { return c.peers }

// Worker returns the global index of the worker hosting this vertex.
func (c *Context) Worker() int { return c.w.id }

// Workers returns the total number of workers in the computation.
func (c *Context) Workers() int { return len(c.w.comp.workers) }

// SendBy emits msg with timestamp t on the stage's output port (§2.2). The
// message is routed to a destination vertex of each connector attached to
// the port using the connector's partitioning function; ingress, egress,
// and feedback stages adjust the timestamp in flight. The time must be ≥
// the time of the callback currently executing. Every send leaves in a
// batch: the records a callback sends on one port at one time leave
// together, as one batch, by the time the callback returns.
func (c *Context) SendBy(output int, msg Message, t ts.Timestamp) {
	c.w.sendBy(c.vs, output, msg, t)
}

// SendBatchBy emits a whole batch with timestamp t on the stage's output
// port — SendBy once per record, at batch cost: occurrence counts post once
// per batch, partitioned connectors hash and scatter the batch into
// per-destination builders, and local delivery invokes the destination's
// OnRecvBatch when it has one.
//
// The call consumes one reference to b: a vertex forwarding a borrowed
// batch passes b.Retain(). The batch must not be modified after the call.
func (c *Context) SendBatchBy(output int, b *Batch, t ts.Timestamp) {
	c.w.sendBatchBy(c.vs, output, b, t)
}

// NotifyAt requests an OnNotify(t) callback once no more messages at times
// ≤ t can arrive at this vertex (§2.2). Duplicate requests for the same
// time are delivered once per request.
func (c *Context) NotifyAt(t ts.Timestamp) {
	c.w.notifyAt(c.vs, t, t, true)
}

// NotifyAtCap requests a notification with distinct guarantee and
// capability times (§2.4): delivery waits until no messages at times ≤
// guarantee can arrive, while the notification holds back downstream
// frontiers only at capability. capability must be ≥ the current callback
// time; guarantee may be anything ≥ it as well.
func (c *Context) NotifyAtCap(guarantee, capability ts.Timestamp) {
	c.w.notifyAt(c.vs, guarantee, capability, true)
}

// NotifyAtPurge requests a "state purging" notification (§2.4): it is
// delivered once guarantee is complete but holds no capability at all, so
// it never delays other notifications and introduces no coordination.
// OnNotify for a purge notification must not send messages.
func (c *Context) NotifyAtPurge(guarantee ts.Timestamp) {
	c.w.notifyAt(c.vs, guarantee, ts.Timestamp{}, false)
}
