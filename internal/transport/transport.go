// Package transport moves framed byte messages between Naiad processes.
//
// Two implementations share one interface: Mem simulates a cluster of
// processes inside a single OS process (every frame is fully serialized and
// copied, and per-link FIFO order is preserved, so the code paths match a
// networked deployment), and TCP connects the same in-process cluster
// through real loopback sockets, so framing, kernel buffering and partial
// reads are exercised for real. Both count traffic per frame kind, which
// feeds the throughput (Fig 6a) and progress-traffic (Fig 6c) experiments.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"naiad/internal/batchbuf"
)

// Kind tags the payload class of a frame, for dispatch and accounting.
type Kind uint8

const (
	// KindData frames carry record batches between workers.
	KindData Kind = iota
	// KindProgress frames carry progress-protocol update batches.
	KindProgress
	// KindControl frames carry runtime control traffic.
	KindControl
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindProgress:
		return "progress"
	case KindControl:
		return "control"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FrameOverhead approximates per-frame header cost on the wire: kind (1),
// source process (4), length (4), and a small envelope margin, mirroring
// the TCP framing below.
const FrameOverhead = 9

// Handler consumes a frame delivered to a process. The payload slice is
// owned by the receiver. Handlers must be safe for concurrent invocation
// from different links; frames on one (from, to) link arrive in send
// order, across kinds — every built-in transport funnels a directed link's
// traffic through a single queue (Mem), delay line (Chaos), or socket
// (TCP). The asynchronous-barrier protocol depends on this: a KindControl
// barrier marker must never overtake the KindData frames sent before it on
// the same link (TestCrossKindLinkFIFO pins the guarantee).
type Handler func(from int, kind Kind, payload []byte)

// Transport delivers frames between processes 0..N-1.
type Transport interface {
	// Processes returns the number of processes.
	Processes() int
	// SetHandler installs the frame consumer for a process. It must be
	// called for every process before Send.
	SetHandler(proc int, h Handler)
	// Send delivers payload from process `from` to process `to`. Frames
	// between a pair of processes with the same kind arrive in FIFO order.
	// Send never blocks indefinitely on receiver progress.
	Send(from, to int, kind Kind, payload []byte)
	// Stats returns cumulative traffic counters.
	Stats() *Stats
	// Close releases resources; subsequent Sends are dropped.
	Close()
}

// FailReporter is implemented by a transport that can lose a frame it
// accepted (TCP's dead or corrupt link, Chaos's crashed process) and by
// wrappers that forward to one. The runtime installs its abort there: a
// lost frame fails the computation, which restarts from a checkpoint,
// instead of hanging it.
type FailReporter interface {
	SetOnFail(f func(error))
}

// Stats tallies frames and bytes per kind across process boundaries.
// Local (same-process) deliveries are not counted, matching the shared-
// memory fast path of the real system. Drops count frames accepted by Send
// but never delivered — a transport that sheds under failure must say so,
// or a lost-frame bug is indistinguishable from a quiet network.
type Stats struct {
	frames [numKinds]atomic.Int64
	bytes  [numKinds]atomic.Int64
	drops  [numKinds]atomic.Int64
}

// Count records a remote frame of the given kind and payload size.
func (s *Stats) Count(kind Kind, payloadLen int) {
	s.frames[kind].Add(1)
	s.bytes[kind].Add(int64(payloadLen + FrameOverhead))
}

// CountDrops records n frames of a kind that were accepted but dropped.
func (s *Stats) CountDrops(kind Kind, n int) {
	s.drops[kind].Add(int64(n))
}

// Frames returns the number of remote frames of a kind.
func (s *Stats) Frames(kind Kind) int64 { return s.frames[kind].Load() }

// Bytes returns the number of remote bytes (payload + framing) of a kind.
func (s *Stats) Bytes(kind Kind) int64 { return s.bytes[kind].Load() }

// Drops returns the number of dropped frames of a kind.
func (s *Stats) Drops(kind Kind) int64 { return s.drops[kind].Load() }

// TotalBytes sums bytes across kinds.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		t += s.bytes[k].Load()
	}
	return t
}

// TotalDrops sums dropped frames across kinds.
func (s *Stats) TotalDrops() int64 {
	var t int64
	for k := Kind(0); k < numKinds; k++ {
		t += s.drops[k].Load()
	}
	return t
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	for k := Kind(0); k < numKinds; k++ {
		s.frames[k].Store(0)
		s.bytes[k].Store(0)
		s.drops[k].Store(0)
	}
}

// Mem is the in-memory transport: a simulated cluster within one OS
// process. Frames are copied on send, so no memory is shared between the
// sending and receiving sides — exactly the discipline a real network
// imposes. Delivery happens on per-destination goroutines to decouple
// sender and receiver, preserving per-link FIFO order.
type Mem struct {
	n        int
	handlers []Handler
	queues   []*frameQueue // one per destination process
	stats    Stats
	closed   atomic.Bool
	wg       sync.WaitGroup
}

type frame struct {
	from    int
	kind    Kind
	payload []byte
}

// frameQueue is an unbounded MPSC queue with blocking pop.
type frameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []frame
	closed bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *frameQueue) push(f frame) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, f)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// popAll blocks until items are available or the queue closes, then drains.
func (q *frameQueue) popAll(buf []frame) ([]frame, bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	items := q.items
	q.items = buf[:0]
	closed := q.closed && len(items) == 0
	q.mu.Unlock()
	return items, !closed
}

func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// NewMem builds an in-memory transport between n processes.
func NewMem(n int) *Mem {
	m := &Mem{n: n, handlers: make([]Handler, n), queues: make([]*frameQueue, n)}
	for i := range m.queues {
		m.queues[i] = newFrameQueue()
	}
	return m
}

// Processes returns the process count.
func (m *Mem) Processes() int { return m.n }

// SetHandler installs the consumer for proc and starts its delivery
// goroutine on first installation.
func (m *Mem) SetHandler(proc int, h Handler) {
	if m.handlers[proc] != nil {
		panic("transport: handler already set")
	}
	m.handlers[proc] = h
	m.wg.Add(1)
	go m.deliverLoop(proc)
}

func (m *Mem) deliverLoop(proc int) {
	defer m.wg.Done()
	q := m.queues[proc]
	h := m.handlers[proc]
	var spare []frame
	for {
		frames, ok := q.popAll(spare)
		if !ok {
			return
		}
		for _, f := range frames {
			h(f.from, f.kind, f.payload)
		}
		spare = frames
	}
}

// Send copies payload and enqueues it for delivery. Same-process sends are
// delivered through the same queue (preserving FIFO with remote traffic)
// but are not counted in Stats.
func (m *Mem) Send(from, to int, kind Kind, payload []byte) {
	if m.closed.Load() {
		return
	}
	// The copy comes from the pooled frame arena: the sender may reuse its
	// buffer the moment Send returns, and the final consumer of the
	// delivered frame recycles this one.
	cp := batchbuf.GetBytes(len(payload))
	copy(cp, payload)
	if from != to {
		m.stats.Count(kind, len(cp))
	}
	m.queues[to].push(frame{from: from, kind: kind, payload: cp})
}

// Stats returns the traffic counters.
func (m *Mem) Stats() *Stats { return &m.stats }

// Close stops delivery goroutines after draining queued frames.
func (m *Mem) Close() {
	if m.closed.Swap(true) {
		return
	}
	for _, q := range m.queues {
		q.close()
	}
	m.wg.Wait()
}
