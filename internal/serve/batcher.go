package serve

import (
	"sync"
	"time"

	"naiad/internal/runtime"
)

// ingestBatch is one admitted request's records, in flight from an HTTP
// handler to a flow's edge batcher. The reply channel (buffered, never
// blocking the batcher) carries back the epoch the records entered: the
// ack a client can later observe complete via the frontier endpoint.
type ingestBatch struct {
	tenant string
	msgs   []runtime.Message
	n      int
	seal   bool       // force-seal request (no records): bounded-latency knob
	reply  chan int64 // receives the epoch fed (or sealed)
}

// pendingEpoch is one sealed-at-the-edge epoch awaiting probe completion;
// its credits are released when the probe passes it.
type pendingEpoch struct {
	epoch    int64
	count    int
	byTenant map[string]int
	sealedAt time.Time
}

// flowState is a registered flow's serving machinery: the single-producer
// edge batcher feeding the runtime input, and the ack releaser returning
// credits and waking parked reads as the probe advances. The batcher
// goroutine is the only caller of the input's methods, honoring
// runtime.Input's single-producer contract.
type flowState struct {
	s *Server
	f Flow

	queue  chan ingestBatch
	demand chan struct{} // capacity 1: a read parked or an epoch completed; the batcher re-checks sealOnDemand
	stopCh chan struct{}

	mu      sync.Mutex
	pending []pendingEpoch // sealed, not yet completed; FIFO, the releaser's work queue
	failed  error          // set when the probe reports a dataflow failure
	closed  bool           // the input is closed: nothing more will be sealed
	parked  int            // reads waiting in waitCompleted right now
	wake    chan struct{}  // closed and replaced on every seal, completion and close
}

// queueDepth buffers hand-offs to the batcher; push blocks for the reply
// anyway, so a full queue only moves where a handler waits.
const queueDepth = 64

// demandSpacing is the least time between two on-demand seals. Readers can
// induce at most one extra epoch per demandSpacing, however hard they press:
// a lone read-your-write still seals at once, a closed loop of them settles
// on this clock instead of on how fast the host happens to turn an epoch
// around, and every reader that arrives meanwhile shares the next seal. It is
// a variable only so that a test can stretch it.
var demandSpacing = time.Millisecond

func newFlowState(s *Server, f Flow) *flowState {
	return &flowState{
		s:      s,
		f:      f,
		queue:  make(chan ingestBatch, queueDepth),
		demand: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		wake:   make(chan struct{}),
	}
}

// broadcast wakes the reads and the releaser parked on fs.wake. Callers hold
// fs.mu: a waiter that took fs.wake under it, then checked, misses nothing.
func (fs *flowState) broadcast() {
	close(fs.wake)
	fs.wake = make(chan struct{})
}

// nudge has the batcher re-check sealOnDemand; one queued nudge is enough.
func (fs *flowState) nudge() {
	select {
	case fs.demand <- struct{}{}:
	default:
	}
}

func (fs *flowState) start() {
	fs.s.wg.Add(2)
	go fs.batchLoop()
	go fs.releaseLoop()
}

// stop asks the batcher to drain, seal, and close the input. Callers
// guarantee no concurrent ingest pushes (the HTTP server has shut down).
func (fs *flowState) stop() { close(fs.stopCh) }

// push hands an admitted batch to the batcher and waits for the epoch it
// lands in — the delayed-ack edge of the backpressure path. Returns -1
// when the server is stopping.
func (fs *flowState) push(b ingestBatch) int64 {
	b.reply = make(chan int64, 1)
	select {
	case fs.queue <- b:
	case <-fs.stopCh:
		return -1
	}
	select {
	case e := <-b.reply:
		return e
	case <-fs.stopCh:
		return -1
	}
}

// batchLoop is the edge batcher: it owns the input, feeds admitted
// records into the open epoch, and seals epochs on demand (sealOnDemand),
// on the cadence, at the size bound, or on an explicit seal request. On
// stop it drains the queue, seals the remainder, and closes the input so
// the owning computation can Join.
func (fs *flowState) batchLoop() {
	defer fs.s.wg.Done()
	tick := time.NewTicker(fs.s.cfg.EpochInterval)
	defer tick.Stop()
	pace := time.NewTimer(demandSpacing) // re-armed by every on-demand seal
	defer pace.Stop()
	paced := false // an on-demand seal happened less than demandSpacing ago
	var open *pendingEpoch
	feed := func(b ingestBatch) {
		if b.seal {
			sealed := fs.seal(&open)
			b.reply <- sealed
			return
		}
		if len(b.msgs) > 0 {
			fs.f.Input.Send(b.msgs...)
		}
		if open == nil {
			open = &pendingEpoch{epoch: fs.f.Input.Epoch(), byTenant: make(map[string]int)}
		}
		open.count += b.n
		open.byTenant[b.tenant] += b.n
		b.reply <- open.epoch
		if open.count >= fs.s.cfg.EpochMaxRecords {
			fs.seal(&open)
		}
	}
	for {
		select {
		case b := <-fs.queue:
			feed(b)
		case <-fs.demand:
		case <-pace.C:
			paced = false
		case <-tick.C:
			if open != nil {
				fs.seal(&open)
			}
		case <-fs.stopCh:
			for {
				select {
				case b := <-fs.queue:
					feed(b)
				default:
					fs.seal(&open)
					fs.f.Input.Close()
					fs.mu.Lock()
					fs.closed = true
					fs.broadcast()
					fs.mu.Unlock()
					return
				}
			}
		}
		if open != nil && !paced && len(fs.queue) == 0 && fs.sealOnDemand() {
			fs.seal(&open)
			fs.s.metrics.EpochsSealedOnDemand.Add(1)
			paced = true
			pace.Reset(demandSpacing)
		}
	}
}

// sealOnDemand is the group-commit rule: seal ahead of the cadence iff a
// read is parked right now and no sealed epoch is still incomplete (the
// caller checks the queue is drained and the last on-demand seal is
// demandSpacing old). An idle door answers in dataflow time; a busy one
// fills the open epoch until its predecessor completes and the spacing has
// passed, so readers add at most one epoch per demandSpacing and never more
// than the dataflow completes; nobody parked, no early seal.
func (fs *flowState) sealOnDemand() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.parked > 0 && len(fs.pending) == 0
}

// seal completes the open epoch at the edge: the input advances and the
// epoch joins the pending list — the backlog signal, and the releaser's
// work queue. Returns the sealed epoch, or the last sealed epoch when
// nothing was open.
func (fs *flowState) seal(open **pendingEpoch) int64 {
	if *open == nil {
		return fs.f.Input.Epoch() - 1
	}
	p := **open
	*open = nil
	p.sealedAt = time.Now()
	fs.f.Input.Advance()
	fs.mu.Lock()
	fs.pending = append(fs.pending, p)
	fs.broadcast()
	fs.mu.Unlock()
	fs.s.metrics.EpochsSealed.Add(1)
	return p.epoch
}

// releaseLoop is the ack releaser: for each sealed epoch in order, wait
// for the flow's probe to pass it, wake the parked reads and the batcher,
// then return the epoch's credits to the tenant and global pools — the
// moment backpressure actually relaxes. A probe released by a dataflow
// failure instead marks the flow failed (ingest starts rejecting, parked
// reads give up) and still returns the credits: the records are gone,
// holding their credits would wedge the door shut forever.
func (fs *flowState) releaseLoop() {
	defer fs.s.wg.Done()
	for {
		fs.mu.Lock()
		for len(fs.pending) == 0 && !fs.closed {
			wake := fs.wake
			fs.mu.Unlock()
			<-wake
			fs.mu.Lock()
		}
		if len(fs.pending) == 0 {
			fs.mu.Unlock()
			return // input closed, every sealed epoch completed
		}
		p := fs.pending[0]
		fs.mu.Unlock()
		err := fs.f.Probe.WaitForErr(p.epoch)
		if err != nil { // counted before anyone is woken to look
			fs.s.metrics.FlowFailures.Add(1)
		} else {
			fs.s.metrics.EpochsCompleted.Add(1)
			fs.s.metrics.RecordAck(int64(time.Since(p.sealedAt)))
		}
		fs.mu.Lock()
		fs.pending = fs.pending[1:]
		if err != nil && fs.failed == nil {
			fs.failed = err
		}
		fs.broadcast()
		fs.mu.Unlock()
		fs.nudge()
		for tenant, n := range p.byTenant {
			if t := fs.s.tenant(tenant, false); t != nil {
				t.pool.release(n)
			}
		}
		fs.s.global.release(p.count)
	}
}

// backlogAge is the degradation signal contribution: how long the oldest
// sealed-but-incomplete epoch has been waiting on the dataflow.
func (fs *flowState) backlogAge() time.Duration {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.pending) == 0 {
		return 0
	}
	return time.Since(fs.pending[0].sealedAt)
}

// err returns the dataflow failure observed by the releaser, if any.
func (fs *flowState) err() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.failed
}

// completed returns the probe's highest completed epoch.
func (fs *flowState) completed() int64 { return fs.f.Probe.Completed() }
