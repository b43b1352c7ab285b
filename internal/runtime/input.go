package runtime

import (
	"fmt"
	"sync"

	"naiad/internal/batchbuf"
	"naiad/internal/graph"
)

// Input is the handle an external producer uses to supply epochs of data
// (§2.1, §4.1). Input stages have one vertex per worker; records are
// dealt round-robin unless directed with SendToWorker. An Input is safe
// for use by one producer goroutine.
type Input struct {
	comp  *Computation
	stage StageID

	mu     sync.Mutex
	epoch  int64
	closed bool
	rr     int // round-robin cursor for Send
}

// NewInput adds an input stage and returns its handle. Records introduced
// here are serialized by the consuming connectors' codecs when they cross
// process boundaries.
func (c *Computation) NewInput(name string) *Input {
	if c.started {
		panic("runtime: NewInput after Start")
	}
	id := c.AddStage(name, graph.RoleInput, 0, nil)
	in := &Input{comp: c, stage: id}
	c.inputs = append(c.inputs, in)
	return in
}

// Stage returns the input's stage id, for connecting consumers.
func (in *Input) Stage() StageID { return in.stage }

// Epoch returns the current (open) epoch.
func (in *Input) Epoch() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.epoch
}

// Send introduces records into the current epoch, dealing them
// round-robin across the workers. The records travel as one batch (see
// BatchOf); the caller keeps its slice.
func (in *Input) Send(records ...Message) { in.SendBatch(BatchOf(records)) }

// BatchOf copies records into one pooled batch (one reference, owned by the
// caller): typed when the first record's type has a registered pool,
// widened to boxed on a record of another type. It is the one conversion
// from boxed records to the batch plane; the caller keeps its slice.
func BatchOf(records []Message) *batchbuf.Batch {
	if len(records) == 0 {
		return batchbuf.GetBoxed(0)
	}
	b := batchbuf.ArenaFor(records[0]).Get(len(records))
	for _, r := range records {
		if !b.Append(r) {
			b = widen(b, len(records)-b.Len())
			b.Append(r)
		}
	}
	return b
}

// SendBatch introduces a whole batch into the current epoch, consuming one
// reference to b. With one worker the batch is handed over intact; with
// several it is dealt, continuing Send's round-robin cursor, into
// per-worker builder batches of the same column type.
func (in *Input) SendBatch(b *batchbuf.Batch) {
	per, epoch := in.planSendBatch(b)
	if per == nil {
		if b.Len() > 0 {
			in.feedBatch(0, epoch, b) // single worker: hand over intact
		} else {
			b.Release()
		}
		return
	}
	for w, sub := range per {
		if sub != nil {
			in.feedBatch(w, epoch, sub)
		}
	}
	b.Release()
}

// planSendBatch deals under the lock and snapshots the epoch the records
// belong to. The mailbox pushes happen after the lock is released: a mailbox
// handoff acquires the receiving worker's own mutex, and holding in.mu
// across it would couple the producer's and the worker's lock orders
// through the scheduler. The single-producer contract keeps the plan and
// the pushes consistent. It returns a nil slice in the single-worker case,
// where no deal is needed.
func (in *Input) planSendBatch(b *batchbuf.Batch) ([]*batchbuf.Batch, int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.checkOpen()
	workers := in.comp.cfg.Workers()
	if workers == 1 {
		return nil, in.epoch
	}
	per := make([]*batchbuf.Batch, workers)
	b.Deal(in.rr%workers, per)
	in.rr += b.Len()
	return per, in.epoch
}

// SendBatchToWorker introduces a whole batch into the current epoch at a
// specific worker's input vertex, consuming one reference to b.
func (in *Input) SendBatchToWorker(worker int, b *batchbuf.Batch) {
	epoch := in.planSendToWorker(worker)
	if b.Len() > 0 {
		in.feedBatch(worker, epoch, b)
	} else {
		b.Release()
	}
}

func (in *Input) feedBatch(worker int, epoch int64, b *batchbuf.Batch) {
	in.comp.workers[worker].mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{
		op: ctlInputFeed, stage: in.stage, epoch: epoch, batch: b,
	}})
}

// SendToWorker introduces records into the current epoch at a specific
// worker's input vertex — the per-computer ingestion pattern of §5.4's
// scaling experiments. The records are copied into one batch, so the
// caller keeps its slice.
func (in *Input) SendToWorker(worker int, records []Message) {
	in.SendBatchToWorker(worker, BatchOf(records))
}

func (in *Input) planSendToWorker(worker int) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.checkOpen()
	if worker < 0 || worker >= in.comp.cfg.Workers() {
		panic(fmt.Sprintf("runtime: SendToWorker(%d) with %d workers", worker, in.comp.cfg.Workers()))
	}
	return in.epoch
}

// Advance completes the current epoch and opens the next: the external
// producer's statement that no more records with the current label will
// arrive (§2.1).
func (in *Input) Advance() { in.AdvanceTo(in.Epoch() + 1) }

// AdvanceTo completes every epoch below e and makes e current.
func (in *Input) AdvanceTo(e int64) {
	if !in.planAdvance(e) {
		return
	}
	for _, w := range in.comp.workers {
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{
			op: ctlInputAdvance, stage: in.stage, epoch: e,
		}})
	}
}

// planAdvance validates and records the epoch change under the lock,
// reporting whether notifications need to go out. See planSendBatch for why the
// pushes happen unlocked.
func (in *Input) planAdvance(e int64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.checkOpen()
	if e < in.epoch {
		panic(fmt.Sprintf("runtime: input %d cannot retreat from epoch %d to %d", in.stage, in.epoch, e))
	}
	if e == in.epoch {
		return false
	}
	in.epoch = e
	for cur := in.comp.maxEpoch.Load(); e > cur; cur = in.comp.maxEpoch.Load() {
		if in.comp.maxEpoch.CompareAndSwap(cur, e) {
			break
		}
	}
	return true
}

// OnNext supplies one epoch of records and advances, mirroring the paper's
// prototypical program (§4.1).
func (in *Input) OnNext(records ...Message) {
	in.Send(records...)
	in.Advance()
}

// Close marks the input complete; once every input closes and drains, the
// computation shuts down and Join returns (§2.1).
func (in *Input) Close() {
	if !in.planClose() {
		return
	}
	for _, w := range in.comp.workers {
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{
			op: ctlInputClose, stage: in.stage,
		}})
	}
}

// planClose flips the closed flag under the lock, reporting whether this
// call is the one that must notify the workers.
func (in *Input) planClose() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false
	}
	in.closed = true
	return true
}

func (in *Input) checkOpen() {
	if in.closed {
		panic(fmt.Sprintf("runtime: input %d used after Close", in.stage))
	}
	if !in.comp.started {
		panic("runtime: input used before Start")
	}
}
