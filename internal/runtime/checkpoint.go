package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Snapshot is a consistent checkpoint of every stateful vertex plus the
// input epoch positions, taken across all workers (§3.4). Snapshots are
// taken at epoch boundaries: the caller quiesces the computation first
// (stop feeding, wait on a probe), which is the "pause and flush" step of
// the paper's protocol.
type Snapshot struct {
	Vertices    map[StageID]map[int][]byte // stage → vertex index → state
	InputEpochs map[StageID]int64
}

// checkpointState is the rendezvous object shared by the workers while a
// checkpoint or restore is in progress. cut is set when the snapshot being
// restored came from an asynchronous-barrier cut.
type checkpointState struct {
	mu   sync.Mutex
	snap *Snapshot
	cut  *CutSnapshot
}

// Checkpoint pauses each worker in turn at a quantum boundary, flushes its
// queued deliveries, and serializes every vertex implementing
// Checkpointer. Call it only when the fed epochs have completed (e.g.
// after Probe.WaitFor); checkpointing a computation with in-flight work
// returns an inconsistent snapshot.
func (c *Computation) Checkpoint() (*Snapshot, error) {
	if !c.started {
		return nil, fmt.Errorf("runtime: Checkpoint before Start")
	}
	snap := &Snapshot{
		Vertices:    make(map[StageID]map[int][]byte),
		InputEpochs: make(map[StageID]int64),
	}
	for _, in := range c.inputs {
		snap.InputEpochs[in.stage] = in.Epoch()
	}
	cp := &checkpointState{snap: snap}
	if err := c.rendezvous(ctlCheckpoint, cp); err != nil {
		return nil, err
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

// Restore loads a snapshot into a freshly started computation: vertex
// states are handed to Restore on their owning workers, and the inputs are
// advanced to their checkpointed epochs so the progress protocol accounts
// for the skipped epochs.
//
// Input epochs only move forward: a snapshot whose InputEpochs entry is ≤
// the input's current epoch leaves that input where it is (AdvanceTo is
// skipped), because epochs are monotone in the progress protocol and
// rewinding one would violate the frontier invariant. The normal recovery
// flow — rebuild the graph, Start, Restore — always restores into inputs
// at epoch 0, so every checkpointed position wins; only a caller restoring
// into a computation that has already been fed can observe the skip.
//
// A snapshot referencing a StageID outside the graph (in Vertices or
// InputEpochs) is rejected with *UnknownStageError before any vertex state
// is touched.
func (c *Computation) Restore(snap *Snapshot) error {
	return c.restore(&checkpointState{snap: snap})
}

// RestoreCut loads an asynchronous-barrier cut into a freshly started
// computation. Cut fragments sit exactly on the cut's epoch boundary, so a
// full restore is the same operation as restoring a stop-the-world
// Snapshot taken there: vertex fragments restore on their owning workers
// and the inputs advance to their cut positions. The caller owns
// redelivery of everything past the boundary — exactly as for Restore —
// by replaying its input log from the restored epochs; that replay also
// regenerates the cut's obligations (held capabilities, notification
// requests) and deferred channel batches, which therefore must NOT be
// re-injected here (doing so would deliver them twice). They exist for
// selective rollback (ReviveWorker), where the delivery log — not a
// replayed feed — reconstructs the post-boundary execution. The same
// forward-only input rule and UnknownStageError validation as Restore
// apply.
func (c *Computation) RestoreCut(cut *CutSnapshot) error {
	return c.restore(&checkpointState{
		snap: &Snapshot{Vertices: cut.Vertices, InputEpochs: cut.InputEpochs},
		cut:  cut,
	})
}

func (c *Computation) restore(cp *checkpointState) error {
	if !c.started {
		return fmt.Errorf("runtime: Restore before Start")
	}
	for sid := range cp.snap.Vertices {
		if int(sid) < 0 || int(sid) >= len(c.stages) {
			return &UnknownStageError{Stage: sid}
		}
	}
	for sid := range cp.snap.InputEpochs {
		if int(sid) < 0 || int(sid) >= len(c.stages) {
			return &UnknownStageError{Stage: sid}
		}
	}
	if err := c.rendezvous(ctlRestore, cp); err != nil {
		return err
	}
	for _, in := range c.inputs {
		if e, ok := cp.snap.InputEpochs[in.stage]; ok && e > in.Epoch() {
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
// deliveries and serializes the worker's stateful vertices.
func (w *worker) checkpointVertices(cp *checkpointState) error {
	var t0 int64
	if w.tracer != nil {
		t0 = w.tracer.Now()
	}
	w.deliverAll()
	for _, vs := range w.vsList {
		cpr, ok := vs.vertex.(Checkpointer)
		if !ok {
			continue
		}
		enc := codec.NewEncoder(256)
		cpr.Checkpoint(enc)
		cp.mu.Lock()
		m := cp.snap.Vertices[vs.si.id]
		if m == nil {
			m = make(map[int][]byte)
			cp.snap.Vertices[vs.si.id] = m
		}
		m[vs.vertexIdx] = append([]byte(nil), enc.Bytes()...)
		cp.mu.Unlock()
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{
			Kind: trace.EvCheckpoint, Worker: int32(w.id), Stage: -1, Loc: -1,
			Epoch: -1, Dur: w.tracer.Now() - t0,
		})
	}
	return nil
}

// restoreVertices runs on the worker thread: it hands each stateful vertex
// its checkpointed bytes.
func (w *worker) restoreVertices(cp *checkpointState) error {
	var t0 int64
	if w.tracer != nil {
		t0 = w.tracer.Now()
	}
	for _, vs := range w.vsList {
		cpr, ok := vs.vertex.(Checkpointer)
		if !ok {
			continue
		}
		cp.mu.Lock()
		data, found := cp.snap.Vertices[vs.si.id][vs.vertexIdx]
		cp.mu.Unlock()
		if !found {
			continue
		}
		cpr.Restore(codec.NewDecoder(data))
	}
	if cut := cp.cut; cut != nil {
		// Record the cut as the revival baseline for selective rollback before
		// the next complete cut, stripped to what was actually applied
		// (fragments and input positions): a later snap-less revival replays
		// the whole post-restore delivery log against the same starting state
		// the live worker had.
		w.restoredCut = &CutSnapshot{
			Cut: cut.Cut, Epoch: cut.Epoch,
			Vertices: cut.Vertices, InputEpochs: cut.InputEpochs,
		}
	}
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{
			Kind: trace.EvRestore, Worker: int32(w.id), Stage: -1, Loc: -1,
			Epoch: -1, Dur: w.tracer.Now() - t0,
		})
	}
	return nil
}

// Snapshot wire format: a fixed 12-byte header — magic "NSNP", format
// version, CRC-32C of the body — followed by the codec-encoded body. The
// header lets the on-disk store reject truncated, bit-rotted, or
// foreign-format files with a clean error instead of restoring garbage
// state into a live computation.
const (
	snapshotMagic      = 0x4e534e50 // "NSNP"
	snapshotVersion    = 1
	snapshotHeaderSize = 12
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes a snapshot for durable storage, framed with
// the versioned, checksummed snapshot header.
func EncodeSnapshot(s *Snapshot) []byte {
	enc := codec.NewEncoder(1024)
	enc.PutUint32(uint32(len(s.Vertices)))
	for sid, m := range s.Vertices {
		enc.PutUint32(uint32(sid))
		enc.PutUint32(uint32(len(m)))
		for idx, data := range m {
			enc.PutUint32(uint32(idx))
			enc.PutBytes(data)
		}
	}
	enc.PutUint32(uint32(len(s.InputEpochs)))
	for sid, e := range s.InputEpochs {
		enc.PutUint32(uint32(sid))
		enc.PutInt64(e)
	}
	body := enc.Bytes()
	out := make([]byte, snapshotHeaderSize+len(body))
	binary.LittleEndian.PutUint32(out[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(out[4:8], snapshotVersion)
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(body, snapshotCRC))
	copy(out[snapshotHeaderSize:], body)
	return out
}

// UnmarshalSnapshot parses a serialized snapshot, validating the header,
// version, and body checksum. Untrusted bytes (a file off disk) never
// panic: structural damage surfaces as an error.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapshotHeaderSize {
		return nil, fmt.Errorf("runtime: snapshot too short: %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != snapshotMagic {
		return nil, fmt.Errorf("runtime: bad snapshot magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapshotVersion {
		return nil, fmt.Errorf("runtime: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	body := data[snapshotHeaderSize:]
	if sum := crc32.Checksum(body, snapshotCRC); sum != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, fmt.Errorf("runtime: snapshot checksum mismatch: body is corrupt")
	}
	s := &Snapshot{
		Vertices:    make(map[StageID]map[int][]byte),
		InputEpochs: make(map[StageID]int64),
	}
	err := codec.Catch(func() {
		dec := codec.NewDecoder(body)
		for n := int(dec.Uint32()); n > 0; n-- {
			sid := StageID(dec.Uint32())
			m := make(map[int][]byte)
			for k := int(dec.Uint32()); k > 0; k-- {
				idx := int(dec.Uint32())
				m[idx] = append([]byte(nil), dec.BytesView()...)
			}
			s.Vertices[sid] = m
		}
		for n := int(dec.Uint32()); n > 0; n-- {
			sid := StageID(dec.Uint32())
			s.InputEpochs[sid] = dec.Int64()
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeSnapshot parses a serialized snapshot, panicking on malformed
// input. Use UnmarshalSnapshot for bytes that crossed a trust boundary.
func DecodeSnapshot(data []byte) *Snapshot {
	s, err := UnmarshalSnapshot(data)
	if err != nil {
		panic(err)
	}
	return s
}
