package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
)

// Asynchronous barrier snapshots (Chandy-Lamport aligned barriers, after
// "Lightweight Asynchronous Snapshots for Distributed Dataflows"), aligned
// to an epoch boundary E: a cut is started by injecting barrier markers at
// the input stages, which must sit exactly at epoch E with no epoch-≥E
// records fed yet. Each vertex begins aligning when the first marker for
// the cut reaches it: it keeps processing pre-boundary (epoch < E) records
// and notifications normally, while records of epochs ≥ E are deferred —
// logged into the cut as in-flight channel state and held, unprocessed, in
// arrival order. Once every input channel's marker has arrived AND every
// pending notification below the boundary has fired, the vertex snapshots:
// its fragment is then exactly the state a stop-the-world checkpoint at
// epoch E would capture. It forwards markers downstream ahead of any
// post-snapshot output, then replays its deferred records as ordinary
// traffic. No channel pauses and no worker stalls: steady-state traffic
// flows through the barrier, and the pre-boundary frontier drains globally
// because nothing below E is ever held back.
//
// A channel is one ordered (connector, source vertex) pair. Marker
// integrity is checked with per-channel batch counters: the marker carries
// the sender's cumulative batch count for the channel, and the receiver
// compares it with its own delivery count at marker arrival. Any FIFO
// violation — a reordered, duplicated, or misrouted marker — poisons the
// cut (it is abandoned, never torn); a dropped marker stalls the cut until
// the coordinator aborts it. Markers are invisible to the progress
// protocol: they carry no pointstamps, so the frontier invariant is
// untouched by checkpointing.

// BarrierMarker is one barrier message on one channel. Markers travel
// in-band with data: through the local delivery queue on a worker, through
// mailboxes between workers of a process, and as KindControl transport
// frames between processes — always behind the data batches sent before
// them on the same link.
type BarrierMarker struct {
	Cut   int64             // cut id, monotone per computation lifetime
	Epoch int64             // the cut's epoch boundary E
	Conn  graph.ConnectorID // the channel's connector
	Src   int               // sending vertex index (channel endpoint)
	Dst   int               // receiving vertex index (for routing)
	Count int64             // sender's cumulative batch count on the channel
}

// Barrier-marker wire format: a fixed header — magic "NBRK", format
// version, CRC-32C of the body — followed by the fixed-width body. Markers
// cross process boundaries, so hostile bytes must produce an error, never
// a panic (FuzzBarrierDecode enforces this).
const (
	markerMagic      = 0x4e42524b // "NBRK"
	markerVersion    = 2          // v2 added the epoch boundary
	markerHeaderSize = 9
	markerBodySize   = 8 + 8 + 4 + 4 + 4 + 8
)

var markerCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeBarrierMarker serializes a marker for transmission.
func EncodeBarrierMarker(m BarrierMarker) []byte {
	out := make([]byte, markerHeaderSize+markerBodySize)
	binary.LittleEndian.PutUint32(out[0:4], markerMagic)
	out[4] = markerVersion
	body := out[markerHeaderSize:]
	binary.LittleEndian.PutUint64(body[0:8], uint64(m.Cut))
	binary.LittleEndian.PutUint64(body[8:16], uint64(m.Epoch))
	binary.LittleEndian.PutUint32(body[16:20], uint32(m.Conn))
	binary.LittleEndian.PutUint32(body[20:24], uint32(m.Src))
	binary.LittleEndian.PutUint32(body[24:28], uint32(m.Dst))
	binary.LittleEndian.PutUint64(body[28:36], uint64(m.Count))
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(body, markerCRC))
	return out
}

// DecodeBarrierMarker parses a serialized marker, validating the magic,
// version, length, and body checksum. Untrusted bytes never panic.
func DecodeBarrierMarker(data []byte) (BarrierMarker, error) {
	var m BarrierMarker
	if len(data) != markerHeaderSize+markerBodySize {
		return m, fmt.Errorf("runtime: barrier marker is %d bytes, want %d", len(data), markerHeaderSize+markerBodySize)
	}
	if mg := binary.LittleEndian.Uint32(data[0:4]); mg != markerMagic {
		return m, fmt.Errorf("runtime: bad barrier marker magic %#x", mg)
	}
	if v := data[4]; v != markerVersion {
		return m, fmt.Errorf("runtime: unsupported barrier marker version %d (want %d)", v, markerVersion)
	}
	body := data[markerHeaderSize:]
	if sum := crc32.Checksum(body, markerCRC); sum != binary.LittleEndian.Uint32(data[5:9]) {
		return m, fmt.Errorf("runtime: barrier marker checksum mismatch")
	}
	m.Cut = int64(binary.LittleEndian.Uint64(body[0:8]))
	m.Epoch = int64(binary.LittleEndian.Uint64(body[8:16]))
	m.Conn = graph.ConnectorID(binary.LittleEndian.Uint32(body[16:20]))
	m.Src = int(binary.LittleEndian.Uint32(body[20:24]))
	m.Dst = int(binary.LittleEndian.Uint32(body[24:28]))
	m.Count = int64(binary.LittleEndian.Uint64(body[28:36]))
	return m, nil
}

// HeldCapability is one entry of a vertex's obligations table at the
// snapshot instant, under its per-vertex sequence number (the stable
// identity vertices checkpoint and delivery logs refer to). HasCap entries
// hold a token at Time; Notify entries owe an OnNotify(Guarantee). A plain
// held capability is HasCap only, NotifyAt/NotifyAtCap both, a purge
// notification Notify only.
type HeldCapability struct {
	Seq       uint64
	HasCap    bool
	Time      ts.Timestamp
	Notify    bool
	Guarantee ts.Timestamp
}

// CutSnapshot is the one snapshot type, aligned to the epoch boundary
// Epoch: every vertex's state after processing exactly the epochs below the
// boundary, the obligations each vertex held at its snapshot instant (held
// capabilities, and notification requests all at or above the boundary), the
// input epoch positions, and the deferred in-flight batches logged during
// alignment (encoded data frames, in delivery order, all at or above the
// boundary). An asynchronous barrier cut assembles one while traffic flows;
// Checkpoint takes one of a drained graph (Cut 0, no Channels).
//
// Because the fragments sit exactly on the epoch boundary, a full restore
// needs only Vertices and InputEpochs, and the feeding client replays epochs
// ≥ Epoch (Restore); that replay regenerates every hold and request. Caps
// and Channels serve selective rollback: a revived worker replays its
// delivery log from the snapshot instant, which needs the obligations
// outstanding at that instant, and the deferred batches document the
// in-flight channel state the log's first entries redeliver.
type CutSnapshot struct {
	Cut         int64
	Epoch       int64
	Vertices    map[StageID]map[int][]byte // stage → vertex index → state
	InputEpochs map[StageID]int64
	Channels    [][]byte                             // encoded data frames deferred across the boundary
	Caps        map[StageID]map[int][]HeldCapability // stage → vertex index → table, in Seq order
}

func newCutSnapshot(cut, epoch int64) *CutSnapshot {
	return &CutSnapshot{
		Cut:         cut,
		Epoch:       epoch,
		Vertices:    make(map[StageID]map[int][]byte),
		InputEpochs: make(map[StageID]int64),
		Caps:        make(map[StageID]map[int][]HeldCapability),
	}
}

// addFragment records one vertex's captured fragment in s, and an input
// vertex's epoch position (every vertex of an input stage sits at the same
// epoch when it is captured). Callers serialize access to s.
func (s *CutSnapshot) addFragment(vs *vertexState, state []byte, held []HeldCapability) {
	if state != nil {
		putFragment(s.Vertices, vs, state)
	}
	if len(held) > 0 {
		putFragment(s.Caps, vs, held)
	}
	if vs.si.role == graph.RoleInput {
		s.InputEpochs[vs.si.id] = vs.inputEpoch
	}
}

// putFragment sets vs's entry in a stage → vertex index map.
func putFragment[V any](m map[StageID]map[int]V, vs *vertexState, v V) {
	if m[vs.si.id] == nil {
		m[vs.si.id] = make(map[int]V)
	}
	m[vs.si.id][vs.vertexIdx] = v
}

// Snapshot wire format: a fixed 12-byte header — magic "NSNP", format
// version, CRC-32C of the body — followed by the codec-encoded body. The
// header lets the on-disk store reject truncated, bit-rotted, or
// foreign-format files with a clean error instead of restoring garbage
// state into a live computation.
const (
	snapshotMagic      = 0x4e534e50 // "NSNP"
	snapshotHeaderSize = 12
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// cutVersion is the NSNP format version of an encoded CutSnapshot. Version
// 4 folded the pending-notification section into the one obligations
// section. Version 5 has v4's layout, but its deferred channel frames are in
// codec.Gob's flat form where v4 binaries wrote gob. Version 6 has v5's
// layout, but the flat form writes fixed-width little-endian numbers and
// uint32 string lengths where v5 wrote varints, so a v5 frame would decode
// to wrong records rather than fail. Every other version — older cut
// layouts, and version 1, a retired stop-the-world format — is refused with
// ErrCutVersion.
const cutVersion = 6

// ErrCutVersion is wrapped into UnmarshalCut's error for well-formed NSNP
// bytes of any other format version. Callers treat it like a corrupt
// snapshot.
var ErrCutVersion = errors.New("runtime: unsupported cut version")

// Flag bits of an encoded HeldCapability.
const (
	heldHasCap = 1 << iota
	heldNotify
)

func putTimestamp(e *codec.Encoder, t ts.Timestamp) {
	e.PutInt64(t.Epoch)
	e.PutUint8(t.Depth)
	for i := uint8(0); i < t.Depth; i++ {
		e.PutInt64(t.Counters[i])
	}
}

// EncodeCut serializes a snapshot for durable storage, framed with the
// versioned, checksummed NSNP header. The buffer is sized up front from the
// state and channel bytes, which are nearly all of a cut, so a large cut is
// written once instead of regrown and copied.
func EncodeCut(s *CutSnapshot) []byte {
	size := snapshotHeaderSize + 1024
	for _, m := range s.Vertices {
		for _, data := range m {
			size += 8 + len(data)
		}
	}
	for _, ch := range s.Channels {
		size += 4 + len(ch)
	}
	enc := codec.NewEncoder(size)
	enc.PutUint32(snapshotMagic)
	enc.PutUint32(cutVersion)
	enc.PutUint32(0) // the body's checksum, filled in below
	enc.PutInt64(s.Cut)
	enc.PutInt64(s.Epoch)
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
	enc.PutUint32(uint32(len(s.Channels)))
	for _, ch := range s.Channels {
		enc.PutBytes(ch)
	}
	enc.PutUint32(uint32(len(s.Caps)))
	for sid, m := range s.Caps {
		enc.PutUint32(uint32(sid))
		enc.PutUint32(uint32(len(m)))
		for idx, held := range m {
			enc.PutUint32(uint32(idx))
			enc.PutUint32(uint32(len(held)))
			for _, h := range held {
				enc.PutUint64(h.Seq)
				var flags uint8
				if h.HasCap {
					flags |= heldHasCap
				}
				if h.Notify {
					flags |= heldNotify
				}
				enc.PutUint8(flags)
				if h.HasCap {
					putTimestamp(enc, h.Time)
				}
				if h.Notify {
					putTimestamp(enc, h.Guarantee)
				}
			}
		}
	}
	out := enc.Bytes()
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(out[snapshotHeaderSize:], snapshotCRC))
	return out
}

// UnmarshalCut parses a serialized cut, validating the header, version,
// and body checksum. Untrusted bytes (a file off disk, a fuzzer) never
// panic: structural damage surfaces as an error.
func UnmarshalCut(data []byte) (*CutSnapshot, error) {
	if len(data) < snapshotHeaderSize {
		return nil, fmt.Errorf("runtime: cut too short: %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != snapshotMagic {
		return nil, fmt.Errorf("runtime: bad cut magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != cutVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrCutVersion, v, cutVersion)
	}
	body := data[snapshotHeaderSize:]
	if sum := crc32.Checksum(body, snapshotCRC); sum != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, fmt.Errorf("runtime: cut checksum mismatch: body is corrupt")
	}
	s := newCutSnapshot(0, 0)
	err := codec.Catch(func() {
		dec := codec.NewDecoder(body)
		s.Cut = dec.Int64()
		s.Epoch = dec.Int64()
		for n := dec.Count(8); n > 0; n-- {
			sid := StageID(dec.Uint32())
			m := make(map[int][]byte)
			for k := dec.Count(8); k > 0; k-- {
				idx := int(dec.Uint32())
				m[idx] = append([]byte(nil), dec.BytesView()...)
			}
			s.Vertices[sid] = m
		}
		for n := dec.Count(12); n > 0; n-- {
			sid := StageID(dec.Uint32())
			s.InputEpochs[sid] = dec.Int64()
		}
		s.Channels = make([][]byte, dec.Count(4))
		for i := range s.Channels {
			s.Channels[i] = append([]byte(nil), dec.BytesView()...)
		}
		for n := dec.Count(8); n > 0; n-- {
			sid := StageID(dec.Uint32())
			m := make(map[int][]HeldCapability)
			for k := dec.Count(8); k > 0; k-- {
				idx := int(dec.Uint32())
				held := make([]HeldCapability, dec.Count(9))
				for i := range held {
					h := &held[i]
					h.Seq = dec.Uint64()
					flags := dec.Uint8()
					if flags == 0 || flags > heldHasCap|heldNotify {
						panic(fmt.Sprintf("runtime: corrupt cut: obligation flags %#x", flags))
					}
					if i > 0 && h.Seq <= held[i-1].Seq {
						panic("runtime: corrupt cut: obligations out of sequence order")
					}
					if h.HasCap = flags&heldHasCap != 0; h.HasCap {
						h.Time = decodeTime(dec)
					}
					if h.Notify = flags&heldNotify != 0; h.Notify {
						h.Guarantee = decodeTime(dec)
					}
				}
				m[idx] = held
			}
			s.Caps[sid] = m
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// chanKey packs a channel identity — or, on the sending side, a (connector,
// destination vertex) pair — into one map key.
func chanKey(conn graph.ConnectorID, vertex int) uint64 {
	return uint64(uint32(conn))<<32 | uint64(uint32(vertex))
}

// cutState tracks one in-flight cut at the computation level: vertices
// report their aligned fragments, and the cut completes when every vertex
// in the graph has reported. The first protocol violation poisons the cut;
// late reports for a settled cut are ignored.
type cutState struct {
	cut     int64
	want    int
	got     int
	settled bool
	snap    *CutSnapshot
	t0      int64 // tracer clock at injection, 0 when tracing is off
}

// SetCutHandler installs the asynchronous-snapshot completion callback,
// invoked once per injected cut from a runtime goroutine: with the
// assembled CutSnapshot on success, or with a nil snapshot and the poison
// reason when the cut was torn or aborted. Must be called before Start;
// installing a handler enables barrier support, which requires a codec on
// every connector (in-flight channel batches are logged serialized).
func (c *Computation) SetCutHandler(h func(cut int64, snap *CutSnapshot, err error)) {
	if c.started {
		panic("runtime: SetCutHandler after Start")
	}
	c.onCut = h
}

// SetWorkerCrashHandler installs the single-worker failure callback and
// enables selective rollback support: every worker keeps an in-memory
// delivery log segmented by cut, so a crashed worker can be revived with
// ReviveWorker while the rest of the cluster keeps running. Must be called
// before Start; requires a codec on every connector.
func (c *Computation) SetWorkerCrashHandler(h func(worker int)) {
	if c.started {
		panic("runtime: SetWorkerCrashHandler after Start")
	}
	c.onWorkerCrash = h
}

// cutExpected counts the vertices that must report for a cut to complete:
// every physical vertex of every stage, input and system stages included.
func (c *Computation) cutExpected() int {
	n := 0
	for _, si := range c.stages {
		n += si.parallelism(c.cfg.Workers())
	}
	return n
}

// InjectBarrier starts asynchronous snapshot cut `cut` at epoch boundary
// `epoch` by sending a barrier-start control to every worker; input-stage
// vertices snapshot immediately and emit markers downstream. The caller
// must hold every input exactly at `epoch`, with no epoch-≥epoch records
// fed yet — that discipline is what makes the assembled fragments sit on
// the boundary; feeding later epochs may resume immediately after this
// returns (they are deferred through the alignment). It returns without
// waiting: the cut handler fires when the cut completes or fails. Cut ids
// must be positive and strictly increasing across the computation's
// lifetime. Only one cut may be in flight at a time.
func (c *Computation) InjectBarrier(cut, epoch int64) error {
	if !c.started {
		return fmt.Errorf("runtime: InjectBarrier before Start")
	}
	if c.onCut == nil {
		return fmt.Errorf("runtime: InjectBarrier without a cut handler")
	}
	if cut <= 0 {
		return fmt.Errorf("runtime: cut ids must be positive, got %d", cut)
	}
	if epoch < 0 {
		return fmt.Errorf("runtime: cut epoch boundaries must be non-negative, got %d", epoch)
	}
	c.cutMu.Lock()
	if cur := c.curCut; cur != nil && !cur.settled {
		c.cutMu.Unlock()
		return fmt.Errorf("runtime: cut %d still in flight", cur.cut)
	}
	if cut <= c.lastCutID {
		c.cutMu.Unlock()
		return fmt.Errorf("runtime: cut ids must increase: %d after %d", cut, c.lastCutID)
	}
	c.lastCutID = cut
	cs := &cutState{cut: cut, want: c.cutExpected(), snap: newCutSnapshot(cut, epoch)}
	if tr := c.cfg.Tracer; tr != nil {
		cs.t0 = tr.Now()
		tr.Emit(trace.Event{Kind: trace.EvBarrierInject, Worker: -1, Stage: -1, Loc: -1, Epoch: cut, N: epoch})
	}
	c.curCut = cs
	c.cutMu.Unlock()
	for _, w := range c.workers {
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{op: ctlBarrier, cut: cut, epoch: epoch}})
	}
	return nil
}

// AbortCut abandons an in-flight cut: the handler fires with an error, and
// every worker discards its partial alignment state (merging the cut's
// delivery-log segments back). Data flow is unaffected — an aborted cut
// costs the snapshot, nothing else.
func (c *Computation) AbortCut(cut int64) {
	c.poisonCut(cut, fmt.Errorf("runtime: cut %d aborted by coordinator", cut))
	for _, w := range c.workers {
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{op: ctlBarrierAbort, cut: cut}})
	}
}

// RetireCut tells every worker that the cut is complete and durable:
// delivery-log segments older than it are pruned, and stray late markers
// for it (a duplicating network) are dropped instead of misinterpreted.
// Call it after persisting the cut the handler delivered.
func (c *Computation) RetireCut(cut int64) {
	for _, w := range c.workers {
		w.mailbox.push(mailItem{kind: mailControl, ctl: &controlMsg{op: ctlCutRetire, cut: cut}})
	}
}

// reportCutFragment records one vertex's aligned contribution. The last
// fragment completes the cut and fires the handler from a fresh goroutine
// (never from a worker thread — the handler may block on disk).
func (c *Computation) reportCutFragment(cut int64, vs *vertexState, state []byte, held []HeldCapability, chans [][]byte) {
	c.cutMu.Lock()
	cs := c.curCut
	if cs == nil || cs.cut != cut || cs.settled {
		c.cutMu.Unlock()
		return
	}
	cs.snap.addFragment(vs, state, held)
	cs.snap.Channels = append(cs.snap.Channels, chans...)
	cs.got++
	done := cs.got == cs.want
	if done {
		cs.settled = true
	}
	t0 := cs.t0
	c.cutMu.Unlock()
	if done {
		if tr := c.cfg.Tracer; tr != nil {
			tr.Emit(trace.Event{Kind: trace.EvBarrierCut, Worker: -1, Stage: -1, Loc: -1,
				Epoch: cut, Dur: tr.Now() - t0, N: int64(len(cs.snap.Channels))})
		}
		h := c.onCut
		snap := cs.snap
		go h(cut, snap, nil)
	}
}

// poisonCut fails an in-flight cut: the handler fires once with the
// reason; everything already collected is discarded. A poisoned cut is
// never observable as a snapshot — torn cuts cannot happen, only missing
// ones.
func (c *Computation) poisonCut(cut int64, reason error) {
	c.cutMu.Lock()
	cs := c.curCut
	if cs == nil || cs.cut != cut || cs.settled {
		c.cutMu.Unlock()
		return
	}
	cs.settled = true
	c.cutMu.Unlock()
	if h := c.onCut; h != nil {
		go h(cut, nil, reason)
	}
}
