package trace

import "fmt"

// Kind enumerates the traced event types. Each kind documents which Event
// fields it populates; unused fields are -1 (ids) or 0 (quantities).
type Kind uint8

const (
	// EvOnRecv is one OnRecv/OnRecvBatch callback: Stage, Epoch, Dur
	// (callback wall time), N = records delivered in the invocation (1 for
	// a single-record OnRecv, the batch length for a batch delivery).
	EvOnRecv Kind = iota
	// EvOnNotify is one OnNotify callback: Stage, Epoch, Dur.
	EvOnNotify
	// EvSchedule is one worker scheduler quantum that processed mailbox
	// items: N = items drained, Dur = quantum wall time.
	EvSchedule
	// EvProgressPost is one worker progress flush: N = updates broadcast.
	EvProgressPost
	// EvProgressApply is one progress batch applied to a worker's local
	// tracker: N = updates in the batch.
	EvProgressApply
	// EvFrontier is a frontier movement observed at a location (worker 0's
	// local view): Loc = graph location, Epoch = the location's new minimum
	// frontier epoch. Aux = 1 means the location left the frontier (its last
	// pointstamp retired).
	EvFrontier
	// EvFrameSend is a transport frame sent: Aux = frame kind, Loc =
	// destination process, N = payload bytes.
	EvFrameSend
	// EvFrameRecv is a transport frame received: Aux = frame kind, Loc =
	// source process, N = payload bytes.
	EvFrameRecv
	// EvCheckpoint is a checkpoint: Dur = serialization wall time. Aux = 0
	// for a worker-local vertex sweep, 1 for a supervisor-level snapshot
	// (then N = encoded bytes and Epoch = the checkpointed epoch).
	EvCheckpoint
	// EvRestore is a snapshot restore: Dur; Aux/N/Epoch as for EvCheckpoint.
	EvRestore
	// EvRestart is a completed supervised recovery: Dur = failure detection
	// to the replayed computation catching up, Epoch = the epoch recovery
	// replayed to. Aux = the restart attempt for a full teardown/rebuild
	// recovery, or -1 for a selective single-worker revival (then Worker =
	// the revived worker).
	EvRestart
	// EvBarrierInject is a barrier injected at the input stages for an
	// asynchronous snapshot cut: Epoch = the cut id.
	EvBarrierInject
	// EvBarrierAlign is one vertex completing barrier alignment: Stage,
	// Worker, Epoch = cut id, Dur = first-marker to last-marker wall time,
	// N = in-flight channel batches logged into the cut.
	EvBarrierAlign
	// EvBarrierCut is a completed (all vertices aligned) asynchronous
	// snapshot cut: Epoch = cut id, N = encoded bytes, Dur = injection to
	// completion wall time. Aux = 1 when the cut was persisted by the
	// supervisor.
	EvBarrierCut

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EvOnRecv:
		return "onrecv"
	case EvOnNotify:
		return "onnotify"
	case EvSchedule:
		return "schedule"
	case EvProgressPost:
		return "progress-post"
	case EvProgressApply:
		return "progress-apply"
	case EvFrontier:
		return "frontier"
	case EvFrameSend:
		return "frame-send"
	case EvFrameRecv:
		return "frame-recv"
	case EvCheckpoint:
		return "checkpoint"
	case EvRestore:
		return "restore"
	case EvRestart:
		return "restart"
	case EvBarrierInject:
		return "barrier-inject"
	case EvBarrierAlign:
		return "barrier-align"
	case EvBarrierCut:
		return "barrier-cut"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one fixed-size trace record. Events are plain values: they are
// written into lock-free rings on the hot path and must not point into
// runtime state.
type Event struct {
	Kind   Kind  // what happened
	Aux    int32 // kind-specific discriminant (see the Kind constants)
	Worker int32 // emitting worker id, or -1 for non-worker sources
	Stage  int32 // stage id, or -1
	Loc    int32 // graph location / peer process, or -1
	Epoch  int64 // epoch of the associated timestamp, or -1
	T      int64 // nanoseconds since the tracer started (stamped by Emit)
	Dur    int64 // duration in nanoseconds, or 0
	N      int64 // count: records, updates, or bytes, or 0
}

// String renders the event compactly for text dumps.
func (e Event) String() string {
	return fmt.Sprintf("%-14s t=%-12d w=%-3d stage=%-3d loc=%-3d epoch=%-4d aux=%d dur=%d n=%d",
		e.Kind, e.T, e.Worker, e.Stage, e.Loc, e.Epoch, e.Aux, e.Dur, e.N)
}
