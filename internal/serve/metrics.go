package serve

import (
	"sync"
	"sync/atomic"

	"naiad/internal/trace"
)

// Metrics is the front door's accounting: every record admitted, delayed,
// or shed is counted exactly once, so an overload run can be audited —
// accepted + shed (by reason) equals offered load. Counters are atomics
// (readable while serving); the latency histograms are mutex-guarded and
// off the per-record hot path (one Record per request / per epoch).
type Metrics struct {
	// Sessions.
	SessionsOpened atomic.Int64
	SessionsClosed atomic.Int64
	SessionsReaped atomic.Int64
	SessionsShed   atomic.Int64 // session creations refused (cap or mode)
	OpenSessions   atomic.Int64
	TenantsSeen    atomic.Int64
	TenantsShed    atomic.Int64 // unknown tenants refused in shed-new

	// Ingest.
	RecordsAccepted atomic.Int64 // admitted and handed to the edge batcher
	RecordsShed     atomic.Int64 // rejected records, all reasons
	ShedQuota       atomic.Int64 // requests shed on tenant quota
	ShedOverload    atomic.Int64 // requests shed on the global pool
	ShedMode        atomic.Int64 // requests shed by ladder mode
	DelayedRequests atomic.Int64 // requests that waited in admission
	BadRequests     atomic.Int64
	EpochsSealed    atomic.Int64
	EpochsCompleted atomic.Int64
	FlowFailures    atomic.Int64 // probe waits that ended in a dataflow error
	// EpochsSealedOnDemand: seals a parked read triggered ahead of the cadence
	// (near EpochsSealed: latency mode; near zero: batching mode).
	EpochsSealedOnDemand atomic.Int64

	// Reads.
	ReadsServed  atomic.Int64
	ReadTimeouts atomic.Int64

	// Degradation.
	ModeChanges atomic.Int64
	Escalations atomic.Int64
	CurrentMode atomic.Int32

	histMu  sync.Mutex
	ackH    trace.Histogram // epoch seal → probe completion (end-to-end lag)
	admitH  trace.Histogram // time an ingest request spent waiting in admission
	ingestH trace.Histogram // full ingest request handling time
}

// RecordAck records one epoch's seal-to-completion latency.
func (m *Metrics) RecordAck(nanos int64) {
	m.histMu.Lock()
	m.ackH.Record(nanos)
	m.histMu.Unlock()
}

// RecordAdmitWait records one request's admission wait.
func (m *Metrics) RecordAdmitWait(nanos int64) {
	m.histMu.Lock()
	m.admitH.Record(nanos)
	m.histMu.Unlock()
}

// RecordIngest records one ingest request's handling time.
func (m *Metrics) RecordIngest(nanos int64) {
	m.histMu.Lock()
	m.ingestH.Record(nanos)
	m.histMu.Unlock()
}

// HistSnapshot summarizes one latency histogram in nanoseconds.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
}

func histSnap(h *trace.Histogram) HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Snapshot is a point-in-time copy of the metrics, shaped for JSON.
type Snapshot struct {
	SessionsOpened  int64  `json:"sessions_opened"`
	SessionsClosed  int64  `json:"sessions_closed"`
	SessionsReaped  int64  `json:"sessions_reaped"`
	SessionsShed    int64  `json:"sessions_shed"`
	OpenSessions    int64  `json:"open_sessions"`
	TenantsSeen     int64  `json:"tenants_seen"`
	TenantsShed     int64  `json:"tenants_shed"`
	RecordsAccepted int64  `json:"records_accepted"`
	RecordsShed     int64  `json:"records_shed"`
	ShedQuota       int64  `json:"shed_quota"`
	ShedOverload    int64  `json:"shed_overload"`
	ShedMode        int64  `json:"shed_mode"`
	DelayedRequests int64  `json:"delayed_requests"`
	BadRequests     int64  `json:"bad_requests"`
	EpochsSealed    int64  `json:"epochs_sealed"`
	EpochsCompleted int64  `json:"epochs_completed"`
	FlowFailures    int64  `json:"flow_failures"`
	ReadsServed     int64  `json:"reads_served"`
	ReadTimeouts    int64  `json:"read_timeouts"`
	ModeChanges     int64  `json:"mode_changes"`
	Escalations     int64  `json:"escalations"`
	Mode            string `json:"mode"`

	EpochsSealedOnDemand int64 `json:"epochs_sealed_on_demand"`

	AckLatency    HistSnapshot `json:"ack_latency"`
	AdmitWait     HistSnapshot `json:"admit_wait"`
	IngestLatency HistSnapshot `json:"ingest_latency"`
}

// Snapshot copies the counters and summarizes the histograms.
func (m *Metrics) Snapshot() Snapshot {
	m.histMu.Lock()
	ack, admit, ingest := histSnap(&m.ackH), histSnap(&m.admitH), histSnap(&m.ingestH)
	m.histMu.Unlock()
	return Snapshot{
		SessionsOpened:  m.SessionsOpened.Load(),
		SessionsClosed:  m.SessionsClosed.Load(),
		SessionsReaped:  m.SessionsReaped.Load(),
		SessionsShed:    m.SessionsShed.Load(),
		OpenSessions:    m.OpenSessions.Load(),
		TenantsSeen:     m.TenantsSeen.Load(),
		TenantsShed:     m.TenantsShed.Load(),
		RecordsAccepted: m.RecordsAccepted.Load(),
		RecordsShed:     m.RecordsShed.Load(),
		ShedQuota:       m.ShedQuota.Load(),
		ShedOverload:    m.ShedOverload.Load(),
		ShedMode:        m.ShedMode.Load(),
		DelayedRequests: m.DelayedRequests.Load(),
		BadRequests:     m.BadRequests.Load(),
		EpochsSealed:    m.EpochsSealed.Load(),
		EpochsCompleted: m.EpochsCompleted.Load(),
		FlowFailures:    m.FlowFailures.Load(),
		ReadsServed:     m.ReadsServed.Load(),
		ReadTimeouts:    m.ReadTimeouts.Load(),
		ModeChanges:     m.ModeChanges.Load(),
		Escalations:     m.Escalations.Load(),
		Mode:            Mode(m.CurrentMode.Load()).String(),
		AckLatency:      ack,
		AdmitWait:       admit,
		IngestLatency:   ingest,

		EpochsSealedOnDemand: m.EpochsSealedOnDemand.Load(),
	}
}
