package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"naiad/internal/transport"
)

// StageMetrics is one stage's delivery counters.
type StageMetrics struct {
	Stage         StageID
	Name          string
	Records       int64 // OnRecv invocations
	Notifications int64 // OnNotify invocations
}

// MetricsSnapshot is a point-in-time view of the computation's activity:
// per-stage delivery counts plus transport traffic. Safe to take while the
// computation runs.
type MetricsSnapshot struct {
	Stages         []StageMetrics
	DataFrames     int64
	DataBytes      int64
	ProgressFrames int64
	ProgressBytes  int64
	// DroppedFrames counts frames (all kinds) the transport accepted but
	// never delivered — reconnect-queue overflow, dead links, exhausted
	// retry budgets. Nonzero means the failure detector has (or will have)
	// something to say; it must never be silently zero-by-omission.
	DroppedFrames int64
	LoggedBatches int64
	Recovery      RecoverySnapshot // zero unless RecoveryMetrics are attached
}

// RecoveryMetrics aggregates fault-tolerance counters. The supervisor
// shares one instance across every incarnation of a computation (see
// Computation.SetRecoveryMetrics), so checkpoint and restart counts
// survive the teardown/rebuild cycle that recovery itself performs.
type RecoveryMetrics struct {
	// Checkpoints counts snapshots taken; CheckpointBytes sums their
	// serialized sizes.
	Checkpoints     atomic.Int64
	CheckpointBytes atomic.Int64
	// Restarts counts completed teardown/rebuild/restore cycles.
	Restarts atomic.Int64
	// LastRecoveryNanos is the duration of the most recent recovery, from
	// failure detection to the replayed computation catching up.
	LastRecoveryNanos atomic.Int64
	// HeartbeatMisses counts overdue heartbeat deadlines observed by the
	// failure detector (one per overdue link per sweep).
	HeartbeatMisses atomic.Int64
	// Cuts counts completed asynchronous-barrier snapshot cuts; CutBytes
	// sums their serialized sizes; CutAborts counts cuts abandoned because
	// a marker was lost, duplicated, or reordered (or a worker crashed
	// mid-alignment).
	Cuts      atomic.Int64
	CutBytes  atomic.Int64
	CutAborts atomic.Int64
	// SelectiveRevivals counts single-worker rollbacks that restored only
	// the crashed worker while the rest of the cluster kept running.
	SelectiveRevivals atomic.Int64
}

// Snapshot returns a point-in-time copy of the counters.
func (r *RecoveryMetrics) Snapshot() RecoverySnapshot {
	return RecoverySnapshot{
		Checkpoints:       r.Checkpoints.Load(),
		CheckpointBytes:   r.CheckpointBytes.Load(),
		Restarts:          r.Restarts.Load(),
		LastRecovery:      time.Duration(r.LastRecoveryNanos.Load()),
		HeartbeatMisses:   r.HeartbeatMisses.Load(),
		Cuts:              r.Cuts.Load(),
		CutBytes:          r.CutBytes.Load(),
		CutAborts:         r.CutAborts.Load(),
		SelectiveRevivals: r.SelectiveRevivals.Load(),
	}
}

// RecoverySnapshot is the point-in-time view of RecoveryMetrics.
type RecoverySnapshot struct {
	Checkpoints     int64
	CheckpointBytes int64
	Restarts        int64
	LastRecovery    time.Duration
	HeartbeatMisses int64

	Cuts              int64
	CutBytes          int64
	CutAborts         int64
	SelectiveRevivals int64
}

// String renders the snapshot as an aligned table.
func (m *MetricsSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stage metrics (%d stages):\n", len(m.Stages))
	for _, s := range m.Stages {
		fmt.Fprintf(&sb, "  %-20s records=%-10d notifications=%d\n", s.Name, s.Records, s.Notifications)
	}
	fmt.Fprintf(&sb, "transport: data %d frames / %d bytes, progress %d frames / %d bytes\n",
		m.DataFrames, m.DataBytes, m.ProgressFrames, m.ProgressBytes)
	if m.DroppedFrames > 0 {
		fmt.Fprintf(&sb, "transport: %d frames DROPPED\n", m.DroppedFrames)
	}
	if r := m.Recovery; r.Checkpoints > 0 || r.Restarts > 0 || r.HeartbeatMisses > 0 {
		fmt.Fprintf(&sb, "recovery: %d checkpoints / %d bytes, %d restarts (last recovery %v), %d heartbeat misses\n",
			r.Checkpoints, r.CheckpointBytes, r.Restarts, r.LastRecovery, r.HeartbeatMisses)
	}
	if r := m.Recovery; r.Cuts > 0 || r.CutAborts > 0 || r.SelectiveRevivals > 0 {
		fmt.Fprintf(&sb, "barriers: %d cuts / %d bytes, %d aborted, %d selective revivals\n",
			r.Cuts, r.CutBytes, r.CutAborts, r.SelectiveRevivals)
	}
	return sb.String()
}

// stageCounters holds the per-stage atomic counters, sized at Start.
type stageCounters struct {
	records       []atomic.Int64
	notifications []atomic.Int64
}

func newStageCounters(n int) *stageCounters {
	return &stageCounters{
		records:       make([]atomic.Int64, n),
		notifications: make([]atomic.Int64, n),
	}
}

// Metrics returns a snapshot of delivery and traffic counters. Before
// Start it returns an empty snapshot.
func (c *Computation) Metrics() *MetricsSnapshot {
	snap := &MetricsSnapshot{LoggedBatches: c.logCount.Load()}
	if c.recovery != nil {
		snap.Recovery = c.recovery.Snapshot()
	}
	if c.counters == nil {
		return snap
	}
	for _, si := range c.stages {
		snap.Stages = append(snap.Stages, StageMetrics{
			Stage:         si.id,
			Name:          si.name,
			Records:       c.counters.records[si.id].Load(),
			Notifications: c.counters.notifications[si.id].Load(),
		})
	}
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Stage < snap.Stages[j].Stage })
	if c.trans != nil {
		st := c.trans.Stats()
		snap.DataFrames = st.Frames(transport.KindData)
		snap.DataBytes = st.Bytes(transport.KindData)
		snap.ProgressFrames = st.Frames(transport.KindProgress)
		snap.ProgressBytes = st.Bytes(transport.KindProgress)
		snap.DroppedFrames = st.TotalDrops()
	}
	return snap
}
