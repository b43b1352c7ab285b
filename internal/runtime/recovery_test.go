package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"naiad/internal/testutil"
	"naiad/internal/transport"
)

// TestRestoreRejectsUnknownStage: a snapshot referencing a StageID the
// graph does not have must be rejected with a typed error before any
// vertex state is touched.
func TestRestoreRejectsUnknownStage(t *testing.T) {
	c, in, _, _ := buildCounter(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		in.Close()
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
	}()
	var use *UnknownStageError
	err := c.Restore(&CutSnapshot{
		Vertices:    map[StageID]map[int][]byte{99: {0: nil}},
		InputEpochs: map[StageID]int64{},
	})
	if !errors.As(err, &use) || use.Stage != 99 {
		t.Fatalf("Restore = %v, want *UnknownStageError for stage 99", err)
	}
	err = c.Restore(&CutSnapshot{
		Vertices:    map[StageID]map[int][]byte{},
		InputEpochs: map[StageID]int64{42: 7},
	})
	if !errors.As(err, &use) || use.Stage != 42 {
		t.Fatalf("Restore = %v, want *UnknownStageError for stage 42", err)
	}
}

// TestRestoreStaleEpochSkipsAdvance pins the documented Restore contract:
// input epochs only move forward, so a snapshot whose InputEpochs entry is
// ≤ the input's current epoch leaves the input where it is.
func TestRestoreStaleEpochSkipsAdvance(t *testing.T) {
	c, in, s, probe := buildCounter(t)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2))
	in.OnNext(int64(10))
	in.OnNext(int64(100))
	probe.WaitFor(2)
	if in.Epoch() != 3 {
		t.Fatalf("input epoch = %d, want 3", in.Epoch())
	}
	// A stale snapshot position (epoch 1 < current 3) must not rewind.
	err := c.Restore(&CutSnapshot{
		Vertices:    map[StageID]map[int][]byte{},
		InputEpochs: map[StageID]int64{in.Stage(): 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Epoch() != 3 {
		t.Fatalf("stale restore moved the input to epoch %d", in.Epoch())
	}
	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if got := s.sorted(2); len(got) != 1 || got[0] != 113 {
		t.Fatalf("epoch 2 output = %v, want [113]", got)
	}
}

// TestSnapshotFramingRejectsCorruption: the versioned, checksummed NSNP
// header must reject truncation, foreign bytes, version skew, and bit rot —
// and accept its own output.
func TestSnapshotFramingRejectsCorruption(t *testing.T) {
	data := EncodeCut(mixedCut())
	if _, err := UnmarshalCut(data); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:snapshotHeaderSize-1],
		"bad magic": append([]byte{0, 0, 0, 0}, data[4:]...),
	}
	headless := append([]byte(nil), data...)
	headless[4] = 99 // future version
	cases["version skew"] = headless
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x40 // bit rot in the body
	cases["bit rot"] = flipped
	for name, bad := range cases {
		if _, err := UnmarshalCut(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestHeartbeatSuspicionAbortsComputation wires Config.Heartbeat through a
// chaos transport hidden behind an opaque wrapper (so the runtime's
// *transport.Chaos crash callback cannot fire and only the heartbeat
// detector can notice): crashing a process must abort the computation with
// a heartbeat suspicion from Join instead of hanging.
func TestHeartbeatSuspicionAbortsComputation(t *testing.T) {
	ct := transport.NewChaos(transport.NewMem(3), transport.ChaosConfig{Seed: testutil.Seed(t)})
	cfg := Config{Processes: 3, WorkersPerProcess: 1, Accumulation: AccLocalGlobal,
		Transport: opaque{ct}, Heartbeat: 2 * time.Millisecond, HeartbeatTimeout: 30 * time.Millisecond}
	rm := &RecoveryMetrics{}
	c, in, _, _ := buildCounterCfg(t, cfg)
	c.SetRecoveryMetrics(rm)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2))
	ct.Crash(2)
	in.Close() // dropped by closed mailboxes after the abort; must not panic

	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "heartbeat") {
			t.Fatalf("Join = %v, want a heartbeat suspicion", err)
		}
		if !c.Failed() || c.Err() == nil {
			t.Fatal("Failed()/Err() do not reflect the abort")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Join hung; heartbeat detector never fired")
	}
	if rm.HeartbeatMisses.Load() == 0 {
		t.Fatal("heartbeat misses not recorded in recovery metrics")
	}
	if got := c.Metrics().Recovery.HeartbeatMisses; got == 0 {
		t.Fatal("metrics snapshot missing heartbeat misses")
	}
}

// opaque hides a transport's concrete type from the runtime's type
// asserts, so tests can isolate one failure-detection path.
type opaque struct{ transport.Transport }

// TestRecoveryMetricsSurface: counters attached via SetRecoveryMetrics
// must flow into MetricsSnapshot and its rendered table.
func TestRecoveryMetricsSurface(t *testing.T) {
	rm := &RecoveryMetrics{}
	rm.Checkpoints.Store(3)
	rm.CheckpointBytes.Store(4096)
	rm.Restarts.Store(2)
	rm.LastRecoveryNanos.Store(int64(250 * time.Millisecond))
	rm.HeartbeatMisses.Store(9)
	c, in, _, _ := buildCounter(t)
	c.SetRecoveryMetrics(rm)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	feedCounter(in)
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	got := c.Metrics().Recovery
	want := RecoverySnapshot{Checkpoints: 3, CheckpointBytes: 4096, Restarts: 2,
		LastRecovery: 250 * time.Millisecond, HeartbeatMisses: 9}
	if got != want {
		t.Fatalf("recovery snapshot = %+v, want %+v", got, want)
	}
	if s := c.Metrics().String(); !strings.Contains(s, "recovery: 3 checkpoints") {
		t.Fatalf("metrics table missing recovery line:\n%s", s)
	}
}
