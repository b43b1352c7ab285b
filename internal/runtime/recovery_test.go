package runtime

import (
	"errors"
	"strings"
	"sync"
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

// lossyTransport stands in for a TCP link that dies: it drops the first
// cross-process frame of one kind and reports the loss through SetOnFail,
// the way TCP reports a dead or corrupt link.
type lossyTransport struct {
	transport.Transport
	kind   transport.Kind
	once   sync.Once
	onFail func(error)
}

func (l *lossyTransport) SetOnFail(f func(error)) { l.onFail = f }

func (l *lossyTransport) Send(from, to int, kind transport.Kind, payload []byte) {
	lost := false
	if from != to && kind == l.kind {
		l.once.Do(func() { lost = true })
	}
	if !lost {
		l.Transport.Send(from, to, kind, payload)
		return
	}
	l.Stats().CountDrops(kind, 1)
	if l.onFail != nil {
		l.onFail(&transport.LinkError{From: from, To: to, Err: errors.New("frame lost")})
	}
}

// TestLostFrameAbortsComputation: a frame the transport accepted but lost
// must abort the computation with the transport's error from Join, not
// leave the survivors waiting for progress that will never arrive.
func TestLostFrameAbortsComputation(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := &lossyTransport{Transport: transport.NewMem(2), kind: transport.KindProgress}
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal, Transport: tr}
	c, in, _, _ := buildCounterCfg(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2))
	in.Close() // dropped by closed mailboxes after the abort; must not panic

	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		var le *transport.LinkError
		if !errors.As(err, &le) {
			t.Fatalf("Join = %v, want the transport's *LinkError", err)
		}
		if !c.Failed() || c.Err() != err {
			t.Fatal("Failed()/Err() do not reflect the abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Join hung on a lost frame")
	}
	if got := c.Metrics().DroppedFrames; got != 1 {
		t.Fatalf("DroppedFrames = %d, want 1", got)
	}
}

// TestRecoveryMetricsSurface: counters attached via SetRecoveryMetrics
// must flow into MetricsSnapshot and its rendered table.
func TestRecoveryMetricsSurface(t *testing.T) {
	rm := &RecoveryMetrics{}
	rm.Checkpoints.Store(3)
	rm.CheckpointBytes.Store(4096)
	rm.Restarts.Store(2)
	rm.LastRecoveryNanos.Store(int64(250 * time.Millisecond))
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
		LastRecovery: 250 * time.Millisecond}
	if got != want {
		t.Fatalf("recovery snapshot = %+v, want %+v", got, want)
	}
	if s := c.Metrics().String(); !strings.Contains(s, "recovery: 3 checkpoints") {
		t.Fatalf("metrics table missing recovery line:\n%s", s)
	}
}
