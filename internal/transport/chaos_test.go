package transport

import (
	"errors"
	"testing"
	"time"

	"naiad/internal/testutil"
)

func mkChaos(cfg ChaosConfig) func(n int) Transport {
	return func(n int) Transport { return NewChaos(NewMem(n), cfg) }
}

// A fault-free Chaos must be indistinguishable from its inner transport.
func TestChaosBasics(t *testing.T) { testTransportBasics(t, mkChaos(ChaosConfig{})) }
func TestChaosStats(t *testing.T)  { testTransportStats(t, mkChaos(ChaosConfig{})) }
func TestChaosConcurrent(t *testing.T) {
	testTransportConcurrentSenders(t, mkChaos(ChaosConfig{}))
}

// FIFO must survive latency and jitter: delaying frames is allowed,
// reordering them is not.
func TestChaosFIFOUnderJitter(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	testTransportFIFO(t, mkChaos(ChaosConfig{
		Seed:    testutil.Seed(t),
		Default: Fault{Latency: time.Millisecond, Jitter: 5 * time.Millisecond},
	}))
}

func TestChaosLatency(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{Default: Fault{Latency: 80 * time.Millisecond}})
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	start := time.Now()
	tr.Send(0, 1, KindData, []byte("slow"))
	col.waitFor(t, 1)
	if got := time.Since(start); got < 75*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= 80ms of injected latency", got)
	}
}

func TestChaosThrottle(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	// 1000 bytes per frame (991 payload + 9 overhead) at 10 kB/s: each
	// frame occupies the link for 100ms, so 4 frames need >= 400ms.
	tr := NewChaos(NewMem(2), ChaosConfig{Default: Fault{BytesPerSecond: 10_000}})
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	start := time.Now()
	for i := 0; i < 4; i++ {
		tr.Send(0, 1, KindData, make([]byte, 991))
	}
	col.waitFor(t, 4)
	if got := time.Since(start); got < 350*time.Millisecond {
		t.Fatalf("4 throttled frames arrived after %v, want >= ~400ms", got)
	}
}

func TestChaosPartitionHoldsAndHeals(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(3), ChaosConfig{
		Partition: &Partition{
			Groups:   [][]int{{0}, {1}},
			Duration: 200 * time.Millisecond,
		},
	})
	defer tr.Close()
	cols := make([]*collector, 3)
	for i := range cols {
		cols[i] = newCollector()
		tr.SetHandler(i, cols[i].handler)
	}
	start := time.Now()
	tr.Send(0, 1, KindData, []byte("held")) // crosses the cut: held until heal
	tr.Send(2, 1, KindData, []byte("free")) // proc 2 is in no group: unaffected
	frames := cols[1].waitFor(t, 1)
	if string(frames[0].payload) != "free" {
		t.Fatalf("first frame through was %q, want the ungrouped sender's", frames[0].payload)
	}
	frames = cols[1].waitFor(t, 2)
	if got := time.Since(start); got < 180*time.Millisecond {
		t.Fatalf("partitioned frame arrived after %v, want >= 200ms (the heal time)", got)
	}
	if string(frames[1].payload) != "held" {
		t.Fatalf("healed frame = %q; nothing may be dropped by a partition", frames[1].payload)
	}
}

func TestChaosCrashAfterFrames(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{CrashAfterFrames: map[int]int64{1: 3}})
	defer tr.Close()
	crashed := make(chan int, 4)
	tr.SetOnFail(func(err error) { crashed <- crashedProc(t, err) })
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	for i := 0; i < 6; i++ {
		tr.Send(0, 1, KindData, []byte{byte(i)})
	}
	select {
	case p := <-crashed:
		if p != 1 {
			t.Fatalf("crashed proc = %d, want 1", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetOnFail never fired")
	}
	if tr.Alive(1) || !tr.Alive(0) {
		t.Fatalf("Alive = %v,%v, want true,false", tr.Alive(0), tr.Alive(1))
	}
	// Frames queued at crash time are dropped along with future ones, so
	// the dead process sees at most the two pre-crash frames — possibly
	// fewer if the crash outran their delivery.
	time.Sleep(50 * time.Millisecond)
	col.mu.Lock()
	n := len(col.frames)
	col.mu.Unlock()
	if n >= 3 {
		t.Fatalf("crashed process received %d frames, want < 3 (crash on its 3rd)", n)
	}
	select {
	case <-crashed:
		t.Fatal("SetOnFail fired more than once")
	default:
	}
}

func TestChaosManualCrash(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{})
	defer tr.Close()
	crashed := make(chan int, 1)
	tr.SetOnFail(func(err error) { crashed <- crashedProc(t, err) })
	tr.SetHandler(0, func(int, Kind, []byte) {})
	received := make(chan struct{}, 16)
	tr.SetHandler(1, func(int, Kind, []byte) { received <- struct{}{} })
	tr.Crash(0)
	<-crashed
	tr.Send(0, 1, KindData, []byte("dead"))
	select {
	case <-received:
		t.Fatal("frame delivered from a crashed process")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestChaosDroppedMarkerReported: a lost barrier marker is a reported
// failure, never a silent drop. With every marker lost, SetOnFail fires
// exactly once, with a *LinkError naming the first lost marker's link, and
// no data frame is lost alongside.
func TestChaosDroppedMarkerReported(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{Seed: testutil.Seed(t), Default: Fault{DropControlProb: 1}})
	defer tr.Close()
	failures := make(chan error, 8)
	tr.SetOnFail(func(err error) { failures <- err })
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	for i := 0; i < 8; i++ {
		tr.Send(0, 1, KindControl, []byte{byte(i)})
		tr.Send(0, 1, KindData, []byte{byte(i)})
		tr.Send(1, 0, KindControl, []byte{byte(i)})
	}
	select {
	case err := <-failures:
		var le *LinkError
		if !errors.As(err, &le) || le.From != 0 || le.To != 1 {
			t.Fatalf("failure %v, want a *LinkError for link 0→1", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetOnFail never fired for a lost marker")
	}
	for i, f := range col.waitFor(t, 8) {
		if f.kind != KindData || f.payload[0] != byte(i) {
			t.Fatalf("frame %d = %v %v, want data frame %d: a data frame was lost", i, f.kind, f.payload, i)
		}
	}
	if got := tr.Stats().Drops(KindControl); got != 16 {
		t.Fatalf("control drops = %d, want 16", got)
	}
	select {
	case err := <-failures:
		t.Fatalf("SetOnFail fired twice: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestChaosReorderViolatesFIFO checks the deliberate-violation knob: with
// ReorderProb set, delivery order must differ from send order. This is the
// fault the progress protocol can NOT tolerate; the safety monitor's
// negative test in internal/runtime depends on this knob working.
func TestChaosReorderViolatesFIFO(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{
		Seed:    testutil.Seed(t),
		Default: Fault{Latency: 100 * time.Millisecond, ReorderProb: 1},
	})
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	const n = 20
	for i := 0; i < n; i++ {
		tr.Send(0, 1, KindData, []byte{byte(i)})
	}
	frames := col.waitFor(t, n)
	inOrder := true
	for i, f := range frames {
		if int(f.payload[0]) != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("ReorderProb=1 delivered all frames in FIFO order")
	}
}

// queueOrder sends a burst through a reordering link and returns the
// resulting queue permutation (frames still undelivered thanks to the long
// latency), which is a pure function of the seed.
func queueOrder(t *testing.T, seed int64) []byte {
	t.Helper()
	tr := NewChaos(NewMem(2), ChaosConfig{
		Seed:    seed,
		Default: Fault{Latency: 5 * time.Second, ReorderProb: 0.5},
	})
	defer tr.Close()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, func(int, Kind, []byte) {})
	tr.Send(0, 1, KindData, []byte{0})
	// Let the delivery goroutine pop frame 0 and park on its timer, so the
	// queue the remaining burst sees is identical across runs.
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < 100; i++ {
		tr.Send(0, 1, KindData, []byte{byte(i)})
	}
	l := tr.links[0][1]
	l.mu.Lock()
	order := make([]byte, len(l.queue))
	for i, f := range l.queue {
		order[i] = f.payload[0]
	}
	l.mu.Unlock()
	return order
}

// TestChaosSeedDeterminism: identical seeds give identical fault schedules,
// different seeds give different ones.
func TestChaosSeedDeterminism(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	a := queueOrder(t, 42)
	b := queueOrder(t, 42)
	c := queueOrder(t, 43)
	if string(a) != string(b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if string(a) == string(c) {
		t.Fatal("different seeds produced the identical 99-frame permutation")
	}
}

func TestChaosSendAfterCloseDropped(t *testing.T) {
	tr := NewChaos(NewMem(2), ChaosConfig{})
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, func(int, Kind, []byte) {})
	tr.Close()
	tr.Send(0, 1, KindData, []byte("late")) // must not panic
	tr.Close()                              // idempotent
}

func TestChaosPayloadCopied(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr := NewChaos(NewMem(2), ChaosConfig{Default: Fault{Latency: 30 * time.Millisecond}})
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	buf := []byte("mutate-me")
	tr.Send(0, 1, KindData, buf)
	buf[0] = 'X' // mutate while the frame is still delayed in the queue
	frames := col.waitFor(t, 1)
	if string(frames[0].payload) != "mutate-me" {
		t.Fatalf("payload aliased sender buffer: %q", frames[0].payload)
	}
}

// crashedProc unwraps the process a chaos failure names.
func crashedProc(t *testing.T, err error) int {
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Errorf("failure %v is not a *CrashError", err)
		return -1
	}
	return ce.Proc
}
