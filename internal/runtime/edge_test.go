package runtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// TestMultipleInputsEpochSkew drives two inputs whose epochs advance at
// different rates: notifications at a join point must wait for the slower
// input's epoch to complete.
func TestMultipleInputsEpochSkew(t *testing.T) {
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast := c.NewInput("fast")
	slow := c.NewInput("slow")
	s := newSink()
	merge := c.AddStage("merge", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		var pending []int64
		seen := map[int64]bool{}
		return &funcVertex{
			onRecv: func(_ int, m Message, tm ts.Timestamp) {
				if !seen[tm.Epoch] {
					seen[tm.Epoch] = true
					ctx.NotifyAt(tm)
				}
				pending = append(pending, m.(int64))
			},
			onNotify: func(tm ts.Timestamp) {
				var sum int64
				for _, v := range pending {
					sum += v
				}
				pending = pending[:0]
				ctx.SendBy(0, sum, tm)
			},
		}
	}, Pinned(0))
	c.Connect(fast.Stage(), 0, merge, func(Message) uint64 { return 0 }, codec.Int64())
	c.Connect(slow.Stage(), 0, merge, func(Message) uint64 { return 0 }, codec.Int64())
	snk := sinkStage(c, s, "sink")
	c.Connect(merge, 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	probe := c.NewProbe(snk)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Fast advances to epoch 3 immediately; slow lingers at 0.
	fast.Send(int64(1))
	fast.AdvanceTo(3)
	if probe.Done(0) {
		t.Fatal("epoch 0 cannot complete while slow is open at 0")
	}
	slow.Send(int64(10))
	slow.AdvanceTo(3)
	probe.WaitFor(0)
	// Epoch 0 combined both inputs despite the skew.
	if got := s.sorted(0); fmt.Sprint(got) != "[11]" {
		t.Fatalf("epoch 0 = %v", got)
	}
	fast.Close()
	slow.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
}

func TestInputMisusePanics(t *testing.T) {
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal}
	mk := func() (*Computation, *Input) {
		c, err := NewComputation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := c.NewInput("in")
		s := newSink()
		snk := sinkStage(c, s, "sink")
		c.Connect(in.Stage(), 0, snk, nil, nil)
		return c, in
	}
	t.Run("send before start", func(t *testing.T) {
		_, in := mk()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		in.Send(int64(1))
	})
	t.Run("send after close", func(t *testing.T) {
		c, in := mk()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.Close()
		for name, send := range map[string]func(){
			"Send":         func() { in.Send(int64(1)) },
			"empty Send":   func() { in.Send() },
			"SendToWorker": func() { in.SendToWorker(0, []Message{int64(2)}) },
			"OnNext":       func() { in.OnNext(int64(3)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s after Close did not panic", name)
					}
				}()
				send()
			}()
		}
		// Nothing was pushed: a feed the worker took would fail Join, and
		// one it never took would still be in its mailbox.
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
		if !c.workers[0].mailbox.empty() {
			t.Fatal("a send after Close reached the worker's mailbox")
		}
	})
	t.Run("advance backwards", func(t *testing.T) {
		c, in := mk()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.AdvanceTo(5)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
			in.Close()
			_ = c.Join()
		}()
		in.AdvanceTo(4)
	})
	t.Run("double close ok", func(t *testing.T) {
		c, in := mk()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.Close()
		in.Close()
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("advance same epoch ok", func(t *testing.T) {
		c, in := mk()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.AdvanceTo(2)
		in.AdvanceTo(2)
		in.Close()
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestContextAccessors checks vertex identity plumbing.
func TestContextAccessors(t *testing.T) {
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	type identity struct{ idx, peers, worker, workers int }
	var ids []identity
	in := c.NewInput("in")
	st := c.AddStage("ids", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		mu.Lock()
		ids = append(ids, identity{ctx.Index(), ctx.Peers(), ctx.Worker(), ctx.Workers()})
		mu.Unlock()
		return &funcVertex{}
	})
	c.Connect(in.Stage(), 0, st, nil, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("vertices = %d", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id.peers != 4 || id.workers != 4 || id.idx != id.worker {
			t.Fatalf("identity %+v", id)
		}
		seen[id.idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("indices = %v", seen)
	}
}

// TestLargePayloadOverTCP pushes batches past typical socket buffer sizes
// through the loopback TCP transport.
func TestLargePayloadOverTCP(t *testing.T) {
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal, UseTCP: true,
		BatchSize: 100_000}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	s := newSink()
	// Pin the sink on the *other* process so every record crosses TCP.
	snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &sinkVertex{ctx: ctx, s: s}
	}, Pinned(1))
	c.Connect(in.Stage(), 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 60_000 // ~480 KB in one frame
	batch := make([]Message, n)
	var want int64
	for i := range batch {
		batch[i] = int64(i)
		want += int64(i)
	}
	in.SendToWorker(0, batch)
	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, v := range s.sorted(0) {
		got += v
	}
	if got != want || len(s.sorted(0)) != n {
		t.Fatalf("sum = %d (%d records), want %d (%d)", got, len(s.sorted(0)), want, n)
	}
}

// TestNotifyBeforeCallbackTimePanics enforces the §2.2 rule for
// notifications, mirroring the SendBy rule.
func TestNotifyBeforeCallbackTimePanics(t *testing.T) {
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	st := c.AddStage("bad", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, _ Message, tm ts.Timestamp) {
			//lint:naiad-vet:timemono deliberate violation: provokes the runtime's dynamic check
			ctx.NotifyAt(ts.Root(tm.Epoch - 1))
		}}
	})
	c.Connect(in.Stage(), 0, st, nil, nil)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.AdvanceTo(2)
	in.Send(int64(1))
	in.Close()
	err = c.Join()
	if err == nil || !strings.Contains(err.Error(), "notification before callback time") {
		t.Fatalf("Join error = %v", err)
	}
}

// TestEmptyComputationDrains is the degenerate case: inputs that are
// closed without data must still shut the computation down cleanly.
func TestEmptyComputationDrains(t *testing.T) {
	for _, cfg := range []Config{
		{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal},
		{Processes: 2, WorkersPerProcess: 2, Accumulation: AccNone},
	} {
		c, err := NewComputation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := c.NewInput("in")
		s := newSink()
		snk := sinkStage(c, s, "sink")
		c.Connect(in.Stage(), 0, snk, nil, codec.Int64())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeepEpochJump advances an input across a large epoch gap and checks
// progress bookkeeping survives the long +1/-1 chain.
func TestDeepEpochJump(t *testing.T) {
	cfg := Config{Processes: 1, WorkersPerProcess: 2, Accumulation: AccLocalGlobal, CheckInvariants: true}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(in.Stage(), 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.Send(int64(1))
	in.AdvanceTo(5000)
	in.Send(int64(2))
	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if got := s.sorted(0); fmt.Sprint(got) != "[1]" {
		t.Fatalf("epoch 0 = %v", got)
	}
	if got := s.sorted(5000); fmt.Sprint(got) != "[2]" {
		t.Fatalf("epoch 5000 = %v", got)
	}
	// Notification order respected across the jump.
	if fmt.Sprint(s.notified) != "[0 5000]" {
		t.Fatalf("notified = %v", s.notified)
	}
}

// TestLoggedWithoutCodecFailsStart: logging serializes batches, so Logged
// stages must have codecs on their inputs even in one process.
func TestLoggedWithoutCodecFailsStart(t *testing.T) {
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.SetLogSink(logSinkFunc(func(StageID, []byte) error { return nil }))
	in := c.NewInput("in")
	s := newSink()
	snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &sinkVertex{ctx: ctx, s: s}
	}, Pinned(0), Logged())
	c.Connect(in.Stage(), 0, snk, nil, nil) // nil codec
	if err := c.Start(); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("Start error = %v", err)
	}
}

// TestSendToWorkerBounds rejects out-of-range worker indices clearly.
func TestSendToWorkerBounds(t *testing.T) {
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(in.Stage(), 0, snk, nil, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		in.Close()
		_ = c.Join()
	}()
	in.SendToWorker(5, []Message{int64(1)})
}
