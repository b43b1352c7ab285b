package runtime

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// counterVertex sums all values it has ever seen and emits the running
// total at the end of each epoch. It checkpoints its running total.
type counterVertex struct {
	ctx   *Context
	total int64
	dirty map[int64]bool
}

func (v *counterVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	if v.dirty == nil {
		v.dirty = make(map[int64]bool)
	}
	if !v.dirty[t.Epoch] {
		v.dirty[t.Epoch] = true
		v.ctx.NotifyAt(t)
	}
	v.total += msg.(int64)
}

func (v *counterVertex) OnNotify(t ts.Timestamp) {
	delete(v.dirty, t.Epoch)
	v.ctx.SendBy(0, v.total, t)
}

func (v *counterVertex) Checkpoint(enc *codec.Encoder) { enc.PutInt64(v.total) }
func (v *counterVertex) Restore(dec *codec.Decoder)    { v.total = dec.Int64() }

func buildCounter(t *testing.T) (*Computation, *Input, *sink, *Probe) {
	t.Helper()
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	ctr := c.AddStage("counter", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &counterVertex{ctx: ctx}
	}, Pinned(0))
	c.Connect(in.Stage(), 0, ctr, func(Message) uint64 { return 0 }, codec.Int64())
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(ctr, 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	probe := c.NewProbe(snk)
	return c, in, s, probe
}

func TestCheckpointRestore(t *testing.T) {
	// Run epochs 0 and 1, checkpoint, then feed epoch 2 on the original.
	orig, in, s, probe := buildCounter(t)
	if err := orig.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2))
	in.OnNext(int64(10))
	probe.WaitFor(1)
	snap, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(100))
	in.Close()
	if err := orig.Join(); err != nil {
		t.Fatal(err)
	}
	if got := s.sorted(2); fmt.Sprint(got) != "[113]" {
		t.Fatalf("original epoch 2 = %v", got)
	}

	// The snapshot survives serialization.
	snap, err = UnmarshalCut(EncodeCut(snap))
	if err != nil {
		t.Fatal(err)
	}
	if snap.InputEpochs[in.Stage()] != 2 {
		t.Fatalf("snapshot epoch = %d", snap.InputEpochs[in.Stage()])
	}

	// Recover into a fresh computation and continue from epoch 2.
	rec, rin, rs, _ := buildCounter(t)
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rin.Epoch() != 2 {
		t.Fatalf("restored input epoch = %d", rin.Epoch())
	}
	rin.OnNext(int64(100))
	rin.Close()
	if err := rec.Join(); err != nil {
		t.Fatal(err)
	}
	if got := rs.sorted(2); fmt.Sprint(got) != "[113]" {
		t.Fatalf("recovered epoch 2 = %v: recovery lost state", got)
	}
	// Epochs before the checkpoint never re-execute on the recovered run.
	if got := rs.sorted(0); len(got) != 0 {
		t.Fatalf("recovered epoch 0 re-executed: %v", got)
	}
}

func TestCheckpointBeforeStartFails(t *testing.T) {
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("expected error")
	}
	if err := c.Restore(&CutSnapshot{}); err == nil {
		t.Fatal("expected error")
	}
}

// holderVertex holds a capability three epochs past the first record it
// sees and requests a notification five epochs past it, so both outlive that
// record's epoch. The next record drops the capability.
type holderVertex struct {
	ctx  *Context
	held *Capability
}

func (v *holderVertex) OnRecv(_ int, _ Message, t ts.Timestamp) {
	if v.held != nil {
		v.held.Drop()
		return
	}
	v.held = v.ctx.HoldCapability(ts.Root(t.Epoch + 3))
	v.ctx.NotifyAt(ts.Root(t.Epoch + 5))
}

func (v *holderVertex) OnNotify(ts.Timestamp) {}

// drainedCheckpoint feeds epoch 0 through input → holder, waits for it to
// drain, and checkpoints; then it releases the holder and joins. It returns
// the snapshot and the input and holder stage ids.
func drainedCheckpoint(tb testing.TB) (snap *CutSnapshot, in, holder StageID) {
	tb.Helper()
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 2, Accumulation: AccLocalGlobal})
	if err != nil {
		tb.Fatal(err)
	}
	input := c.NewInput("in")
	holder = c.AddStage("holder", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &holderVertex{ctx: ctx}
	}, Pinned(0))
	c.Connect(input.Stage(), 0, holder, func(Message) uint64 { return 0 }, codec.Int64())
	probe := c.NewProbe(holder)
	if err := c.Start(); err != nil {
		tb.Fatal(err)
	}
	input.OnNext(int64(1))
	probe.WaitFor(0)
	if snap, err = c.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	input.OnNext(int64(2)) // drops the held capability, so the graph can drain
	input.Close()
	if err := c.Join(); err != nil {
		tb.Fatal(err)
	}
	return snap, input.Stage(), holder
}

// TestCheckpointRecordsDrainedCut pins what Checkpoint records: a drained
// graph's barrier cut — Cut 0, Epoch the input epoch, nothing in flight —
// with the obligations that outlive the drained epochs in Caps.
func TestCheckpointRecordsDrainedCut(t *testing.T) {
	snap, in, holder := drainedCheckpoint(t)
	if snap.Cut != 0 || snap.Epoch != 1 || snap.InputEpochs[in] != 1 || len(snap.Channels) != 0 {
		t.Fatalf("Cut %d, Epoch %d, InputEpochs %v, %d channel batches; want 0, 1, input at 1, none",
			snap.Cut, snap.Epoch, snap.InputEpochs, len(snap.Channels))
	}
	want := map[StageID]map[int][]HeldCapability{holder: {0: {
		{Seq: 0, HasCap: true, Time: ts.Root(3)},
		{Seq: 1, HasCap: true, Time: ts.Root(5), Notify: true, Guarantee: ts.Root(5)},
	}}}
	if !reflect.DeepEqual(snap.Caps, want) {
		t.Fatalf("Caps = %+v, want %+v", snap.Caps, want)
	}
}

// TestRestoreRefusesBadFragment: a full restore refuses a bad fragment the
// way a selective revival does — with an error naming the stage and vertex,
// and the computation left running — never by panicking the worker.
func TestRestoreRefusesBadFragment(t *testing.T) {
	for _, tc := range []struct{ stage, want string }{
		{"counter", "restoring stage counter vertex 0"},
		{"sink", "state for stage sink vertex 0, which does not checkpoint"},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			c, in, _, _ := buildCounter(t)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			var sid StageID
			for _, si := range c.stages {
				if si.name == tc.stage {
					sid = si.id
				}
			}
			err := c.Restore(&CutSnapshot{Vertices: map[StageID]map[int][]byte{sid: {0: {1, 2, 3}}}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error containing %q", err, tc.want)
			}
			if c.Failed() {
				t.Fatalf("a refused fragment aborted the computation: %v", c.Err())
			}
			in.Close()
			if err := c.Join(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
