package runtime

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// progressLog is an in-memory transport that records, in order, every
// progress update process 0 broadcasts to process 1. Under AccNone each
// update is its own frame, so with one worker on process 0 the log is that
// worker's exact post chronology.
type progressLog struct {
	transport.Transport
	mu sync.Mutex
	us []update
}

func newProgressLog() *progressLog { return &progressLog{Transport: transport.NewMem(2)} }

func (p *progressLog) Send(from, to int, kind transport.Kind, payload []byte) {
	if kind == transport.KindProgress && from == 0 && to == 1 {
		_, us := decodeProgress(payload)
		p.mu.Lock()
		p.us = append(p.us, us...)
		p.mu.Unlock()
	}
	p.Transport.Send(from, to, kind, payload)
}

// at returns the deltas logged for pointstamp p, in post order, and the
// positions they were logged at.
func (p *progressLog) at(ps progress.Pointstamp) (deltas []int64, pos []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, u := range p.us {
		if u.P == ps {
			deltas = append(deltas, u.D)
			pos = append(pos, i)
		}
	}
	return deltas, pos
}

// lastConn returns the id of the connector Connect just added.
func lastConn(c *Computation) graph.ConnectorID { return c.conns[len(c.conns)-1].id }

// recorder collects what a stage receives, in delivery order, and how many
// batches it arrived in.
type recorder struct {
	mu      sync.Mutex
	recs    []int64
	batches []int
}

func (r *recorder) OnRecv(_ int, m Message, _ ts.Timestamp) {
	r.mu.Lock()
	r.recs = append(r.recs, m.(int64))
	r.batches = append(r.batches, 1)
	r.mu.Unlock()
}

func (r *recorder) OnRecvBatch(_ int, b *Batch, _ ts.Timestamp) {
	r.mu.Lock()
	for i := 0; i < b.Len(); i++ {
		r.recs = append(r.recs, b.Record(i).(int64))
	}
	r.batches = append(r.batches, b.Len())
	r.mu.Unlock()
}

func (r *recorder) OnNotify(ts.Timestamp) {}

func (r *recorder) got() ([]int64, []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.recs), slices.Clone(r.batches)
}

func int64Batch(vs ...int64) *Batch {
	b, col := batchbuf.PoolFor[int64]().Get(len(vs))
	col.Data = append(col.Data, vs...)
	return b
}

func join(t *testing.T, c *Computation) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("computation did not drain")
	}
}

// TestFanOutBuilderDoesNotMutateSharedBatch: a batch sent on a port with two
// remote connectors is adopted by both connectors' outgoing builders. A
// second send at the same time must not append into that shared batch —
// each connector would then ship the other's records too, and the safety
// monitor sees more retirements than posts.
func TestFanOutBuilderDoesNotMutateSharedBatch(t *testing.T) {
	progress.AuditCaps(t)
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal,
		SafetyChecks: true, Watchdog: 20 * time.Second}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	src := c.AddStage("src", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
			ctx.SendBatchBy(0, int64Batch(1, 2, 3), t)
			ctx.SendBatchBy(0, int64Batch(4, 5), t)
		}}
	}, Pinned(1))
	c.Connect(in.Stage(), 0, src, nil, codec.Int64())
	recs := []*recorder{{}, {}}
	for i, r := range recs {
		st := c.AddStage(fmt.Sprintf("dst%d", i), graph.RoleNormal, 0, func(*Context) Vertex { return r }, Pinned(0))
		c.Connect(src, 0, st, nil, codec.Int64())
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(0))
	in.Close()
	join(t, c)
	for i, r := range recs {
		got, _ := r.got()
		slices.Sort(got)
		if fmt.Sprint(got) != "[1 2 3 4 5]" {
			t.Errorf("dst%d received %v, want [1 2 3 4 5]", i, got)
		}
	}
}

// TestSessionFlushesBeforeCapabilityRelease: records a callback sends under
// a held capability leave before the capability is downgraded or dropped,
// so the +1 at the connector precedes the -1 that retires the sender's
// authority in the raw post stream (AccNone), and the monitor stays clean.
// Without the flush the session would leave at callback return, after the
// -1. In the foreign case another vertex on the same worker sends and drops
// through the holder's capability while the holder is not running: the
// send is a session of one call that leaves at once.
func TestSessionFlushesBeforeCapabilityRelease(t *testing.T) {
	for _, release := range []string{"drop", "downgrade", "foreign"} {
		t.Run(release, func(t *testing.T) {
			progress.AuditCaps(t)
			pl := newProgressLog()
			cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccNone,
				SafetyChecks: true, Watchdog: 20 * time.Second, Transport: pl}
			c, err := NewComputation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := c.NewInput("in")
			var hc *Capability
			holder := c.AddStage("holder", graph.RoleNormal, 0, func(ctx *Context) Vertex {
				return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
					if t.Epoch == 0 {
						hc = ctx.HoldCapability(t)
						return
					}
					if release == "foreign" {
						return
					}
					hc.SendBy(0, int64(7), ts.Root(0))
					if release == "downgrade" {
						hc.Downgrade(t)
						hc.SendBy(0, int64(8), t)
					}
					hc.Drop()
				}}
			}, Pinned(0))
			c.Connect(in.Stage(), 0, holder, nil, codec.Int64())
			if release == "foreign" {
				foreign := c.AddStage("foreign", graph.RoleNormal, 0, func(*Context) Vertex {
					return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
						if t.Epoch == 1 {
							hc.SendBy(0, int64(7), ts.Root(0))
							hc.Drop()
						}
					}}
				}, Pinned(0))
				c.Connect(in.Stage(), 0, foreign, nil, codec.Int64())
			}
			rec := &recorder{}
			dst := c.AddStage("dst", graph.RoleNormal, 0, func(ctx *Context) Vertex {
				notified := map[int64]bool{}
				return &funcVertex{onRecv: func(i int, m Message, t ts.Timestamp) {
					if !notified[t.Epoch] {
						notified[t.Epoch] = true
						ctx.NotifyAt(t)
					}
					rec.OnRecv(i, m, t)
				}}
			}, Pinned(1))
			c.Connect(holder, 0, dst, nil, codec.Int64())
			conn := lastConn(c)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			in.OnNext(int64(0))
			in.OnNext(int64(1))
			in.Close()
			join(t, c)

			plus, plusAt := pl.at(progress.Pointstamp{Time: ts.Root(0), Loc: graph.ConnLoc(conn)})
			minus, minusAt := pl.at(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(holder)})
			if len(plus) == 0 || plus[0] != 1 {
				t.Fatalf("connector posts at epoch 0 = %v, want +1 first", plus)
			}
			last := len(minus) - 1
			if last < 0 || minus[last] != -1 {
				t.Fatalf("holder posts at epoch 0 = %v, want a final -1", minus)
			}
			if plusAt[0] > minusAt[last] {
				t.Fatalf("the send's +1 (post %d) follows the capability's -1 (post %d)", plusAt[0], minusAt[last])
			}
			want := "[7]"
			if release == "downgrade" {
				want = "[7 8]"
			}
			if got, _ := rec.got(); fmt.Sprint(got) != want {
				t.Fatalf("dst received %v, want %s", got, want)
			}
		})
	}
}

// depthBody is loopBody recording the deepest goroutine stack any of its
// callbacks ran on.
type depthBody struct {
	loopBody
	pcs []uintptr
	max *int
}

func (v *depthBody) OnRecv(i int, msg Message, t ts.Timestamp) {
	if n := runtime.Callers(0, v.pcs); n > *v.max {
		*v.max = n
	}
	v.loopBody.OnRecv(i, msg, t)
}

// TestReentrancyBoundsDeepCycle: a record circulating thousands of times
// through a one-worker cycle recurses at most MaxReentrancy callbacks deep.
// A session flushed after its callback's re-entrancy count dropped would
// find the body open again on every lap and recurse once per iteration.
func TestReentrancyBoundsDeepCycle(t *testing.T) {
	for _, limit := range []int{1, 16} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal, MaxReentrancy: limit}
			c, err := NewComputation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const laps = 3000
			maxDepth := 0
			in := c.NewInput("in")
			ing := c.AddStage("I", graph.RoleIngress, 0, nil)
			body := c.AddStage("body", graph.RoleNormal, 1, func(ctx *Context) Vertex {
				return &depthBody{loopBody: loopBody{ctx: ctx, limit: laps}, pcs: make([]uintptr, 1<<16), max: &maxDepth}
			}, Ports(2))
			fb := c.AddStage("F", graph.RoleFeedback, 1, nil)
			eg := c.AddStage("E", graph.RoleEgress, 1, nil)
			s := newSink()
			snk := sinkStage(c, s, "sink")
			c.Connect(in.Stage(), 0, ing, nil, nil)
			c.Connect(ing, 0, body, nil, nil)
			c.Connect(body, 0, fb, nil, nil)
			c.Connect(fb, 0, body, nil, nil)
			c.Connect(body, 1, eg, nil, nil)
			c.Connect(eg, 0, snk, nil, nil)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			in.OnNext(int64(0))
			in.Close()
			join(t, c)
			if got := s.sorted(0); fmt.Sprint(got) != fmt.Sprintf("[%d]", laps) {
				t.Fatalf("out = %v", got)
			}
			// A lap of the cycle is a few dozen frames; allow 64 per level.
			if bound := 64 * (limit + 1); maxDepth > bound {
				t.Fatalf("body ran %d frames deep, want <= %d at MaxReentrancy %d", maxDepth, bound, limit)
			}
			t.Logf("deepest body callback: %d frames", maxDepth)
		})
	}
}

// emitter sends k records (its input value plus 0..k-1) at the callback's
// time on port 0, all in one callback.
func emitterStage(c *Computation, k int, opts ...StageOption) StageID {
	return c.AddStage("emit", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, m Message, t ts.Timestamp) {
			for i := 0; i < k; i++ {
				ctx.SendBy(0, m.(int64)+int64(i), t)
			}
		}}
	}, opts...)
}

// TestSessionSplitsAtBatchSize: a callback emitting k records at one time
// hands its receiver ceil(k/BatchSize) batches.
func TestSessionSplitsAtBatchSize(t *testing.T) {
	for size, want := range map[int]string{1: "[1 1 1 1 1 1 1 1 1 1]", 4: "[4 4 2]"} {
		cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal, BatchSize: size}
		c, err := NewComputation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := c.NewInput("in")
		em := emitterStage(c, 10)
		c.Connect(in.Stage(), 0, em, nil, nil)
		rec := &recorder{}
		dst := c.AddStage("dst", graph.RoleNormal, 0, func(*Context) Vertex { return rec })
		c.Connect(em, 0, dst, nil, nil)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		in.OnNext(int64(100))
		in.Close()
		join(t, c)
		got, batches := rec.got()
		if fmt.Sprint(got) != "[100 101 102 103 104 105 106 107 108 109]" || fmt.Sprint(batches) != want {
			t.Fatalf("BatchSize %d: received %v in batches %v, want 100..109 in %s", size, got, batches, want)
		}
	}
}

// TestSessionWidensOnForeignRecord: a session on a port whose records have
// a typed pool widens to boxed when a record of another type joins it, and
// every record still arrives.
func TestSessionWidensOnForeignRecord(t *testing.T) {
	batchbuf.PoolFor[int64]()
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	src := c.AddStage("src", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, m Message, t ts.Timestamp) {
			ctx.SendBy(0, m, t)
			ctx.SendBy(0, m.(int64)+1, t)
			ctx.SendBy(0, fmt.Sprint("x", m), t)
		}}
	})
	c.Connect(in.Stage(), 0, src, nil, nil)
	var got []any
	dst := c.AddStage("dst", graph.RoleNormal, 0, func(*Context) Vertex {
		return &funcVertex{onRecv: func(_ int, m Message, _ ts.Timestamp) { got = append(got, m) }}
	})
	c.Connect(src, 0, dst, nil, nil)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1))
	in.OnNext(int64(5))
	in.Close()
	join(t, c)
	if fmt.Sprint(got) != "[1 2 x1 5 6 x5]" {
		t.Fatalf("received %v, want [1 2 x1 5 6 x5]", got)
	}
}

// TestSessionKeepsPortCallOrder: SendBy and SendBatchBy mixed on one port
// arrive in the order they were called, locally and across processes.
func TestSessionKeepsPortCallOrder(t *testing.T) {
	for name, cfg := range map[string]Config{
		"local":  {Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal},
		"remote": {Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := NewComputation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := c.NewInput("in")
			src := c.AddStage("src", graph.RoleNormal, 0, func(ctx *Context) Vertex {
				return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
					ctx.SendBy(0, int64(1), t)
					ctx.SendBy(0, int64(2), t)
					ctx.SendBatchBy(0, int64Batch(3, 4), t)
					ctx.SendBy(0, int64(5), t)
					ctx.SendBatchBy(0, int64Batch(6), t)
					ctx.SendBy(0, int64(7), t)
					ctx.SendBy(0, int64(8), t)
				}}
			}, Pinned(0))
			c.Connect(in.Stage(), 0, src, nil, codec.Int64())
			rec := &recorder{}
			dst := c.AddStage("dst", graph.RoleNormal, 0, func(*Context) Vertex { return rec }, Pinned(cfg.Workers()-1))
			c.Connect(src, 0, dst, nil, codec.Int64())
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			in.OnNext(int64(0))
			in.Close()
			join(t, c)
			if got, _ := rec.got(); fmt.Sprint(got) != "[1 2 3 4 5 6 7 8]" {
				t.Fatalf("received %v, want [1 2 3 4 5 6 7 8]", got)
			}
		})
	}
}

// TestSessionPostsOnePairPerFlush: k records sent at one time in one
// callback cost the connector exactly one +k and one -k.
func TestSessionPostsOnePairPerFlush(t *testing.T) {
	pl := newProgressLog()
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccNone,
		SafetyChecks: true, Watchdog: 20 * time.Second, Transport: pl}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	const k = 5
	em := emitterStage(c, k, Pinned(0))
	c.Connect(in.Stage(), 0, em, nil, codec.Int64())
	rec := &recorder{}
	dst := c.AddStage("dst", graph.RoleNormal, 0, func(*Context) Vertex { return rec }, Pinned(0))
	c.Connect(em, 0, dst, nil, codec.Int64())
	conn := lastConn(c)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(0))
	in.Close()
	join(t, c)
	deltas, _ := pl.at(progress.Pointstamp{Time: ts.Root(0), Loc: graph.ConnLoc(conn)})
	if fmt.Sprint(deltas) != fmt.Sprintf("[%d %d]", k, -k) {
		t.Fatalf("connector posts = %v, want [%d %d]", deltas, k, -k)
	}
	if got, batches := rec.got(); len(got) != k || fmt.Sprint(batches) != fmt.Sprintf("[%d]", k) {
		t.Fatalf("received %v in batches %v, want %d records in one batch", got, batches, k)
	}
}

// TestSessionReentrantCallbackDuringFlush: flushing a session can deliver
// synchronously back into the same vertex. That inner callback opens its
// own sessions behind the outer callback's pending ones, and its flush
// routes both; nothing is lost, duplicated or left behind.
func TestSessionReentrantCallbackDuringFlush(t *testing.T) {
	progress.AuditCaps(t)
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccNone,
		SafetyChecks: true, Watchdog: 20 * time.Second}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const laps = 50
	maxExec := 0
	in := c.NewInput("in")
	ing := c.AddStage("I", graph.RoleIngress, 0, nil)
	body := c.AddStage("body", graph.RoleNormal, 1, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, m Message, t ts.Timestamp) {
			maxExec = max(maxExec, ctx.executing)
			x := m.(int64)
			// The port-1 session is still pending while the port-0 one is
			// routed.
			if x < laps {
				ctx.SendBy(0, x+1, t)
				ctx.SendBy(0, int64(-1), t)
			}
			ctx.SendBy(1, x, t)
		}}
	}, Ports(2))
	filter := c.AddStage("drop-negative", graph.RoleNormal, 1, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, m Message, t ts.Timestamp) {
			if m.(int64) >= 0 {
				ctx.SendBy(0, m, t)
			}
		}}
	})
	fb := c.AddStage("F", graph.RoleFeedback, 1, nil)
	eg := c.AddStage("E", graph.RoleEgress, 1, nil)
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(in.Stage(), 0, ing, nil, nil)
	c.Connect(ing, 0, body, nil, nil)
	c.Connect(body, 0, filter, nil, nil)
	c.Connect(filter, 0, fb, nil, nil)
	c.Connect(fb, 0, body, nil, nil)
	c.Connect(body, 1, eg, nil, nil)
	c.Connect(eg, 0, snk, nil, nil)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(0))
	in.Close()
	join(t, c)
	want := make([]string, laps+1)
	for i := range want {
		want[i] = fmt.Sprint(i)
	}
	if got := s.sorted(0); fmt.Sprint(got) != "["+strings.Join(want, " ")+"]" {
		t.Fatalf("out = %v, want 0..%d once each", got, laps)
	}
	if maxExec < 2 {
		t.Fatalf("body never re-entered (max depth %d): the test exercised nothing", maxExec)
	}
}

// batchSeen records, per receiving vertex, each batch handed to OnRecvBatch
// and the records in it.
type batchSeen struct {
	mu      sync.Mutex
	batches map[int][]*Batch
	recs    map[int][]string
}

type batchSeenVertex struct {
	ctx  *Context
	seen *batchSeen
}

func (v *batchSeenVertex) OnRecv(int, Message, ts.Timestamp) { panic("batchSeenVertex: OnRecv") }
func (v *batchSeenVertex) OnNotify(ts.Timestamp)             {}

func (v *batchSeenVertex) OnRecvBatch(_ int, b *Batch, _ ts.Timestamp) {
	v.seen.mu.Lock()
	defer v.seen.mu.Unlock()
	i := v.ctx.Index()
	v.seen.batches[i] = append(v.seen.batches[i], b)
	v.seen.recs[i] = append(v.seen.recs[i], fmt.Sprint(b.Col().Slice()))
}

// TestSingleDestinationBatchRoutedIntact: on a partitioned connector, a
// batch whose records all hash to one destination reaches it as the batch
// that was sent, not as a scatter copy, and a one-record SendBy to the
// other worker arrives there exactly once.
func TestSingleDestinationBatchRoutedIntact(t *testing.T) {
	progress.AuditCaps(t)
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal,
		SafetyChecks: true, Watchdog: 20 * time.Second}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	var sent *Batch
	src := c.AddStage("src", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
			// Even records hash to vertex 0, on the sender's worker. The
			// extra reference keeps the batch from being recycled into a
			// copy that would compare equal.
			sent = int64Batch(0, 2, 4)
			ctx.SendBatchBy(0, sent.Retain(), t)
			ctx.SendBy(0, int64(1), t)
		}}
	}, Pinned(0))
	c.Connect(in.Stage(), 0, src, nil, codec.Int64())
	seen := &batchSeen{batches: map[int][]*Batch{}, recs: map[int][]string{}}
	dst := c.AddStage("dst", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &batchSeenVertex{ctx: ctx, seen: seen}
	})
	part, bpart := TypedPartitioner(func(x int64) uint64 { return uint64(x) })
	c.ConnectBatch(src, 0, dst, part, bpart, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(0))
	in.Close()
	join(t, c)
	if got := seen.recs[0]; fmt.Sprint(got) != "[[0 2 4]]" {
		t.Fatalf("vertex 0 received %v, want one batch [0 2 4]", got)
	}
	if seen.batches[0][0] != sent {
		t.Fatalf("vertex 0 received a copy of the single-destination batch, not the batch sent")
	}
	if got := seen.recs[1]; fmt.Sprint(got) != "[[1]]" {
		t.Fatalf("vertex 1 received %v, want the one record [1] once", got)
	}
}
