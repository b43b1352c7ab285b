package runtime

import (
	"fmt"
	"runtime"
	"testing"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// batchMapVertex is the typed fast-path map stage: whole []int64 columns in,
// one pooled []int64 column out, no per-record boxing anywhere.
type batchMapVertex struct {
	ctx  *Context
	f    func(int64) int64
	pool *batchbuf.Pool[int64]
}

func (v *batchMapVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	v.ctx.SendBy(0, v.f(msg.(int64)), t)
}

func (v *batchMapVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	data, ok := b.Col().Slice().([]int64)
	if !ok {
		for i, n := 0, b.Len(); i < n; i++ {
			v.OnRecv(0, b.Record(i), t)
		}
		return
	}
	out, col := v.pool.Get(len(data))
	for _, rec := range data {
		col.Data = append(col.Data, v.f(rec))
	}
	v.ctx.SendBatchBy(0, out, t)
}

func (v *batchMapVertex) OnNotify(ts.Timestamp) {}

func batchMapStage(c *Computation, name string, f func(int64) int64) StageID {
	return c.AddStage(name, graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &batchMapVertex{ctx: ctx, f: f, pool: batchbuf.PoolFor[int64]()}
	})
}

// batchCountVertex counts records batch-at-a-time, and the deliveries they
// arrived in.
type batchCountVertex struct {
	count, deliveries int64
}

func (v *batchCountVertex) OnRecv(_ int, _ Message, _ ts.Timestamp) { v.count++; v.deliveries++ }

func (v *batchCountVertex) OnRecvBatch(_ int, b *Batch, _ ts.Timestamp) {
	v.count += int64(b.Len())
	v.deliveries++
}

func (v *batchCountVertex) OnNotify(ts.Timestamp) {}

// BenchmarkPipelineRecords measures end-to-end per-record cost through a
// map→sink pipeline on one worker, including the final drain, on the pooled
// typed-batch data plane: records enter as pooled []int64 batches, the map
// stage transforms column-at-a-time into pooled output batches, and the
// sink consumes whole batches. The steady-state record path allocates
// nothing (see TestPipelineSteadyStateAllocs).
func BenchmarkPipelineRecords(b *testing.B) {
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := c.NewInput("in")
	m := batchMapStage(c, "map", func(v int64) int64 { return v + 1 })
	c.Connect(in.Stage(), 0, m, nil, nil)
	cv := &batchCountVertex{}
	snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return cv
	}, Pinned(0))
	c.Connect(m, 0, snk, nil, nil)
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	pool := batchbuf.PoolFor[int64]()
	const epochSize = 4096
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		n := epochSize
		if b.N-sent < n {
			n = b.N - sent
		}
		bt, col := pool.Get(n)
		for i := 0; i < n; i++ {
			col.Data = append(col.Data, int64(i))
		}
		in.SendBatch(bt)
		in.Advance()
		sent += n
	}
	in.Close()
	if err := c.Join(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if cv.count != int64(b.N) {
		b.Fatalf("sink saw %d records, want %d", cv.count, b.N)
	}
}

// splitVertex hands each record of a batch on as its own one-record batch,
// so the next stage runs one callback per record.
type splitVertex struct {
	ctx  *Context
	pool *batchbuf.Pool[int64]
}

func (v *splitVertex) OnRecv(int, Message, ts.Timestamp) { panic("split: boxed delivery") }
func (v *splitVertex) OnNotify(ts.Timestamp)             {}

func (v *splitVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	for _, x := range b.Col().Slice().([]int64) {
		one, col := v.pool.Get(1)
		col.Data = append(col.Data, x)
		v.ctx.SendBatchBy(0, one, t)
	}
}

// oneByOne adds an input and a split stage behind it: the returned stage
// delivers every input record in a callback of its own.
func oneByOne(c *Computation) (*Input, StageID) {
	in := c.NewInput("in")
	split := c.AddStage("split", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &splitVertex{ctx: ctx, pool: batchbuf.PoolFor[int64]()}
	})
	c.Connect(in.Stage(), 0, split, nil, nil)
	return in, split
}

// feedOneByOne drives n records through oneByOne's input in 4096-record
// epochs. The records enter as typed batches, so what is measured is the
// per-record callbacks after split, not the input path.
func feedOneByOne(in *Input, n int) {
	pool := batchbuf.PoolFor[int64]()
	for sent := 0; sent < n; {
		k := min(4096, n-sent)
		bt, col := pool.Get(k)
		for i := 0; i < k; i++ {
			col.Data = append(col.Data, int64(i))
		}
		in.SendBatch(bt)
		in.Advance()
		sent += k
	}
}

// BenchmarkPipelineRecordsBoxed is a boxed pipeline record-at-a-time: each
// record reaches the map stage in its own callback (per-record OnRecv), and
// the map's SendBy leaves as a one-record session, a one-record batch. The
// receiver must see exactly one one-record delivery per record.
func BenchmarkPipelineRecordsBoxed(b *testing.B) {
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal})
	if err != nil {
		b.Fatal(err)
	}
	in, split := oneByOne(c)
	m := mapStage(c, "map", func(v int64) int64 { return v + 1 })
	c.Connect(split, 0, m, nil, nil)
	cv := &batchCountVertex{}
	snk := c.AddStage("sink", graph.RoleNormal, 0, func(*Context) Vertex { return cv }, Pinned(0))
	c.Connect(m, 0, snk, nil, nil)
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	feedOneByOne(in, b.N)
	in.Close()
	if err := c.Join(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if cv.count != int64(b.N) || cv.deliveries != int64(b.N) {
		b.Fatalf("sink saw %d records in %d deliveries, want %d one-record deliveries", cv.count, cv.deliveries, b.N)
	}
}

// fanVertex emits k records per input record through SendBy, all at the
// callback's time: one send session per callback.
type fanVertex struct {
	ctx *Context
	k   int
}

func (v *fanVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	x := msg.(int64)
	for i := 0; i < v.k; i++ {
		v.ctx.SendBy(0, x+int64(i), t)
	}
}

func (v *fanVertex) OnNotify(ts.Timestamp) {}

// BenchmarkSendSession is the send-session cost by session size: each
// record reaches the fan stage in its own callback (as in
// BenchmarkPipelineRecordsBoxed), which emits k ∈ {1, 4, 64} int64 records
// — a typed session, int64 having a registered pool — and a batch receiver
// counts them, one delivery per session. ns/op is per input record; k = 1
// is the one-record session.
func BenchmarkSendSession(b *testing.B) {
	batchbuf.PoolFor[int64]()
	for _, k := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal})
			if err != nil {
				b.Fatal(err)
			}
			in, split := oneByOne(c)
			fan := c.AddStage("fan", graph.RoleNormal, 0, func(ctx *Context) Vertex {
				return &fanVertex{ctx: ctx, k: k}
			})
			c.Connect(split, 0, fan, nil, nil)
			cv := &batchCountVertex{}
			snk := c.AddStage("count", graph.RoleNormal, 0, func(*Context) Vertex { return cv })
			c.Connect(fan, 0, snk, nil, nil)
			if err := c.Start(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			feedOneByOne(in, b.N)
			in.Close()
			if err := c.Join(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if want := int64(b.N * k); cv.count != want || cv.deliveries != int64(b.N) {
				b.Fatalf("counted %d records in %d deliveries, want %d in %d", cv.count, cv.deliveries, want, b.N)
			}
		})
	}
}

// BenchmarkInputSendBoxed is the boxed input path whole: 4096 boxed int64
// per OnNext on two workers, through a per-record map and a hash exchange
// into a batch counter. ns/op is per input record.
func BenchmarkInputSendBoxed(b *testing.B) {
	batchbuf.PoolFor[int64]()
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: 2, Accumulation: AccLocalGlobal})
	if err != nil {
		b.Fatal(err)
	}
	in := c.NewInput("in")
	m := mapStage(c, "map", func(v int64) int64 { return v + 1 })
	c.Connect(in.Stage(), 0, m, nil, nil)
	counts := make([]*batchCountVertex, 2)
	cnt := c.AddStage("count", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		counts[ctx.Worker()] = &batchCountVertex{}
		return counts[ctx.Worker()]
	})
	c.Connect(m, 0, cnt, hashPart, nil)
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	recs := make([]Message, 4096)
	for i := range recs {
		recs[i] = int64(i)
	}
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += len(recs) {
		in.OnNext(recs[:min(len(recs), b.N-sent)]...)
	}
	in.Close()
	if err := c.Join(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := counts[0].count + counts[1].count; got != int64(b.N) {
		b.Fatalf("counted %d records, want %d", got, b.N)
	}
}

// TestPipelineSteadyStateAllocs is the zero-alloc gate on the typed batch
// path: after warm-up, pushing many records through the map→sink pipeline
// must allocate (approaching) nothing per record. testing.AllocsPerRun only
// observes the calling goroutine, and the record path runs on a worker
// goroutine — so the gate measures the process-wide Mallocs delta instead
// and bounds it per record. Per-epoch control traffic (mailbox items,
// progress updates) amortizes across the 4096-record epochs.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	t.Run("exchange", exchangeSteadyStateAllocs)
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	m := batchMapStage(c, "map", func(v int64) int64 { return v + 1 })
	c.Connect(in.Stage(), 0, m, nil, nil)
	cv := &batchCountVertex{}
	snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return cv
	}, Pinned(0))
	c.Connect(m, 0, snk, nil, nil)
	probe := c.NewProbe(snk)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	pool := batchbuf.PoolFor[int64]()
	const epochSize = 4096
	send := func(epochs int) {
		for e := 0; e < epochs; e++ {
			bt, col := pool.Get(epochSize)
			for i := 0; i < epochSize; i++ {
				col.Data = append(col.Data, int64(i))
			}
			in.SendBatch(bt)
			in.Advance()
		}
	}
	send(8) // warm-up: pools fill, scratch buffers grow
	probe.WaitFor(in.Epoch() - 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const epochs = 64
	send(epochs)
	probe.WaitFor(in.Epoch() - 1)
	runtime.ReadMemStats(&after)

	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if want := int64((8 + epochs) * epochSize); cv.count != want {
		t.Fatalf("sink saw %d records, want %d", cv.count, want)
	}
	records := int64(epochs * epochSize)
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("steady state: %d mallocs over %d records (%.4f/record)",
		after.Mallocs-before.Mallocs, records, perRecord)
	if perRecord > 0.1 {
		t.Fatalf("typed pipeline allocates %.4f objects/record in steady state, want < 0.1", perRecord)
	}
}

// exchRec is a flat record (codec.Gob compiles a plan for it), the shape of
// lib.Pair[int64, int64].
type exchRec struct{ Key, Val int64 }

// exchKeyVertex turns an []int64 column into a pooled []exchRec column.
type exchKeyVertex struct {
	ctx  *Context
	pool *batchbuf.Pool[exchRec]
}

func (v *exchKeyVertex) OnRecv(int, Message, ts.Timestamp) {
	panic("boxed delivery on the typed plane")
}
func (v *exchKeyVertex) OnNotify(ts.Timestamp) {}

func (v *exchKeyVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	data := b.Col().Slice().([]int64)
	out, col := v.pool.Get(len(data))
	for _, k := range data {
		col.Data = append(col.Data, exchRec{Key: k, Val: 1})
	}
	v.ctx.SendBatchBy(0, out, t)
}

// exchangeSteadyStateAllocs is the same gate on the keyed-exchange path
// with full serialisation: two processes on the in-memory transport, a
// hash-partitioned connector with the default codec, so every batch is
// scattered and half of every batch is encoded, framed, decoded into a
// pooled column and delivered. Bytes, not objects: the bound is what the
// end-to-end benchmark reports as batchbuf.alloc_b_per_rec (14.5 B with
// gob on this path; the flat plan and the pooled decode leave well under 4).
func exchangeSteadyStateAllocs(t *testing.T) {
	c, err := NewComputation(Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	key := c.AddStage("key", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &exchKeyVertex{ctx: ctx, pool: batchbuf.PoolFor[exchRec]()}
	})
	c.Connect(in.Stage(), 0, key, nil, codec.Int64()) // local edge: the codec is never used
	counts := make([]*batchCountVertex, 2)
	snk := c.AddStage("count", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		counts[ctx.Worker()] = &batchCountVertex{}
		return counts[ctx.Worker()]
	})
	part, bpart := TypedPartitioner(func(r exchRec) uint64 { return uint64(r.Key) * 0x9e3779b97f4a7c15 >> 32 })
	c.ConnectBatch(key, 0, snk, part, bpart, codec.Gob[exchRec]())
	probe := c.NewProbe(snk)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	pool := batchbuf.PoolFor[int64]()
	const epochSize = 8192
	send := func(epochs int) {
		for e := 0; e < epochs; e++ {
			bt, col := pool.Get(epochSize)
			for i := 0; i < epochSize; i++ {
				col.Data = append(col.Data, int64(i%256))
			}
			in.SendBatch(bt)
			in.Advance()
			if done := in.Epoch() - 5; done >= 0 {
				probe.WaitFor(done) // a bounded window, as a real driver keeps
			}
		}
		probe.WaitFor(in.Epoch() - 1)
	}
	send(16) // warm-up: pools fill, scratch and frame buffers grow

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const epochs = 128
	send(epochs)
	runtime.ReadMemStats(&after)

	in.Close()
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if got, want := counts[0].count+counts[1].count, int64((16+epochs)*epochSize); got != want {
		t.Fatalf("counted %d records, want %d", got, want)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(epochs*epochSize)
	t.Logf("steady state: %.2f B allocated per record over %d records", perRecord, epochs*epochSize)
	if perRecord > 4 && !raceEnabled {
		t.Fatalf("keyed exchange allocates %.2f B/record in steady state, want <= 4", perRecord)
	}
}

// BenchmarkEpochNotifications measures per-epoch cost when every epoch
// carries one record and one completeness notification — the notification
// delivery path the deliverable-candidate queue optimizes (no per-delivery
// rescan of all pending requests).
func BenchmarkEpochNotifications(b *testing.B) {
	cfg := Config{Processes: 1, WorkersPerProcess: 1, Accumulation: AccLocalGlobal}
	c, err := NewComputation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := c.NewInput("in")
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(in.Stage(), 0, snk, nil, nil)
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.OnNext(int64(i))
	}
	in.Close()
	if err := c.Join(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if len(s.notified) != b.N {
		b.Fatalf("delivered %d notifications, want %d", len(s.notified), b.N)
	}
}
