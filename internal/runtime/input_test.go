package runtime

import (
	"fmt"
	"sync"
	"testing"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// feedDelivery is one callback an input's consumer ran: its epoch, the
// records, whether it came through OnRecvBatch, and whether the batch's
// column was a typed []int64.
type feedDelivery struct {
	epoch int64
	recs  []any
	batch bool
	typed bool
}

// feedLog is a batch-aware consumer that records every delivery per worker.
type feedLog struct {
	mu  sync.Mutex
	got map[int][]feedDelivery
}

func (l *feedLog) stage(c *Computation) StageID {
	l.got = make(map[int][]feedDelivery)
	return c.AddStage("log", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &feedLogVertex{l: l, worker: ctx.Worker()}
	})
}

func (l *feedLog) add(worker int, d feedDelivery) {
	l.mu.Lock()
	l.got[worker] = append(l.got[worker], d)
	l.mu.Unlock()
}

// records returns worker w's records in delivery order.
func (l *feedLog) records(w int) []any {
	var out []any
	for _, d := range l.got[w] {
		out = append(out, d.recs...)
	}
	return out
}

type feedLogVertex struct {
	l      *feedLog
	worker int
}

func (v *feedLogVertex) OnRecv(_ int, m Message, t ts.Timestamp) {
	v.l.add(v.worker, feedDelivery{epoch: t.Epoch, recs: []any{m}})
}

func (v *feedLogVertex) OnRecvBatch(_ int, b *Batch, t ts.Timestamp) {
	d := feedDelivery{epoch: t.Epoch, batch: true}
	_, d.typed = batchbuf.Data[int64](b)
	for i := 0; i < b.Len(); i++ {
		d.recs = append(d.recs, b.Record(i))
	}
	v.l.add(v.worker, d)
}

func (v *feedLogVertex) OnNotify(ts.Timestamp) {}

func newFeedComputation(t *testing.T, workers int) (*Computation, *Input, *feedLog) {
	t.Helper()
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: workers, Accumulation: AccLocalGlobal})
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	l := &feedLog{}
	c.Connect(in.Stage(), 0, l.stage(c), nil, nil)
	return c, in, l
}

func boxedInt64s(from, n int) []Message {
	out := make([]Message, n)
	for i := range out {
		out[i] = int64(from + i)
	}
	return out
}

// TestInputSendIsOneBatchPerWorker: a boxed Send of n records reaches each
// worker's consumer as exactly one OnRecvBatch, typed (int64 has a pool),
// holding the same records in the same order as a typed SendBatch of the
// same values does.
func TestInputSendIsOneBatchPerWorker(t *testing.T) {
	batchbuf.PoolFor[int64]()
	const n = 600 // a multiple of every worker count: both epochs start at rr ≡ 0
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			c, in, l := newFeedComputation(t, workers)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			in.OnNext(boxedInt64s(0, n)...)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i)
			}
			in.SendBatch(int64Batch(vals...))
			in.Close()
			join(t, c)
			for w := 0; w < workers; w++ {
				ds := l.got[w]
				if len(ds) != 2 {
					t.Fatalf("worker %d: %d deliveries, want one per epoch", w, len(ds))
				}
				for _, d := range ds {
					if !d.batch || !d.typed || len(d.recs) != n/workers {
						t.Fatalf("worker %d epoch %d: batch=%v typed=%v with %d records, want one typed batch of %d",
							w, d.epoch, d.batch, d.typed, len(d.recs), n/workers)
					}
				}
				if fmt.Sprint(ds[0].recs) != fmt.Sprint(ds[1].recs) {
					t.Fatalf("worker %d: Send delivered %v, SendBatch %v", w, ds[0].recs, ds[1].recs)
				}
			}
		})
	}
}

// TestInputPlacementIsRoundRobin: interleaved Send, SendBatch and
// SendToWorker calls place record i of a scattered call on worker
// (rr+i) mod W, the cursor continuing across Send and SendBatch, and a
// directed call on its worker, each worker seeing its records in call order.
func TestInputPlacementIsRoundRobin(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			c, in, l := newFeedComputation(t, workers)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			want := make([][]any, workers)
			rr, next := 0, 0
			scattered := func(n int) []int64 {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(next)
					want[rr%workers] = append(want[rr%workers], int64(next))
					rr, next = rr+1, next+1
				}
				return vals
			}
			directed := func(w, n int) []Message {
				recs := boxedInt64s(next, n)
				want[w] = append(want[w], recs...)
				next += n
				return recs
			}
			send := func(n int) {
				vals := scattered(n)
				recs := make([]Message, n)
				for i, v := range vals {
					recs[i] = v
				}
				in.Send(recs...)
			}
			send(5)
			in.SendBatch(int64Batch(scattered(4)...))
			in.SendToWorker(workers-1, directed(workers-1, 3))
			send(1)
			send(0)
			in.SendToWorker(0, directed(0, 2))
			in.SendBatch(int64Batch(scattered(7)...))
			send(2)
			in.Close()
			join(t, c)
			for w := 0; w < workers; w++ {
				if got := l.records(w); fmt.Sprint(got) != fmt.Sprint(want[w]) {
					t.Errorf("worker %d received %v, want %v", w, got, want[w])
				}
			}
		})
	}
}

// TestInputSendWidensOnForeignRecord: a Send whose records do not share the
// first one's pooled type widens to a boxed batch and delivers them all, in
// order.
func TestInputSendWidensOnForeignRecord(t *testing.T) {
	batchbuf.PoolFor[int64]()
	c, in, l := newFeedComputation(t, 1)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.Send(int64(1), "x", int64(2))
	in.Close()
	join(t, c)
	ds := l.got[0]
	if len(ds) != 1 || !ds[0].batch || ds[0].typed {
		t.Fatalf("deliveries %+v, want one boxed batch", ds)
	}
	if got := fmt.Sprint(ds[0].recs); got != "[1 x 2]" {
		t.Fatalf("received %s, want [1 x 2]", got)
	}
}

// TestInputFeedLogsOneEntryPerBatch: under selective rollback, one OnNext of
// 4096 records costs the first stage's delivery log one entry per batch it
// was handed — one per worker — instead of one encoded frame per record.
func TestInputFeedLogsOneEntryPerBatch(t *testing.T) {
	const workers, n = 2, 4096
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: workers, Accumulation: AccLocalGlobal})
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkerCrashHandler(func(int) {})
	in := c.NewInput("in")
	l := &feedLog{}
	st := l.stage(c)
	c.Connect(in.Stage(), 0, st, nil, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(boxedInt64s(0, n)...)
	in.Close()
	join(t, c)
	var entries, recs int
	for _, w := range c.workers {
		for _, seg := range w.dlogs[st].segs {
			for _, e := range seg.entries {
				if e.kind == vlogRecv {
					entries++
				}
			}
		}
		recs += len(l.records(w.id))
		if got := len(l.got[w.id]); got != 1 || len(l.records(w.id)) != n/workers {
			t.Errorf("worker %d delivered %d records in %d batches, want %d in 1", w.id, len(l.records(w.id)), got, n/workers)
		}
	}
	if entries != workers || recs != n {
		t.Fatalf("%d records left %d vlogRecv entries, want %d (one per delivered batch)", recs, entries, workers)
	}
}
