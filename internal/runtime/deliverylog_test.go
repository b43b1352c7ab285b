package runtime

import (
	"fmt"
	"testing"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
)

// TestDeliveryLogKeepsBatchesIntact: the delivery log holds references to
// the batches it logged, not copies. While batches recycle through the
// pool all around it, every logged batch must still hold exactly the
// records delivered with it; and once a cut is retired, the segments
// before it — and their batches — are gone.
func TestDeliveryLogKeepsBatchesIntact(t *testing.T) {
	const workers, epochs, perEpoch = 2, 40, 64
	c, err := NewComputation(Config{Processes: 1, WorkersPerProcess: workers, Accumulation: AccLocalGlobal})
	if err != nil {
		t.Fatal(err)
	}
	c.SetWorkerCrashHandler(func(int) {})
	cutDone := make(chan error, 1)
	c.SetCutHandler(func(_ int64, _ *CutSnapshot, err error) { cutDone <- err })
	in := c.NewInput("in")
	// The map stage copies every batch into a fresh pooled one, so the
	// int64 pool recycles a batch for every one the log stage is handed.
	copied := batchMapStage(c, "copy", func(v int64) int64 { return v })
	l := &feedLog{}
	st := l.stage(c)
	c.Connect(in.Stage(), 0, copied, nil, codec.Int64())
	c.Connect(copied, 0, st, nil, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	feed := func(from, to int64) {
		for e := from; e < to; e++ {
			b, col := batchbuf.PoolFor[int64]().Get(perEpoch)
			for i := int64(0); i < perEpoch; i++ {
				col.Data = append(col.Data, e*perEpoch+i)
			}
			in.SendBatch(b)
			in.Advance()
		}
	}
	feed(0, epochs)
	if err := c.InjectBarrier(1, epochs); err != nil {
		t.Fatal(err)
	}
	if err := <-cutDone; err != nil {
		t.Fatal(err)
	}
	c.RetireCut(1)
	feed(epochs, 2*epochs)
	in.Close()
	join(t, c)

	for _, w := range c.workers {
		var want []feedDelivery
		for _, d := range l.got[w.id] {
			if d.epoch >= epochs {
				want = append(want, d)
			}
		}
		var got []feedDelivery
		for _, seg := range w.dlogs[st].segs {
			if seg.cut < 1 {
				t.Errorf("worker %d: segment of cut %d survived the retirement of cut 1", w.id, seg.cut)
			}
			for _, e := range seg.entries {
				if e.kind != vlogRecv {
					continue
				}
				d := feedDelivery{epoch: e.t.Epoch}
				for i := 0; i < e.batch.Len(); i++ {
					d.recs = append(d.recs, e.batch.Record(i))
				}
				got = append(got, d)
			}
		}
		if len(want) != epochs {
			t.Fatalf("worker %d delivered %d batches at epochs ≥ %d, want %d", w.id, len(want), epochs, epochs)
		}
		if len(got) != len(want) {
			t.Fatalf("worker %d: log holds %d batches, want the %d delivered since the cut", w.id, len(got), len(want))
		}
		for i := range want {
			if got[i].epoch != want[i].epoch || fmt.Sprint(got[i].recs) != fmt.Sprint(want[i].recs) {
				t.Fatalf("worker %d entry %d: log holds epoch %d %v, delivered epoch %d %v",
					w.id, i, got[i].epoch, got[i].recs, want[i].epoch, want[i].recs)
			}
		}
	}
}
