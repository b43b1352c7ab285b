package trace

import (
	"testing"
	"time"
)

func attachTestTracer(t *testing.T) *Tracer {
	t.Helper()
	tr := New(Config{RingBits: 10})
	err := tr.Attach(2, []StageMeta{{ID: 0, Name: "input"}, {ID: 2, Name: "count"}})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	return tr
}

func TestTracerEmitHarvest(t *testing.T) {
	tr := attachTestTracer(t)
	tr.Emit(Event{Kind: EvSchedule, Worker: 0, Stage: -1, Loc: -1, Epoch: -1, N: 3})
	tr.Emit(Event{Kind: EvProgressPost, Worker: 1, Stage: -1, Loc: -1, Epoch: -1, N: 5})
	tr.Emit(Event{Kind: EvFrameSend, Worker: -1, Stage: -1, Loc: 1, Epoch: -1, N: 128})
	log := tr.Harvest()
	if len(log) != 3 {
		t.Fatalf("harvested %d events, want 3", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].T < log[i-1].T {
			t.Fatalf("harvest not time-ordered: %d after %d", log[i].T, log[i-1].T)
		}
	}
	// Harvest accumulates: a second harvest returns the same log plus any
	// new events.
	tr.Emit(Event{Kind: EvSchedule, Worker: 0, N: 1})
	if got := tr.Harvest(); len(got) != 4 {
		t.Fatalf("second harvest returned %d events, want 4", len(got))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events on an empty-ish ring", tr.Dropped())
	}
}

func TestTracerAttachIdempotence(t *testing.T) {
	tr := attachTestTracer(t)
	// Same shape: no-op (supervisor incarnations re-attach).
	if err := tr.Attach(2, []StageMeta{{ID: 0, Name: "input"}, {ID: 2, Name: "count"}}); err != nil {
		t.Fatalf("same-shape re-attach: %v", err)
	}
	if err := tr.Attach(3, nil); err == nil {
		t.Fatal("different-shape re-attach must error")
	}
}

func TestTracerCallbackHistograms(t *testing.T) {
	tr := attachTestTracer(t)
	for i := 0; i < 10; i++ {
		tr.Callback(0, 2, int64(i), false, time.Duration(1000*(i+1)))
		tr.Callback(1, 2, int64(i), false, time.Duration(2000*(i+1)))
		tr.Callback(0, 2, int64(i), true, 500)
	}
	recv := tr.StageLatency(2, false)
	if recv.Count() != 20 {
		t.Fatalf("recv count %d, want 20 (merged across workers)", recv.Count())
	}
	if recv.Min() != 1000 || recv.Max() != 20000 {
		t.Fatalf("recv min/max = %d/%d, want 1000/20000", recv.Min(), recv.Max())
	}
	notify := tr.StageLatency(2, true)
	if notify.Count() != 10 || notify.Max() != 500 {
		t.Fatalf("notify count/max = %d/%d, want 10/500", notify.Count(), notify.Max())
	}
	if tr.StageLatency(0, false).Count() != 0 {
		t.Fatal("stage 0 histogram must be untouched")
	}
	log := tr.Harvest()
	var nRecv, nNotify int
	for _, ev := range log {
		switch ev.Kind {
		case EvOnRecv:
			nRecv++
		case EvOnNotify:
			nNotify++
		}
	}
	if nRecv != 20 || nNotify != 10 {
		t.Fatalf("event log has %d/%d recv/notify events, want 20/10", nRecv, nNotify)
	}
}

func TestTracerFrontierLags(t *testing.T) {
	tr := attachTestTracer(t)
	tr.Emit(Event{Kind: EvFrontier, Worker: 0, Stage: -1, Loc: 4, Epoch: 1})
	tr.Emit(Event{Kind: EvFrontier, Worker: 0, Stage: -1, Loc: 7, Epoch: 2})
	lags := tr.FrontierLags()
	if len(lags) != 2 {
		t.Fatalf("got %d lag samples, want 2", len(lags))
	}
	// Loc 4 moved first, so it has aged longer: oldest-first ordering.
	if lags[0].Loc != 4 || lags[1].Loc != 7 {
		t.Fatalf("lag order = %d,%d, want 4,7 (oldest first)", lags[0].Loc, lags[1].Loc)
	}
	if lags[0].Epoch != 1 || lags[0].Age < 0 {
		t.Fatalf("lag sample broken: %+v", lags[0])
	}
	// Aux=1 retires the location from the gauge.
	tr.Emit(Event{Kind: EvFrontier, Worker: 0, Stage: -1, Loc: 4, Epoch: 2, Aux: 1})
	if lags = tr.FrontierLags(); len(lags) != 1 || lags[0].Loc != 7 {
		t.Fatalf("after retirement got %+v, want only loc 7", lags)
	}
}

func TestTracerStageNames(t *testing.T) {
	tr := attachTestTracer(t)
	if got := tr.StageName(2); got != "count" {
		t.Fatalf("StageName(2) = %q", got)
	}
	if got := tr.StageName(99); got != "stage99" {
		t.Fatalf("StageName(99) = %q", got)
	}
	if tr.Workers() != 2 || len(tr.Stages()) != 2 {
		t.Fatalf("shape = %d workers / %d stages", tr.Workers(), len(tr.Stages()))
	}
}

// TestEmitBeforeAttach: events routed before Attach land in the shared ring
// and still harvest.
func TestEmitBeforeAttach(t *testing.T) {
	tr := New(Config{RingBits: 6})
	tr.Emit(Event{Kind: EvCheckpoint, Worker: -1, Aux: 1, N: 4096})
	if log := tr.Harvest(); len(log) != 1 || log[0].Kind != EvCheckpoint {
		t.Fatalf("pre-attach harvest = %+v", log)
	}
}
