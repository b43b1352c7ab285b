package supervise_test

// The exactly-once sink battery: the same epoch schedule is driven through
// a fault-free run (the oracle) and through chaos schedules — selective
// single-worker rollback, full process-crash restart, and marker-level
// control-frame faults — and the committed sink output must come out
// byte-identical in every case. The MemSink store itself is a differential
// detector: any replay that re-seals an epoch with different bytes is
// recorded as a conflict, so nondeterminism in the seal path cannot hide
// behind deduplication.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/progress"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
	"naiad/internal/testutil"
	"naiad/internal/transport"
)

// sinkChaosEpochs is the shared schedule: epoch e carries three distinct
// records, so every epoch's canonical batch is non-trivial and unique.
const sinkChaosEpochs = 8

func sinkEpochRecords(e int) []runtime.Message {
	return []runtime.Message{int64(e*10 + 1), int64(e*10 + 2), int64(e*10 + 3)}
}

// sinkFactory builds input → Exchange → exactly-once Sink through the
// typed operator library. The MemSink store outlives incarnations, exactly
// like a real external system.
func sinkFactory(store *lib.MemSink, tune func(inc int64, cfg *runtime.Config)) (supervise.Factory, *atomic.Int64) {
	var incarnations atomic.Int64
	return func() (*supervise.Build, error) {
		inc := incarnations.Add(1) - 1
		cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2,
			Accumulation: runtime.AccLocalGlobal, Watchdog: 5 * time.Second}
		if tune != nil {
			tune(inc, &cfg)
		}
		s, err := lib.NewScope(cfg)
		if err != nil {
			return nil, err
		}
		in, src := lib.NewInput[int64](s, "in", codec.Int64())
		shuffled := lib.Exchange(src, func(v int64) uint64 { return uint64(v) })
		st := lib.Sink(shuffled, store)
		return &supervise.Build{
			Comp:   s.C,
			Inputs: map[string]*runtime.Input{"in": in.Raw()},
			Probe:  s.C.NewProbe(st),
		}, nil
	}, &incarnations
}

// sinkSchedule is one chaos plan for the shared epoch schedule.
type sinkSchedule struct {
	selective     bool
	workerCrashAt map[int]int // epoch → worker to crash after feeding it
	procCrashAt   int         // epoch after which process 1 crashes; -1 = never
	fault         transport.Fault
	waitCpBefore  int // crash only after this many checkpoints exist
}

// runSinkSchedule drives the shared schedule under one chaos plan and
// returns the store the sink committed into.
func runSinkSchedule(t *testing.T, seed int64, sch sinkSchedule) (*lib.MemSink, *supervise.Supervisor) {
	t.Helper()
	store := lib.NewMemSink(0)
	cuts := supervise.NewMemStore(4)
	target := &simTarget{}
	fact, _ := sinkFactory(store, func(inc int64, cfg *runtime.Config) {
		ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
			Seed: seed + inc, Default: sch.fault,
		})
		cfg.Transport = ct
		cfg.SafetyChecks = true
		target.setChaos(ct)
	})
	wrapped := supervise.Factory(func() (*supervise.Build, error) {
		b, err := fact()
		if err == nil {
			target.setComp(b.Comp)
		}
		return b, err
	})
	sup, err := supervise.New(supervise.Config{
		Factory: wrapped, Store: cuts, Seed: seed,
		Selective:        sch.selective,
		CheckpointEvery:  1,
		CutSettleTimeout: 250 * time.Millisecond,
		MaxRestarts:      6,
		Backoff:          time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < sinkChaosEpochs; e++ {
		if err := sup.OnNext("in", sinkEpochRecords(e)...); err != nil {
			t.Fatal(err)
		}
		if sch.waitCpBefore > 0 && (sch.procCrashAt == e || hasCrash(sch, e)) {
			waitForCheckpoints(t, sup, int64(sch.waitCpBefore))
		}
		if e == sch.procCrashAt {
			if _, chaos := target.get(); chaos != nil {
				chaos.Crash(1)
			}
		}
		if w, ok := sch.workerCrashAt[e]; ok {
			if comp, _ := target.get(); comp != nil {
				before := sup.Recovery().SelectiveRevivals
				comp.CrashWorker(w) // best effort across incarnations
				if sch.selective {
					deadline := time.Now().Add(10 * time.Second)
					for sup.Recovery().SelectiveRevivals == before {
						if time.Now().After(deadline) {
							t.Fatalf("selective revival never happened: %+v", sup.Recovery())
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
		}
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sup.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sink chaos run failed terminally: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sink chaos run hung")
	}
	return store, sup
}

func hasCrash(sch sinkSchedule, e int) bool {
	_, ok := sch.workerCrashAt[e]
	return ok
}

// auditSinkStore checks the invariants every schedule must satisfy against
// the fault-free oracle: identical epochs, byte-identical batches, correct
// frontier stamps, and zero conflicting recommits.
func auditSinkStore(t *testing.T, got, oracle *lib.MemSink) {
	t.Helper()
	if c := got.Conflicts(); len(c) != 0 {
		t.Fatalf("sink replays disagreed on bytes for epochs %v — exactly-once violated", c)
	}
	ge, oe := got.Epochs(), oracle.Epochs()
	if fmt.Sprint(ge) != fmt.Sprint(oe) {
		t.Fatalf("committed epochs %v, oracle has %v", ge, oe)
	}
	for _, e := range oe {
		gb, _ := got.Batch(e)
		ob, _ := oracle.Batch(e)
		if !bytes.Equal(gb.Data, ob.Data) {
			t.Fatalf("epoch %d bytes differ from the fault-free oracle:\n got %x\nwant %x", e, gb.Data, ob.Data)
		}
		if gb.Frontier != ob.Frontier || gb.Frontier.Epoch != e+1 {
			t.Fatalf("epoch %d frontier = %v, oracle %v", e, gb.Frontier, ob.Frontier)
		}
		if got.Commits(e) < 1 {
			t.Fatalf("epoch %d has no acknowledged commit", e)
		}
	}
}

// sinkOracle runs the schedule fault-free. Exactly one commit per epoch:
// with no failures there is nothing to replay.
func sinkOracle(t *testing.T, seed int64) *lib.MemSink {
	t.Helper()
	store, _ := runSinkSchedule(t, seed, sinkSchedule{procCrashAt: -1})
	for _, e := range store.Epochs() {
		if n := store.Commits(e); n != 1 {
			t.Fatalf("fault-free run committed epoch %d %d times", e, n)
		}
	}
	if len(store.Epochs()) != sinkChaosEpochs {
		t.Fatalf("oracle committed epochs %v, want %d of them", store.Epochs(), sinkChaosEpochs)
	}
	// The records decode back to exactly the fed multiset.
	for e := 0; e < sinkChaosEpochs; e++ {
		b, _ := store.Batch(int64(e))
		recs := lib.DecodeSinkBatch[int64](codec.Int64(), b)
		want := sinkEpochRecords(e)
		if len(recs) != len(want) {
			t.Fatalf("epoch %d decoded %v, want %v", e, recs, want)
		}
	}
	return store
}

// TestSinkExactlyOnceAcrossSelectiveRollback crashes the worker hosting the
// pinned sink vertex mid-run. Selective revival re-mints the held
// capabilities from the cut fragment, replays the delivery log (re-sealing
// epochs byte-identically), and re-drives unacknowledged commits — the
// store must end byte-identical to the fault-free run with no conflicts.
func TestSinkExactlyOnceAcrossSelectiveRollback(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	oracle := sinkOracle(t, seed)
	store, sup := runSinkSchedule(t, seed+1, sinkSchedule{
		selective:     true,
		procCrashAt:   -1,
		workerCrashAt: map[int]int{2: 0},
		waitCpBefore:  1,
	})
	auditSinkStore(t, store, oracle)
	rec := sup.Recovery()
	if rec.SelectiveRevivals == 0 {
		t.Fatalf("no selective revival happened — the schedule did not exercise rollback: %+v", rec)
	}
	if rec.Restarts != 0 {
		t.Fatalf("selective schedule fell back to a full restart: %+v", rec)
	}
}

// TestSinkExactlyOnceAcrossRestart crashes process 1, forcing a full
// restart from the latest complete cut: sealed-but-unacknowledged batches
// re-commit from the snapshot, replayed epochs re-seal, and the store
// deduplicates — output must still be byte-identical with zero conflicts.
func TestSinkExactlyOnceAcrossRestart(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	oracle := sinkOracle(t, seed)
	store, sup := runSinkSchedule(t, seed+2, sinkSchedule{
		procCrashAt:  4,
		waitCpBefore: 1,
	})
	auditSinkStore(t, store, oracle)
	if rec := sup.Recovery(); rec.Restarts == 0 {
		t.Fatalf("process crash scheduled but no restart recorded: %+v", rec)
	}
}

// TestSinkExactlyOnceUnderMarkerChaos runs the schedule with control-frame
// drop, duplication, and reordering on every link: cuts stall and abort,
// but the committed output must stay exact.
func TestSinkExactlyOnceUnderMarkerChaos(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	oracle := sinkOracle(t, seed)
	store, _ := runSinkSchedule(t, seed+3, sinkSchedule{
		procCrashAt: -1,
		fault: transport.Fault{
			DropControlProb: 0.15, DupControlProb: 0.15, ReorderControlProb: 0.15,
		},
	})
	auditSinkStore(t, store, oracle)
}

// lossyTransport stands in for a TCP link that dies: once armed, it drops
// the next cross-process progress frame and reports the loss through
// SetOnFail, the way TCP reports a dead or corrupt link.
type lossyTransport struct {
	transport.Transport
	armed  atomic.Bool
	onFail func(error)
}

func (l *lossyTransport) SetOnFail(f func(error)) { l.onFail = f }

func (l *lossyTransport) Send(from, to int, kind transport.Kind, payload []byte) {
	if from == to || kind != transport.KindProgress || !l.armed.CompareAndSwap(true, false) {
		l.Transport.Send(from, to, kind, payload)
		return
	}
	l.Stats().CountDrops(kind, 1)
	if l.onFail != nil {
		l.onFail(&transport.LinkError{From: from, To: to, Err: errors.New("frame lost")})
	}
}

// TestSinkExactlyOnceAcrossLostFrame: incarnation 0 loses one progress
// frame mid-run and its transport reports the loss. No watchdog is set, so
// that report is the only way out of the stall: the supervisor must
// restart, and the committed output must be byte-identical to the
// fault-free run.
func TestSinkExactlyOnceAcrossLostFrame(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	oracle := sinkOracle(t, seed)
	store := lib.NewMemSink(0)
	lossy := &lossyTransport{Transport: transport.NewMem(2)}
	fact, incarnations := sinkFactory(store, func(inc int64, cfg *runtime.Config) {
		cfg.Watchdog = 0
		if inc == 0 {
			cfg.Transport = lossy
		}
	})
	sup, err := supervise.New(supervise.Config{
		Factory: fact, Store: supervise.NewMemStore(4), Seed: seed,
		CheckpointEvery: 1,
		Backoff:         time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < sinkChaosEpochs; e++ {
		if e == sinkChaosEpochs/2 {
			waitForCheckpoints(t, sup, 1)
			lossy.armed.Store(true)
		}
		if err := sup.OnNext("in", sinkEpochRecords(e)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sup.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("supervised run did not recover from the lost frame: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervised run hung on a lost frame")
	}
	auditSinkStore(t, store, oracle)
	if rec := sup.Recovery(); rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (%+v)", rec.Restarts, rec)
	}
	if n := incarnations.Load(); n != 2 {
		t.Fatalf("built %d incarnations, want 2", n)
	}
}
