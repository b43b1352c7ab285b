package supervise_test

// Tests for the asynchronous-barrier snapshot path: the synchronous-checkpoint
// differential oracle, marker-level chaos (a lost marker must fail the
// incarnation, a duplicate or reorder abort the cut — neither may tear
// it), crash-during-alignment fallback, selective single-worker rollback,
// and a lost marker releasing a deferred close.

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"naiad/internal/codec"
	"naiad/internal/progress"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// feedPow2 feeds epochs 0..n-1 with the single value 1<<e, so the counter
// total at any epoch boundary E is the recognizable prefix sum (1<<E)-1.
func feedPow2(t *testing.T, sup *supervise.Supervisor, n int) {
	t.Helper()
	for e := 0; e < n; e++ {
		if err := sup.OnNext("in", int64(1)<<e); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeCounterTotal digs the counter stage's single int64 out of a
// snapshot's vertex fragments. Exactly one stage checkpoints in the
// counter pipeline, so the fragment map must hold exactly one entry.
func decodeCounterTotal(t *testing.T, vertices map[runtime.StageID]map[int][]byte) int64 {
	t.Helper()
	if len(vertices) != 1 {
		t.Fatalf("snapshot has fragments for %d stages, want 1 (the counter)", len(vertices))
	}
	for _, m := range vertices {
		if len(m) != 1 {
			t.Fatalf("counter stage has %d fragments, want 1", len(m))
		}
		for _, frag := range m {
			return codec.NewDecoder(frag).Int64()
		}
	}
	panic("unreachable")
}

// auditCutStore decodes every retained cut and checks the semantic
// torn-cut invariant: a cut persisted under epoch E must carry exactly the
// counter state of a stop-the-world checkpoint at boundary E — the prefix
// sum (1<<E)-1 under the feedPow2 schedule — and must say so in its own
// Epoch field. CRC and framing are validated by UnmarshalCut itself.
func auditCutStore(t *testing.T, store supervise.SnapshotStore) int {
	t.Helper()
	eps, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eps {
		data, err := store.Load(e)
		if err != nil {
			t.Fatalf("loading cut at epoch %d: %v", e, err)
		}
		cut, err := runtime.UnmarshalCut(data)
		if err != nil {
			t.Fatalf("epoch %d: persisted cut does not decode: %v", e, err)
		}
		if cut.Epoch != e {
			t.Fatalf("cut %d persisted under epoch %d but records boundary %d", cut.Cut, e, cut.Epoch)
		}
		want := int64(1)<<e - 1
		if got := decodeCounterTotal(t, cut.Vertices); got != want {
			t.Fatalf("torn cut: epoch-%d snapshot has counter total %d, want %d", e, got, want)
		}
	}
	return len(eps)
}

// TestDifferentialCheckpointVsBarrierCut is the oracle test: the supervisor's
// asynchronous barrier cuts must persist exactly the boundary, vertex state
// (byte for byte) and input positions a synchronous checkpoint captures at
// the same epoch boundary. The oracle side is driven by the test itself: a
// plain computation fed one epoch at a time, drained on its probe, and
// checkpointed (paper §3.4) at every boundary.
func TestDifferentialCheckpointVsBarrierCut(t *testing.T) {
	const epochs = 6
	mk := func(ctx *runtime.Context) runtime.Vertex { return &counter{ctx: ctx} }

	oracleFact, _ := counterFactory(newEpochSink(), mk, nil)
	ob, err := oracleFact()
	if err != nil {
		t.Fatal(err)
	}
	if err := ob.Comp.Start(); err != nil {
		t.Fatal(err)
	}
	oracle := make(map[int64]*runtime.CutSnapshot)
	for e := int64(1); e <= epochs; e++ {
		ob.Inputs["in"].OnNext(int64(1) << (e - 1))
		ob.Probe.WaitFor(e - 1)
		snap, err := ob.Comp.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		oracle[e] = snap
	}
	ob.Inputs["in"].Close()
	if err := ob.Comp.Join(); err != nil {
		t.Fatal(err)
	}

	store := supervise.NewMemStore(epochs)
	s := newEpochSink()
	fact, _ := counterFactory(s, mk, nil)
	sup, err := supervise.New(supervise.Config{Factory: fact, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedPow2(t, sup, epochs)
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := s.values(epochs - 1); len(got) != 1 || got[0] != int64(1)<<epochs-1 {
		t.Fatalf("final epoch = %v, want [%d]", got, int64(1)<<epochs-1)
	}

	eps, err := store.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	// The pipelined barrier path may legally skip boundaries, but the
	// deferred close forces its last cut at the final one.
	if len(eps) == 0 || eps[len(eps)-1] != epochs {
		t.Fatalf("barrier path snapshotted boundaries %v, want the final boundary %d among them", eps, epochs)
	}
	for _, e := range eps {
		data, err := store.Load(e)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := runtime.UnmarshalCut(data)
		if err != nil {
			t.Fatal(err)
		}
		// Caps and Channels are left out: the supervisor feeds ahead, so its
		// cut may hold post-boundary notification requests and deferred
		// batches that a drained checkpoint never sees.
		snap := oracle[e]
		if cut.Epoch != snap.Epoch {
			t.Fatalf("epoch %d: barrier cut at boundary %d, checkpoint oracle at %d", e, cut.Epoch, snap.Epoch)
		}
		if !reflect.DeepEqual(cut.Vertices, snap.Vertices) {
			t.Fatalf("epoch %d: vertex fragments %v in the cut, %v in the oracle", e, cut.Vertices, snap.Vertices)
		}
		if !reflect.DeepEqual(cut.InputEpochs, snap.InputEpochs) {
			t.Fatalf("epoch %d: input epochs %v in the cut, %v in the oracle", e, cut.InputEpochs, snap.InputEpochs)
		}
	}
}

// barrierChaosRun drives the pow-2 workload through a chaos transport with
// the given control-frame faults on every link, then audits every persisted
// cut for tearing. Duplicates and reorders poison cuts on every incarnation
// and must cost only snapshots. A lost marker is a reported link failure,
// so marker loss is drawn for incarnation 0 only — one that lost markers
// in every incarnation would fail every recovery, like a mesh that dies in
// every incarnation — and must cost the restart it causes. With loss in
// play the feed waits for each epoch's output, so incarnation 0 injects a
// cut at nearly every boundary: over lossyEpochs of them, a run that loses
// no marker at all is vanishingly rare.
func barrierChaosRun(t *testing.T, fault transport.Fault, epochs int) runtime.RecoverySnapshot {
	t.Helper()
	seed := testutil.Seed(t)
	store := supervise.NewMemStore(4)
	s := newEpochSink()
	var comp0 *runtime.Computation
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		f := fault
		if inc > 0 {
			f.DropControlProb = 0
		}
		cfg.Transport = transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
			Seed: seed + inc, Default: f,
		})
		cfg.SafetyChecks = true
	})
	sup, err := supervise.New(supervise.Config{
		Factory: func() (*supervise.Build, error) {
			b, err := fact()
			if err == nil && comp0 == nil {
				comp0 = b.Comp
			}
			return b, err
		},
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossy := fault.DropControlProb > 0
	for e := 0; e < epochs; e++ {
		if err := sup.OnNext("in", int64(1)<<e); err != nil {
			t.Fatal(err)
		}
		if lossy {
			waitEpoch(t, s, int64(e))
		}
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("run under marker chaos failed: %v", err)
	}
	want := int64(1)<<epochs - 1
	if got := s.values(int64(epochs) - 1); len(got) != 1 || got[0] != want {
		t.Fatalf("final epoch = %v, want [%d]: marker chaos corrupted the dataflow", got, want)
	}
	rec := sup.Recovery()
	if lossy {
		var le *transport.LinkError
		if rec.Restarts < 1 || !errors.As(comp0.Err(), &le) {
			t.Fatalf("marker loss: restarts = %d, incarnation 0 failed with %v; want a restart after a *transport.LinkError (%+v)",
				rec.Restarts, comp0.Err(), rec)
		}
	} else if rec.Restarts != 0 || incarnations.Load() != 1 {
		t.Fatalf("marker chaos restarted the computation %d times (%d incarnations); it may only cost snapshots (%+v)",
			rec.Restarts, incarnations.Load(), rec)
	}
	auditCutStore(t, store)
	return rec
}

// waitEpoch waits until the sink has seen epoch e's output.
func waitEpoch(t *testing.T, s *epochSink, e int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.values(e)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never reached the sink", e)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBarrierChaosMarkerFaultsNeverTearCuts: each marker-level fault mode,
// and all of them combined, at probabilities high enough that many cuts
// are hit. The runs must complete with exact output and only untorn cuts
// in the store; duplicates and reorders with zero restarts, marker loss
// with the restart its reported failure causes.
func TestBarrierChaosMarkerFaultsNeverTearCuts(t *testing.T) {
	const epochs, lossyEpochs = 12, 40
	t.Run("drop", func(t *testing.T) {
		barrierChaosRun(t, transport.Fault{DropControlProb: 0.25}, lossyEpochs)
	})
	t.Run("dup", func(t *testing.T) {
		barrierChaosRun(t, transport.Fault{DupControlProb: 0.25}, epochs)
	})
	t.Run("reorder", func(t *testing.T) {
		barrierChaosRun(t, transport.Fault{ReorderControlProb: 0.3}, epochs)
	})
	t.Run("all", func(t *testing.T) {
		rec := barrierChaosRun(t, transport.Fault{
			DropControlProb: 0.15, DupControlProb: 0.15, ReorderControlProb: 0.15,
		}, lossyEpochs)
		if rec.Cuts == 0 && rec.CutAborts == 0 {
			t.Fatalf("combined chaos run neither completed nor aborted any cut: %+v", rec)
		}
	})
}

// markerHold withholds every cross-process barrier marker, as a link too
// slow to deliver one before the crash does: cut 1 stays mid-alignment.
type markerHold struct{ *transport.Chaos }

func (h markerHold) Send(from, to int, kind transport.Kind, payload []byte) {
	if from == to || kind != transport.KindControl {
		h.Chaos.Send(from, to, kind, payload)
	}
}

// TestBarrierCrashMidAlignmentFallsBack: incarnation 0 withholds every
// cross-process marker, so no cut can complete — cut 1 is still
// mid-alignment when the process crashes. Recovery must fall back to the
// last complete snapshot (here: none — a full epoch-0 replay) and still
// produce the reference output; the second, healthy incarnation then
// checkpoints normally.
func TestBarrierCrashMidAlignmentFallsBack(t *testing.T) {
	seed := testutil.Seed(t)
	store := supervise.NewMemStore(4)
	s := newEpochSink()
	var chaos0 *transport.Chaos
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{Seed: seed + inc})
		cfg.Transport = ct
		if inc == 0 {
			chaos0 = ct
			cfg.Transport = markerHold{ct}
		}
	})
	sup, err := supervise.New(supervise.Config{Factory: fact, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedPow2(t, sup, 3) // cut 1 injected at epoch 1 and stuck aligning
	chaos0.Crash(1)
	if err := sup.OnNext("in", int64(1)<<3); err != nil {
		t.Fatal(err)
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("crash during alignment did not recover: %v", err)
	}
	if got := s.values(3); len(got) != 1 || got[0] != 15 {
		t.Fatalf("epoch 3 = %v, want [15]", got)
	}
	rec := sup.Recovery()
	if rec.Restarts != 1 || incarnations.Load() != 2 {
		t.Fatalf("restarts = %d, incarnations = %d; want 1 and 2 (%+v)", rec.Restarts, incarnations.Load(), rec)
	}
	if rec.Checkpoints == 0 {
		t.Fatalf("healthy incarnation never completed a cut: %+v", rec)
	}
	auditCutStore(t, store)
}

// TestSelectiveRollbackKeepsHealthyWorkersRunning: with Selective enabled,
// a single-worker crash is repaired by restoring only that worker from the
// latest complete cut and replaying its delivery log — no teardown, no new
// incarnation, healthy workers never stop.
func TestSelectiveRollbackKeepsHealthyWorkersRunning(t *testing.T) {
	s := newEpochSink()
	var comp *runtime.Computation
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		cfg.Transport = transport.NewMem(2)
	})
	wrapped := supervise.Factory(func() (*supervise.Build, error) {
		b, err := fact()
		if err == nil {
			comp = b.Comp
		}
		return b, err
	})
	sup, err := supervise.New(supervise.Config{
		Factory: wrapped, Selective: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedPow2(t, sup, 2)
	waitForCheckpoints(t, sup, 1)
	// Crash worker 0 — it hosts the pinned counter, so its lost state can
	// only come back from the cut fragment plus the delivery-log replay.
	if err := comp.CrashWorker(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Recovery().SelectiveRevivals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("selective revival never happened: %+v", sup.Recovery())
		}
		time.Sleep(time.Millisecond)
	}
	feedPow2All := []int64{1 << 2, 1 << 3}
	for _, v := range feedPow2All {
		if err := sup.OnNext("in", v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("run after selective revival failed: %v", err)
	}
	if got := s.values(3); len(got) != 1 || got[0] != 15 {
		t.Fatalf("epoch 3 = %v, want [15]: revival lost or duplicated state", got)
	}
	rec := sup.Recovery()
	if rec.SelectiveRevivals != 1 {
		t.Fatalf("selective revivals = %d, want 1 (%+v)", rec.SelectiveRevivals, rec)
	}
	if rec.Restarts != 0 {
		t.Fatalf("selective rollback restarted the whole computation: %+v", rec)
	}
	if incarnations.Load() != 1 {
		t.Fatalf("built %d incarnations, want 1: healthy workers were not left running", incarnations.Load())
	}
	if rec.LastRecovery <= 0 {
		t.Fatalf("revival duration not recorded: %+v", rec)
	}
}

// batchHolder is a counter with the batch fast path that holds one
// capability per receive *call* — not per record — and has a goroutine drop
// it when the epoch completes. Its token numbering therefore depends on how
// deliveries were batched, and the asynchronous drops address tokens by that
// numbering from outside the vertex.
type batchHolder struct {
	counter
	held    map[int64][]uint64 // epoch → Seqs of the capabilities held for it
	missing *atomic.Int64      // HeldCap lookups that did not resolve
}

func (v *batchHolder) hold(t ts.Timestamp) {
	if v.held == nil {
		v.held = make(map[int64][]uint64)
	}
	v.held[t.Epoch] = append(v.held[t.Epoch], v.ctx.HoldCapability(t).Seq())
}

func (v *batchHolder) OnRecv(in int, msg runtime.Message, t ts.Timestamp) {
	v.hold(t)
	v.counter.OnRecv(in, msg, t)
}

func (v *batchHolder) OnRecvBatch(in int, b *runtime.Batch, t ts.Timestamp) {
	v.hold(t)
	for i := 0; i < b.Len(); i++ {
		v.counter.OnRecv(in, b.Record(i), t)
	}
}

func (v *batchHolder) OnNotify(t ts.Timestamp) {
	for _, seq := range v.held[t.Epoch] {
		if hc := v.ctx.HeldCap(seq); hc != nil {
			go hc.DropAsync()
		} else {
			v.missing.Add(1)
		}
	}
	delete(v.held, t.Epoch)
	v.counter.OnNotify(t)
}

// TestSelectiveRollbackReplaysBatchesAsBatches: a logged batch that was
// delivered live through OnRecvBatch must replay through OnRecvBatch. Replay
// used to unbatch it into one OnRecv per record, so a vertex that holds a
// capability per call numbered its tokens differently on replay than live —
// and the drops logged (or still in flight) under the live numbering then
// retired the wrong tokens: a negative occurrence count, or a leaked token
// and a run that never completes.
func TestSelectiveRollbackReplaysBatchesAsBatches(t *testing.T) {
	progress.AuditCaps(t)
	s := newEpochSink()
	var missing atomic.Int64
	var comp *runtime.Computation
	fact, _ := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &batchHolder{counter: counter{ctx: ctx}, missing: &missing}
	}, func(inc int64, cfg *runtime.Config) {
		cfg.Transport = transport.NewMem(2)
		cfg.SafetyChecks = true
	})
	sup, err := supervise.New(supervise.Config{
		Factory: supervise.Factory(func() (*supervise.Build, error) {
			b, err := fact()
			if err == nil {
				comp = b.Comp
			}
			return b, err
		}),
		Selective: true, CheckpointEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Eight records an epoch scatter two to each worker's input vertex, so
	// the pinned counter receives multi-record batches from its three peers.
	// No cut is ever taken: revival replays the whole log.
	feed := func(e int64) {
		recs := make([]runtime.Message, 8)
		for i := range recs {
			recs[i] = int64(1) << (4 * e)
		}
		if err := sup.OnNext("in", recs...); err != nil {
			t.Fatal(err)
		}
	}
	feed(0)
	feed(1)
	waitEpoch(t, s, 1)
	if err := comp.CrashWorker(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Recovery().SelectiveRevivals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("selective revival never happened: %+v", sup.Recovery())
		}
		time.Sleep(time.Millisecond)
	}
	feed(2)
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("run after selective revival failed: %v", err)
	}
	if got := s.values(2); len(got) != 1 || got[0] != 8*0x111 {
		t.Fatalf("epoch 2 = %v, want [%d]", got, 8*0x111)
	}
	if n := missing.Load(); n != 0 {
		t.Fatalf("%d held capabilities did not resolve by Seq", n)
	}
	if rec := sup.Recovery(); rec.SelectiveRevivals != 1 || rec.Restarts != 0 {
		t.Fatalf("want one selective revival and no restart, got %+v", rec)
	}
}

// TestLostMarkerReleasesDeferredClose: incarnation 0 loses every marker,
// so its final cut can never settle and CloseInput is deferred behind it.
// The loss is a reported link failure: the supervisor restarts, the
// rebuilt incarnation settles the cut, the deferred close is applied, and
// Wait returns — no timer involved.
func TestLostMarkerReleasesDeferredClose(t *testing.T) {
	seed := testutil.Seed(t)
	s := newEpochSink()
	fact, _ := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		var f transport.Fault
		if inc == 0 {
			f.DropControlProb = 1
		}
		cfg.Transport = transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{Seed: seed + inc, Default: f})
	})
	sup, err := supervise.New(supervise.Config{Factory: fact})
	if err != nil {
		t.Fatal(err)
	}
	feedPow2(t, sup, 3)
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sup.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait hung: the lost marker blocked the deferred close forever")
	}
	if got := s.values(2); len(got) != 1 || got[0] != 7 {
		t.Fatalf("epoch 2 = %v, want [7]", got)
	}
	if rec := sup.Recovery(); rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1: the lost marker must fail incarnation 0 (%+v)", rec.Restarts, rec)
	}
}
