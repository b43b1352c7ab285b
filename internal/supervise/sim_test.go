package supervise_test

// The deterministic recovery simulation harness: a seeded PRNG draws an
// entire failure schedule up front — marker-level chaos probabilities,
// link latencies, a process crash, single-worker crashes, pauses — and the
// run must end with exactly the fault-free output no matter how the
// schedule interleaves with barrier alignment. Crashes land at arbitrary
// points of cut assembly, so mid-barrier failure is exercised across
// seeds; the invariant checked at the end is the strongest one available:
// output equality, zero lost or duplicated records, and only untorn cuts
// in the store. Reproduce any failure by re-running with NAIAD_TEST_SEED.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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

// simTarget hands the latest incarnation's computation and chaos
// transport to the schedule driver. The factory writes it from supervisor
// goroutines while the driver reads it from the test goroutine.
type simTarget struct {
	mu    sync.Mutex
	comp  *runtime.Computation
	chaos *transport.Chaos
}

func (st *simTarget) setComp(c *runtime.Computation) {
	st.mu.Lock()
	st.comp = c
	st.mu.Unlock()
}

func (st *simTarget) setChaos(ch *transport.Chaos) {
	st.mu.Lock()
	st.chaos = ch
	st.mu.Unlock()
}

func (st *simTarget) get() (*runtime.Computation, *transport.Chaos) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.comp, st.chaos
}

// simSchedule is one fully drawn failure plan.
type simSchedule struct {
	epochs         int
	fault          transport.Fault
	procCrashAt    int         // epoch after which process 1 crashes, -1 = never
	workerCrashAt  map[int]int // epoch → worker to crash after feeding it
	crashAfterCuts int64       // worker crashes wait for this many complete cuts
	pauseProb      float64
	selective      bool
	settleTimeout  time.Duration
	checkpointEach int64
}

// simResult is what one simulated run leaves behind for its case's checks.
type simResult struct {
	sink  *epochSink
	store supervise.SnapshotStore
	rec   runtime.RecoverySnapshot
}

// drawSchedule seeds one run's PRNG and draws its failure plan from it; the
// run keeps drawing (pauses) from the same stream.
func drawSchedule(seed int64) (*rand.Rand, simSchedule) {
	rng := rand.New(rand.NewSource(seed))
	sch := simSchedule{
		epochs: 10 + rng.Intn(6),
		fault: transport.Fault{
			Latency:            time.Duration(rng.Intn(200)) * time.Microsecond,
			Jitter:             time.Duration(1+rng.Intn(300)) * time.Microsecond,
			DropControlProb:    0.3 * rng.Float64(),
			DupControlProb:     0.3 * rng.Float64(),
			ReorderControlProb: 0.3 * rng.Float64(),
		},
		procCrashAt:    -1,
		workerCrashAt:  make(map[int]int),
		pauseProb:      0.3,
		selective:      rng.Float64() < 0.75,
		settleTimeout:  time.Duration(100+rng.Intn(150)) * time.Millisecond,
		checkpointEach: 1 + rng.Int63n(2),
	}
	if rng.Float64() < 0.5 {
		sch.procCrashAt = rng.Intn(sch.epochs)
	}
	if sch.selective {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			sch.workerCrashAt[rng.Intn(sch.epochs)] = rng.Intn(4)
		}
	}
	return rng, sch
}

// runSimulation executes one drawn schedule with mkVertex in the middle of
// the counter pipeline and checks the invariants every case shares: the run
// terminates cleanly, no capability leaks, and the store holds only untorn
// cuts. rng continues the stream the schedule was drawn from.
func runSimulation(t *testing.T, seed int64, rng *rand.Rand, sch simSchedule,
	mkVertex func(*runtime.Context) runtime.Vertex) simResult {
	t.Helper()
	progress.AuditCaps(t)
	t.Logf("schedule: %d epochs, fault %+v, procCrashAt %d, workerCrashAt %v, selective %v, settle %v, every %d",
		sch.epochs, sch.fault, sch.procCrashAt, sch.workerCrashAt, sch.selective,
		sch.settleTimeout, sch.checkpointEach)

	store := supervise.NewMemStore(4)
	s := newEpochSink()
	target := &simTarget{}
	fact, incarnations := counterFactory(s, mkVertex, func(inc int64, cfg *runtime.Config) {
		ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
			Seed: seed + inc, Default: sch.fault,
		})
		cfg.Transport = ct
		cfg.SafetyChecks = true
		// A process crash aborts through the chaos transport's failure
		// report; counterFactory's Watchdog is the backstop for a stall.
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
		Factory: wrapped, Store: store, Seed: seed,
		Selective:        sch.selective,
		CheckpointEvery:  sch.checkpointEach,
		CutSettleTimeout: sch.settleTimeout,
		MaxRestarts:      6,
		Backoff:          time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < sch.epochs; e++ {
		if err := sup.OnNext("in", int64(1)<<e); err != nil {
			t.Fatal(err)
		}
		if e == sch.procCrashAt {
			if _, chaos := target.get(); chaos != nil {
				chaos.Crash(1)
			}
		}
		if w, ok := sch.workerCrashAt[e]; ok {
			waitForCheckpoints(t, sup, sch.crashAfterCuts)
			if comp, _ := target.get(); comp != nil {
				comp.CrashWorker(w) // best effort: a torn-down incarnation drops it
			}
		}
		if rng.Float64() < sch.pauseProb {
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
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
			t.Fatalf("simulated run failed terminally: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("simulated run hung")
	}
	auditCutStore(t, store)
	rec := sup.Recovery()
	t.Logf("recovery: %+v, incarnations %d", rec, incarnations.Load())
	return simResult{sink: s, store: store, rec: rec}
}

// obligor is a counter that keeps one obligation of every shape outstanding
// across each epoch boundary. The first record of epoch e requests, all for
// boundary e+1: a NotifyAt ('a'), a NotifyAtCap whose capability lies one
// epoch past its guarantee ('b'), a purge notification ('p'), and a held
// capability that a goroutine drops once 'a' fires — and the counter's own
// NotifyAt for e ('t'). Every firing leaves a distinct mark, so a lost,
// duplicated, or mis-timed obligation changes what the test sees: 't' and
// 'a' send theirs to the sink; 'p' may not send, and 'b' could only send
// into an epoch the stateless sink has not reached, so those two mark the
// side tally. want and held are state: they describe requests that outlive
// the epoch, so they ride in the checkpoint like total.
type obligor struct {
	ctx   *runtime.Context
	total int64            // everything received; at a cut, the sum of the epochs below it
	done  int64            // sum of the epochs whose 't' has fired
	sums  map[int64]int64  // open epochs
	want  map[int64][]byte // guarantee epoch → kinds owed, in request order
	held  map[int64]uint64 // epoch → Seq of the capability held at it
	seen  map[int64]bool   // epochs whose first record has arrived
	marks *epochSink       // side tally, shared across incarnations
}

func newObligor(marks *epochSink) func(*runtime.Context) runtime.Vertex {
	return func(ctx *runtime.Context) runtime.Vertex {
		return &obligor{ctx: ctx, marks: marks, sums: make(map[int64]int64),
			want: make(map[int64][]byte), held: make(map[int64]uint64), seen: make(map[int64]bool)}
	}
}

func (v *obligor) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	if e := t.Epoch; !v.seen[e] {
		v.seen[e] = true
		next := ts.Root(e + 1)
		v.ctx.NotifyAt(next)
		v.ctx.NotifyAtCap(next, ts.Root(e+2))
		v.ctx.NotifyAtPurge(next)
		v.held[e+1] = v.ctx.HoldCapability(next).Seq()
		v.want[e+1] = append(v.want[e+1], 'a', 'b', 'p')
		v.ctx.NotifyAt(t)
		v.want[e] = append(v.want[e], 't')
	}
	v.total += msg.(int64)
	v.sums[t.Epoch] += msg.(int64)
}

func (v *obligor) OnNotify(t ts.Timestamp) {
	e := t.Epoch
	kind := v.want[e][0]
	if v.want[e] = v.want[e][1:]; len(v.want[e]) == 0 {
		delete(v.want, e)
	}
	switch kind {
	case 't':
		// Later epochs' records may already have arrived; emit the prefix
		// sum, which no interleaving changes.
		v.done += v.sums[e]
		delete(v.sums, e)
		v.ctx.SendBy(0, v.done, t)
	case 'a':
		v.ctx.SendBy(0, -1000-e, t)
		hc := v.ctx.HeldCap(v.held[e])
		delete(v.held, e)
		go hc.DropAsync()
	case 'b', 'p':
		v.marks.add(e, int64(kind))
	}
}

func (v *obligor) Checkpoint(enc *codec.Encoder) {
	enc.PutInt64(v.total)
	enc.PutUint32(uint32(len(v.want)))
	for _, e := range sortedEpochs(v.want) {
		enc.PutInt64(e)
		enc.PutBytes(v.want[e])
	}
	enc.PutUint32(uint32(len(v.held)))
	for _, e := range sortedEpochs(v.held) {
		enc.PutInt64(e)
		enc.PutUint64(v.held[e])
	}
}

func (v *obligor) Restore(dec *codec.Decoder) {
	v.total = dec.Int64()
	v.done = v.total // a cut sits on an epoch boundary: no epoch is open
	for n := dec.Uint32(); n > 0; n-- {
		e := dec.Int64()
		v.want[e] = dec.Bytes()
	}
	for n := dec.Uint32(); n > 0; n-- {
		e := dec.Int64()
		v.held[e] = dec.Uint64()
	}
}

func sortedEpochs[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSeededRecoverySimulation runs the harness across a spread of seeds
// derived from the session seed: every randomized schedule must converge to
// the reference output. The last row is the obligations case: the obligor
// vertex, worker 0 (its host) crashed twice after complete cuts, and the
// whole output — totals, every obligation's mark, the purge marks — must be
// identical to the same schedule's crash-free run.
func TestSeededRecoverySimulation(t *testing.T) {
	base := testutil.Seed(t)
	for i := int64(0); i < 4; i++ {
		seed := base + i*7919
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			rng, sch := drawSchedule(seed)
			res := runSimulation(t, seed, rng, sch, func(ctx *runtime.Context) runtime.Vertex {
				return &counter{ctx: ctx}
			})
			want := int64(1)<<sch.epochs - 1
			if got := res.sink.values(int64(sch.epochs) - 1); len(got) != 1 || got[0] != want {
				t.Fatalf("final epoch = %v, want [%d]: the failure schedule corrupted the dataflow", got, want)
			}
			if sch.procCrashAt >= 0 && res.rec.Restarts == 0 {
				t.Fatalf("process crash scheduled but no restart recorded: %+v", res.rec)
			}
		})
	}
	t.Run("obligations_across_cut", func(t *testing.T) {
		run := func(crash bool) (simResult, *epochSink, int) {
			rng, sch := drawSchedule(base)
			// Selective rollback only, on clean markers so cuts complete: a
			// full restart regenerates obligations from the input replay, which
			// is not what this row is about.
			sch.selective, sch.procCrashAt, sch.checkpointEach = true, -1, 1
			sch.fault.DropControlProb, sch.fault.DupControlProb, sch.fault.ReorderControlProb = 0, 0, 0
			sch.workerCrashAt = map[int]int{}
			if crash {
				sch.crashAfterCuts = 1
				sch.workerCrashAt[2+rng.Intn(3)] = 0
				sch.workerCrashAt[sch.epochs-1-rng.Intn(3)] = 0
			}
			marks := newEpochSink()
			return runSimulation(t, base, rng, sch, newObligor(marks)), marks, sch.epochs
		}
		calm, calmMarks, epochs := run(false)
		crashed, crashedMarks, _ := run(true)
		if crashed.rec.SelectiveRevivals == 0 || crashed.rec.Restarts != 0 {
			t.Fatalf("want selective revivals and no full restart, got %+v", crashed.rec)
		}
		for e := int64(0); e <= int64(epochs); e++ {
			if got, want := crashed.sink.values(e), calm.sink.values(e); !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d: output %v after revival, %v crash-free", e, got, want)
			}
			if got, want := crashedMarks.values(e), calmMarks.values(e); !reflect.DeepEqual(got, want) {
				t.Errorf("epoch %d: side marks %v after revival, %v crash-free", e, got, want)
			}
		}
		last := int64(epochs)
		if got := calm.sink.values(last); len(got) != 1 || got[0] != -1000-last {
			t.Fatalf("crash-free run: epoch %d = %v, want the last NotifyAt's mark alone", last, got)
		}
		if got := calmMarks.values(last); !reflect.DeepEqual(got, []int64{'b', 'p'}) {
			t.Fatalf("crash-free run: epoch %d side marks = %v, want the NotifyAtCap's and the purge's", last, got)
		}
		// The cuts revival started from must really have carried every shape.
		shapes := make(map[[3]bool]bool) // {HasCap, Notify, Guarantee == Time}
		eps, _ := crashed.store.Epochs()
		for _, e := range eps {
			data, _ := crashed.store.Load(e)
			cut, err := runtime.UnmarshalCut(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, byVertex := range cut.Caps {
				for _, held := range byVertex {
					for _, h := range held {
						shapes[[3]bool{h.HasCap, h.Notify, h.Guarantee == h.Time}] = true
					}
				}
			}
		}
		for name, shape := range map[string][3]bool{
			"held capability": {true, false, false}, "NotifyAt": {true, true, true},
			"NotifyAtCap": {true, true, false}, "NotifyAtPurge": {false, true, false},
		} {
			if !shapes[shape] {
				t.Errorf("no persisted cut carried an outstanding %s", name)
			}
		}
	})
}

// TestSimulationMidBarrierWorkerCrash pins the mid-barrier case the
// randomized harness only hits probabilistically: markers are delayed so
// cut assembly takes visible time, and the checkpointed worker is crashed
// immediately after the feed that triggers injection — alignment is torn
// mid-flight, the supervisor must abort the cut, revive the worker from
// the previous complete cut (or its birth log), and the output must come
// out exact.
func TestSimulationMidBarrierWorkerCrash(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	s := newEpochSink()
	target := &simTarget{}
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		cfg.Transport = transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
			Seed:    seed + inc,
			Default: transport.Fault{Latency: 2 * time.Millisecond, Jitter: time.Millisecond},
		})
	})
	wrapped := supervise.Factory(func() (*supervise.Build, error) {
		b, err := fact()
		if err == nil {
			target.setComp(b.Comp)
		}
		return b, err
	})
	sup, err := supervise.New(supervise.Config{
		Factory: wrapped, Selective: true, Seed: seed,
		CutSettleTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCp := func(n int64) {
		deadline := time.Now().Add(10 * time.Second)
		for sup.Recovery().Checkpoints < n {
			if time.Now().After(deadline) {
				t.Fatalf("never reached %d checkpoints: %+v", n, sup.Recovery())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := sup.OnNext("in", int64(1)); err != nil { // epoch 0
		t.Fatal(err)
	}
	waitCp(1)                                          // cut at boundary 1 complete: the revival baseline exists
	if err := sup.OnNext("in", int64(2)); err != nil { // epoch 1: injects the next cut
		t.Fatal(err)
	}
	comp, _ := target.get()
	if err := comp.CrashWorker(0); err != nil { // mid-alignment: markers are still in flight
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Recovery().SelectiveRevivals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no selective revival after mid-barrier crash: %+v", sup.Recovery())
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.OnNext("in", int64(4)); err != nil { // epoch 2
		t.Fatal(err)
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("mid-barrier crash did not recover: %v", err)
	}
	if got := s.values(2); len(got) != 1 || got[0] != 7 {
		t.Fatalf("epoch 2 = %v, want [7]", got)
	}
	rec := sup.Recovery()
	if rec.SelectiveRevivals != 1 || rec.Restarts != 0 || incarnations.Load() != 1 {
		t.Fatalf("want exactly one selective revival and no restart, got %+v, %d incarnations",
			rec, incarnations.Load())
	}
}
