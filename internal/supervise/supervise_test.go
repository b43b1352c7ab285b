package supervise_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

// counter sums every value it has ever seen and emits the running total at
// each epoch's notification; the total is its checkpointed state. The
// standard feed (1,2), (10), (100) makes the epoch-2 output 113 — the
// delay- and replay-invariant reference for recovery runs.
type counter struct {
	ctx   *runtime.Context
	total int64
	dirty map[int64]bool
}

func (v *counter) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	if v.dirty == nil {
		v.dirty = make(map[int64]bool)
	}
	if !v.dirty[t.Epoch] {
		v.dirty[t.Epoch] = true
		v.ctx.NotifyAt(t)
	}
	v.total += msg.(int64)
}

func (v *counter) OnNotify(t ts.Timestamp) {
	delete(v.dirty, t.Epoch)
	v.ctx.SendBy(0, v.total, t)
}

func (v *counter) Checkpoint(enc *codec.Encoder) { enc.PutInt64(v.total) }
func (v *counter) Restore(dec *codec.Decoder)    { v.total = dec.Int64() }

// bomb is a counter that panics on a poison value, killing every
// incarnation that replays it.
type bomb struct{ counter }

func (v *bomb) OnRecv(port int, msg runtime.Message, t ts.Timestamp) {
	if msg.(int64) == 13 {
		panic("poison record")
	}
	v.counter.OnRecv(port, msg, t)
}

// epochSink records the distinct values seen per epoch. One instance is
// shared across incarnations: replays may re-emit an epoch's output, and
// the invariant under recovery is set equality with the fault-free run —
// exactly-once delivery to the outside world is the consumer's job, keyed
// by epoch (see the package comment).
type epochSink struct {
	mu      sync.Mutex
	byEpoch map[int64]map[int64]bool
}

func newEpochSink() *epochSink { return &epochSink{byEpoch: make(map[int64]map[int64]bool)} }

func (s *epochSink) add(e, v int64) {
	s.mu.Lock()
	if s.byEpoch[e] == nil {
		s.byEpoch[e] = make(map[int64]bool)
	}
	s.byEpoch[e][v] = true
	s.mu.Unlock()
}

func (s *epochSink) values(e int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for v := range s.byEpoch[e] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type sinkVertex struct {
	ctx  *runtime.Context
	s    *epochSink
	seen map[int64]bool
}

func (v *sinkVertex) OnRecv(_ int, msg runtime.Message, t ts.Timestamp) {
	if v.seen == nil {
		v.seen = make(map[int64]bool)
	}
	if !v.seen[t.Epoch] {
		v.seen[t.Epoch] = true
		v.ctx.NotifyAt(t)
	}
	v.s.add(t.Epoch, msg.(int64))
}

func (v *sinkVertex) OnNotify(ts.Timestamp) {}

// counterFactory builds the two-process counter pipeline. mkVertex picks
// the middle vertex; tune (optional) adjusts the config per incarnation —
// typically installing a fresh fault-injecting transport.
func counterFactory(s *epochSink, mkVertex func(*runtime.Context) runtime.Vertex,
	tune func(incarnation int64, cfg *runtime.Config)) (supervise.Factory, *atomic.Int64) {
	var incarnations atomic.Int64
	return func() (*supervise.Build, error) {
		inc := incarnations.Add(1) - 1
		cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2,
			Accumulation: runtime.AccLocalGlobal, Watchdog: 5 * time.Second}
		if tune != nil {
			tune(inc, &cfg)
		}
		c, err := runtime.NewComputation(cfg)
		if err != nil {
			return nil, err
		}
		in := c.NewInput("in")
		ctr := c.AddStage("counter", graph.RoleNormal, 0, mkVertex, runtime.Pinned(0))
		c.Connect(in.Stage(), 0, ctr, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &sinkVertex{ctx: ctx, s: s}
		}, runtime.Pinned(0))
		c.Connect(ctr, 0, snk, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		return &supervise.Build{
			Comp:   c,
			Inputs: map[string]*runtime.Input{"in": in},
			Probe:  c.NewProbe(snk),
		}, nil
	}, &incarnations
}

func feedStandard(t *testing.T, sup *supervise.Supervisor) {
	t.Helper()
	for _, batch := range [][]runtime.Message{{int64(1), int64(2)}, {int64(10)}, {int64(100)}} {
		if err := sup.OnNext("in", batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
}

func waitForCheckpoints(t *testing.T, sup *supervise.Supervisor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sup.Recovery().Checkpoints < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d checkpoints: %+v", n, sup.Recovery())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSupervisorCleanRun: a fault-free supervised run completes, produces
// the reference output, and takes checkpoints at every epoch boundary.
func TestSupervisorCleanRun(t *testing.T) {
	s := newEpochSink()
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, nil)
	sup, err := supervise.New(supervise.Config{Factory: fact, Seed: testutil.Seed(t)})
	if err != nil {
		t.Fatal(err)
	}
	feedStandard(t, sup)
	if err := sup.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := s.values(2); len(got) != 1 || got[0] != 113 {
		t.Fatalf("epoch 2 = %v, want [113]", got)
	}
	rec := sup.Recovery()
	if rec.Checkpoints < 2 || rec.CheckpointBytes == 0 {
		t.Fatalf("expected periodic checkpoints, got %+v", rec)
	}
	if rec.Restarts != 0 {
		t.Fatalf("fault-free run restarted: %+v", rec)
	}
	if incarnations.Load() != 1 {
		t.Fatalf("fault-free run built %d incarnations", incarnations.Load())
	}
	// The supervisor is terminal: further commands fail fast.
	if err := sup.OnNext("in", int64(5)); err == nil {
		t.Fatal("OnNext after completion succeeded")
	}
	if err := sup.OnNext("nope"); err == nil || !strings.Contains(err.Error(), "unknown input") {
		t.Fatalf("unknown input error = %v", err)
	}
}

// TestSupervisorRecoversFromCrash is the tentpole acceptance test: crash a
// process mid-computation and the supervisor must rebuild, restore the
// latest snapshot, replay the logged epochs, and finish with output equal
// to the fault-free run.
func TestSupervisorRecoversFromCrash(t *testing.T) {
	seed := testutil.Seed(t)
	s := newEpochSink()
	var chaos0 *transport.Chaos
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{Seed: seed + inc})
		if inc == 0 {
			chaos0 = ct
		}
		cfg.Transport = ct
	})
	sup, err := supervise.New(supervise.Config{Factory: fact, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.OnNext("in", int64(1), int64(2)); err != nil {
		t.Fatal(err)
	}
	if err := sup.OnNext("in", int64(10)); err != nil {
		t.Fatal(err)
	}
	waitForCheckpoints(t, sup, 2)
	chaos0.Crash(1) // kill a process with epochs 0–1 checkpointed
	if err := sup.OnNext("in", int64(100)); err != nil {
		t.Fatal(err)
	}
	if err := sup.CloseInput("in"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if got := s.values(2); len(got) != 1 || got[0] != 113 {
		t.Fatalf("epoch 2 = %v, want [113]: recovery lost or corrupted state", got)
	}
	rec := sup.Recovery()
	if rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (%+v)", rec.Restarts, rec)
	}
	if rec.LastRecovery <= 0 {
		t.Fatalf("last recovery duration not recorded: %+v", rec)
	}
	if incarnations.Load() != 2 {
		t.Fatalf("built %d incarnations, want 2", incarnations.Load())
	}
}

// twoInputFactory builds a two-input counter pipeline: inputs "a" and "b"
// both feed the counter, whose epoch-e notification emits the running total
// of everything received so far (delay-invariant only at the final epoch).
func twoInputFactory(s *epochSink, tune func(incarnation int64, cfg *runtime.Config)) (supervise.Factory, *atomic.Int64) {
	var incarnations atomic.Int64
	return func() (*supervise.Build, error) {
		inc := incarnations.Add(1) - 1
		cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2,
			Accumulation: runtime.AccLocalGlobal, Watchdog: 5 * time.Second}
		if tune != nil {
			tune(inc, &cfg)
		}
		c, err := runtime.NewComputation(cfg)
		if err != nil {
			return nil, err
		}
		a, b := c.NewInput("a"), c.NewInput("b")
		ctr := c.AddStage("counter", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &counter{ctx: ctx}
		}, runtime.Pinned(0))
		c.Connect(a.Stage(), 0, ctr, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		c.Connect(b.Stage(), 0, ctr, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		snk := c.AddStage("sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
			return &sinkVertex{ctx: ctx, s: s}
		}, runtime.Pinned(0))
		c.Connect(ctr, 0, snk, func(runtime.Message) uint64 { return 0 }, codec.Int64())
		return &supervise.Build{
			Comp:   c,
			Inputs: map[string]*runtime.Input{"a": a, "b": b},
			Probe:  c.NewProbe(snk),
		}, nil
	}, &incarnations
}

// TestSupervisorMultiInputAlignment regression-tests the alignment guard's
// treatment of never-fed inputs: the very first feed to one input of a
// two-input graph must not trigger a checkpoint quiesce — the other input's
// seeded epoch-0 pointstamp holds the frontier, so a probe wait there would
// deadlock the run loop forever (and no queued command could ever unblock
// it). Inputs are fed strictly one at a time; checkpoints may only happen
// at aligned epoch boundaries.
func TestSupervisorMultiInputAlignment(t *testing.T) {
	s := newEpochSink()
	fact, incarnations := twoInputFactory(s, nil)
	sup, err := supervise.New(supervise.Config{Factory: fact, Seed: testutil.Seed(t)})
	if err != nil {
		t.Fatal(err)
	}
	feeds := []struct {
		in string
		v  int64
	}{{"a", 1}, {"b", 10}, {"a", 100}, {"b", 1000}}
	for _, f := range feeds {
		if err := sup.OnNext(f.in, f.v); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []string{"a", "b"} {
		if err := sup.CloseInput(in); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- sup.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor deadlocked: checkpoint quiesce fired while an input was never fed")
	}
	if got := s.values(1); len(got) != 1 || got[0] != 1111 {
		t.Fatalf("epoch 1 = %v, want [1111]", got)
	}
	rec := sup.Recovery()
	if rec.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2 (aligned boundaries only): %+v", rec.Checkpoints, rec)
	}
	if rec.Restarts != 0 || incarnations.Load() != 1 {
		t.Fatalf("fault-free multi-input run restarted: %+v, %d incarnations", rec, incarnations.Load())
	}
}

// TestSupervisorReplayUnaffectedByCallerBufferReuse: the replay log must
// own its batches. A caller that recycles its batch buffer after OnNext
// returns must not rewrite history — the replayed run's output must equal
// the fault-free run's. Checkpointing is effectively disabled so recovery
// replays every logged epoch, including the ones fed from the recycled
// buffer. With one worker the input hands the logged batch itself to the
// dataflow, so a log that did not keep its own reference would replay a
// batch the dataflow had already released.
func TestSupervisorReplayUnaffectedByCallerBufferReuse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		procs, wpp int
		// crash fails the first incarnation: a process crash on the
		// two-process network, an abort where there is no network to cut.
		crash func(b *supervise.Build, ct *transport.Chaos)
	}{
		{"2x2", 2, 2, func(_ *supervise.Build, ct *transport.Chaos) { ct.Crash(1) }},
		{"1x1", 1, 1, func(b *supervise.Build, _ *transport.Chaos) { b.Comp.Abort(errors.New("injected failure")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := testutil.Seed(t)
			s := newEpochSink()
			var chaos0 *transport.Chaos
			fact, _ := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
				return &counter{ctx: ctx}
			}, func(inc int64, cfg *runtime.Config) {
				cfg.Processes, cfg.WorkersPerProcess = tc.procs, tc.wpp
				ct := transport.NewChaos(transport.NewMem(tc.procs), transport.ChaosConfig{Seed: seed + inc})
				if inc == 0 {
					chaos0 = ct
				}
				cfg.Transport = ct
			})
			var build0 *supervise.Build
			first := func() (*supervise.Build, error) {
				b, err := fact()
				if build0 == nil {
					build0 = b
				}
				return b, err
			}
			sup, err := supervise.New(supervise.Config{Factory: first, CheckpointEvery: 100, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]runtime.Message, 2)
			buf[0], buf[1] = int64(1), int64(2)
			if err := sup.OnNext("in", buf...); err != nil { // epoch 0: {1,2}
				t.Fatal(err)
			}
			buf[0] = int64(10)
			if err := sup.OnNext("in", buf[:1]...); err != nil { // epoch 1: {10}
				t.Fatal(err)
			}
			// Poison the recycled buffer: if the log aliased it, replay would
			// feed {4242,4242} and {4242} instead of {1,2} and {10}. Both
			// epochs drain through the first incarnation before the crash, so
			// the dataflow has released its references to the logged batches
			// by the time replay feeds them again.
			buf[0], buf[1] = int64(4242), int64(4242)
			build0.Probe.WaitFor(1)
			tc.crash(build0, chaos0)
			if err := sup.OnNext("in", int64(100)); err != nil { // epoch 2: {100}
				t.Fatal(err)
			}
			if err := sup.CloseInput("in"); err != nil {
				t.Fatal(err)
			}
			if err := sup.Wait(); err != nil {
				t.Fatalf("supervised run did not recover: %v", err)
			}
			if got := s.values(2); len(got) != 1 || got[0] != 113 {
				t.Fatalf("epoch 2 = %v, want [113]: replay fed a batch the caller had overwritten", got)
			}
			if rec := sup.Recovery(); rec.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1 (%+v)", rec.Restarts, rec)
			}
		})
	}
}

// TestSupervisorRecoversFromPartition: an unhealed network partition stalls
// the computation silently — it holds frames rather than losing them, so
// no transport failure fires. The watchdog must abort the stalled
// incarnation, and the supervisor must then rebuild on a healthy network
// and finish correctly.
func TestSupervisorRecoversFromPartition(t *testing.T) {
	seed := testutil.Seed(t)
	s := newEpochSink()
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &counter{ctx: ctx}
	}, func(inc int64, cfg *runtime.Config) {
		ccfg := transport.ChaosConfig{Seed: seed + inc}
		if inc == 0 {
			// Minority {1} cut off from the start, never healing.
			ccfg.Partition = &transport.Partition{Groups: [][]int{{0}, {1}}, Duration: time.Hour}
			cfg.Watchdog = 100 * time.Millisecond
		}
		cfg.Transport = transport.NewChaos(transport.NewMem(2), ccfg)
	})
	var first *runtime.Computation
	sup, err := supervise.New(supervise.Config{Seed: seed, Factory: func() (*supervise.Build, error) {
		b, err := fact()
		if first == nil && err == nil {
			first = b.Comp
		}
		return b, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	feedStandard(t, sup)
	if err := sup.Wait(); err != nil {
		t.Fatalf("supervised run did not recover from the partition: %v", err)
	}
	if got := s.values(2); len(got) != 1 || got[0] != 113 {
		t.Fatalf("epoch 2 = %v, want [113]", got)
	}
	rec := sup.Recovery()
	if rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (%+v)", rec.Restarts, rec)
	}
	if err := first.Err(); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("partitioned incarnation failed with %v, want the watchdog's abort", err)
	}
	if incarnations.Load() != 2 {
		t.Fatalf("built %d incarnations, want 2", incarnations.Load())
	}
}

// TestSupervisorGivesUp: a computation that dies deterministically on
// every replay must exhaust the restart budget and land in the terminal
// gave-up state, not loop forever.
func TestSupervisorGivesUp(t *testing.T) {
	s := newEpochSink()
	fact, incarnations := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
		return &bomb{counter{ctx: ctx}}
	}, nil)
	sup, err := supervise.New(supervise.Config{
		Factory:     fact,
		MaxRestarts: 2,
		Backoff:     time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        testutil.Seed(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.OnNext("in", int64(13)); err != nil { // poison: every incarnation dies
		t.Fatal(err)
	}
	err = sup.Wait()
	if !errors.Is(err, supervise.ErrGaveUp) {
		t.Fatalf("Wait = %v, want ErrGaveUp", err)
	}
	if !strings.Contains(err.Error(), "poison record") {
		t.Fatalf("gave-up error does not carry the cause: %v", err)
	}
	if got := incarnations.Load(); got != 3 { // initial + MaxRestarts
		t.Fatalf("built %d incarnations, want 3", got)
	}
	if err := sup.OnNext("in", int64(1)); !errors.Is(err, supervise.ErrGaveUp) {
		t.Fatalf("OnNext after gave-up = %v, want ErrGaveUp", err)
	}
}

// TestSupervisorFallsBackPastCorruptSnapshot: recovery must skip a
// snapshot it cannot use — one that fails its checksum, or intact bytes in
// an older cut layout, refused with runtime.ErrCutVersion — and restore the
// older retained one: "latest consistent", not "latest written". Epoch 0's
// batch is pruned once two snapshots exist, so only a restore from the
// older snapshot (never a replay from scratch) can complete the run.
func TestSupervisorFallsBackPastCorruptSnapshot(t *testing.T) {
	damage := map[string]func(*testing.T, []byte){
		"bit rot": func(_ *testing.T, data []byte) { data[len(data)-1] ^= 0x40 },
		// v4: the last layout-identical version, whose channel frames a
		// pre-flat-codec binary wrote in gob.
		"cut version 4": func(t *testing.T, data []byte) {
			binary.LittleEndian.PutUint32(data[4:8], 4) // the checksum covers the body only
			if _, err := runtime.UnmarshalCut(data); !errors.Is(err, runtime.ErrCutVersion) {
				t.Fatalf("v4 cut bytes: got %v, want ErrCutVersion", err)
			}
		},
	}
	for name, spoil := range damage {
		t.Run(name, func(t *testing.T) {
			seed := testutil.Seed(t)
			dir := t.TempDir()
			store, err := supervise.NewDiskStore(dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			s := newEpochSink()
			var chaos0 *transport.Chaos
			fact, _ := counterFactory(s, func(ctx *runtime.Context) runtime.Vertex {
				return &counter{ctx: ctx}
			}, func(inc int64, cfg *runtime.Config) {
				ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{Seed: seed + inc})
				if inc == 0 {
					chaos0 = ct
				}
				cfg.Transport = ct
			})
			tr := trace.New(trace.Config{RingBits: 12})
			sup, err := supervise.New(supervise.Config{Factory: fact, Store: store, Seed: seed, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.OnNext("in", int64(1), int64(2)); err != nil {
				t.Fatal(err)
			}
			if err := sup.OnNext("in", int64(10)); err != nil {
				t.Fatal(err)
			}
			waitForCheckpoints(t, sup, 2)
			eps, err := store.Epochs()
			if err != nil || len(eps) < 2 {
				t.Fatalf("epochs = %v, %v", eps, err)
			}
			newest := filepath.Join(dir, filesByMtime(t, dir)[0])
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			spoil(t, data)
			if err := os.WriteFile(newest, data, 0o644); err != nil {
				t.Fatal(err)
			}
			chaos0.Crash(1)
			if err := sup.OnNext("in", int64(100)); err != nil {
				t.Fatal(err)
			}
			if err := sup.CloseInput("in"); err != nil {
				t.Fatal(err)
			}
			if err := sup.Wait(); err != nil {
				t.Fatalf("recovery with an unusable latest snapshot failed: %v", err)
			}
			if got := s.values(2); len(got) != 1 || got[0] != 113 {
				t.Fatalf("epoch 2 = %v, want [113]", got)
			}
			if rec := sup.Recovery(); rec.Restarts != 1 {
				t.Fatalf("restarts = %d, want 1", rec.Restarts)
			}
			var restored []int64
			for _, ev := range tr.Harvest() {
				if ev.Kind == trace.EvRestore && ev.Aux == 1 {
					restored = append(restored, ev.Epoch)
				}
			}
			if older := eps[len(eps)-2]; len(restored) != 1 || restored[0] != older {
				t.Fatalf("restored snapshots at epochs %v, want only the older one at %d", restored, older)
			}
		})
	}
}

// filesByMtime lists dir's snapshot files, newest first by name (the
// zero-padded epoch filename makes lexicographic order epoch order).
func filesByMtime(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}
