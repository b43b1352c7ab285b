package runtime

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// buildCounterCfg is buildCounter with a caller-supplied Config: the
// two-stage counter pipeline whose epoch-2 output ([113] for the standard
// feed) is the reference for crash-recovery chaos runs. Note the running
// total a counterVertex emits for *non-final* epochs depends on how far
// notifications lag behind data — only the final epoch is delay-invariant.
func buildCounterCfg(t *testing.T, cfg Config) (*Computation, *Input, *sink, *Probe) {
	t.Helper()
	return buildPipeline(t, cfg, func(ctx *Context) Vertex {
		return &counterVertex{ctx: ctx}
	})
}

// epochSumVertex sums values per epoch and emits each epoch's own sum at
// its notification: unlike counterVertex's running total, the output is
// invariant under any delivery delay the chaos transport injects, which
// makes it the right probe for output equivalence across fault schedules.
type epochSumVertex struct {
	ctx  *Context
	sums map[int64]int64
}

func (v *epochSumVertex) OnRecv(_ int, msg Message, t ts.Timestamp) {
	if v.sums == nil {
		v.sums = make(map[int64]int64)
	}
	if _, seen := v.sums[t.Epoch]; !seen {
		v.ctx.NotifyAt(t)
	}
	v.sums[t.Epoch] += msg.(int64)
}

func (v *epochSumVertex) OnNotify(t ts.Timestamp) {
	v.ctx.SendBy(0, v.sums[t.Epoch], t)
	delete(v.sums, t.Epoch)
}

func buildEpochSum(t *testing.T, cfg Config) (*Computation, *Input, *sink, *Probe) {
	t.Helper()
	return buildPipeline(t, cfg, func(ctx *Context) Vertex {
		return &epochSumVertex{ctx: ctx}
	})
}

func buildPipeline(t *testing.T, cfg Config, mk func(*Context) Vertex) (*Computation, *Input, *sink, *Probe) {
	t.Helper()
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	ctr := c.AddStage("counter", graph.RoleNormal, 0, mk, Pinned(0))
	c.Connect(in.Stage(), 0, ctr, func(Message) uint64 { return 0 }, codec.Int64())
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(ctr, 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	probe := c.NewProbe(snk)
	return c, in, s, probe
}

func feedCounter(in *Input) {
	in.OnNext(int64(1), int64(2))
	in.OnNext(int64(10))
	in.OnNext(int64(100))
	in.Close()
}

func checkEpochSums(t *testing.T, s *sink) {
	t.Helper()
	for e, want := range map[int64]string{0: "[3]", 1: "[10]", 2: "[100]"} {
		if got := fmt.Sprint(s.sorted(e)); got != want {
			t.Errorf("epoch %d output = %v, want %v", e, got, want)
		}
	}
}

// TestChaosSchedulesOutputEquivalent runs the counter pipeline under
// distinct fault schedules — latency+jitter, a straggler link, bandwidth
// throttling, a partition that heals, and uncombined progress frames under
// jitter — each with the safety monitor on and a watchdog as the
// never-hang backstop. Every schedule must complete with outputs identical
// to the fault-free reference.
func TestChaosSchedulesOutputEquivalent(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	base := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		SafetyChecks: true, Watchdog: 20 * time.Second}
	accNone := base
	accNone.Accumulation = AccNone
	schedules := []struct {
		name string
		cfg  Config
		ch   transport.ChaosConfig
	}{
		{"latency-jitter", base, transport.ChaosConfig{
			Seed:    seed,
			Default: transport.Fault{Latency: 2 * time.Millisecond, Jitter: 5 * time.Millisecond},
		}},
		{"straggler-link", base, transport.ChaosConfig{
			Seed: seed,
			Links: map[transport.Link]transport.Fault{
				{From: 0, To: 1}: {Latency: 60 * time.Millisecond},
			},
		}},
		{"throttle", base, transport.ChaosConfig{
			Seed:    seed,
			Default: transport.Fault{BytesPerSecond: 20_000},
		}},
		{"partition-heal", base, transport.ChaosConfig{
			Seed: seed,
			Partition: &transport.Partition{
				Groups: [][]int{{0}, {1}}, Start: 0, Duration: 300 * time.Millisecond,
			},
		}},
		{"accnone-jitter", accNone, transport.ChaosConfig{
			Seed:    seed,
			Default: transport.Fault{Latency: time.Millisecond, Jitter: 3 * time.Millisecond},
		}},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.Transport = transport.NewChaos(transport.NewMem(cfg.Processes), sc.ch)
			c, in, s, _ := buildEpochSum(t, cfg)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			feedCounter(in)
			if err := c.Join(); err != nil {
				t.Fatalf("chaos run failed: %v", err)
			}
			checkEpochSums(t, s)
		})
	}
}

// TestChaosCrashSurfacesFromJoin kills a process mid-computation: Join
// must return a descriptive error within a bounded time — never hang on
// frames that will never arrive.
func TestChaosCrashSurfacesFromJoin(t *testing.T) {
	progress.AuditCaps(t)
	ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
		Seed:    testutil.Seed(t),
		Default: transport.Fault{Latency: 2 * time.Millisecond},
	})
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		Transport: ct, Watchdog: 20 * time.Second}
	c, in, _, _ := buildCounterCfg(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2))
	ct.Crash(1)
	in.Close() // dropped by closed mailboxes after the abort; must not panic

	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "crashed") {
			t.Fatalf("Join = %v, want a crash error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Join hung after a process crash")
	}
}

// TestChaosCrashThenCheckpointRecovery is the crash+restore schedule: run
// two epochs, checkpoint, crash a process during epoch 2, then recover
// from the snapshot on a fresh cluster. The union of outputs observed
// before the crash and outputs of the recovered run must equal the
// fault-free reference — no lost epochs, no re-executed ones.
func TestChaosCrashThenCheckpointRecovery(t *testing.T) {
	progress.AuditCaps(t)
	ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
		Seed:    testutil.Seed(t),
		Default: transport.Fault{Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
	})
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		Transport: ct, Watchdog: 20 * time.Second}
	orig, in, s, probe := buildCounterCfg(t, cfg)
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
	in.OnNext(int64(100)) // epoch 2 is in flight when the crash hits
	ct.Crash(1)
	if err := orig.Join(); err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("Join = %v, want a crash error", err)
	}
	preCrash := s.sorted(2) // possibly empty, possibly already [113]

	// Recover on a fresh fault-free cluster and replay epoch 2.
	rec, rin, rs, _ := buildCounter(t)
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	if snap, err = UnmarshalCut(EncodeCut(snap)); err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rin.Epoch() != 2 {
		t.Fatalf("restored input epoch = %d, want 2", rin.Epoch())
	}
	rin.OnNext(int64(100))
	rin.Close()
	if err := rec.Join(); err != nil {
		t.Fatal(err)
	}
	// Union invariant vs the fault-free reference.
	union := map[int64]bool{}
	for _, v := range preCrash {
		union[v] = true
	}
	for _, v := range rs.sorted(2) {
		union[v] = true
	}
	if len(union) != 1 || !union[113] {
		t.Fatalf("epoch 2 union = %v, want exactly {113}", union)
	}
	if got := rs.sorted(0); len(got) != 0 {
		t.Fatalf("recovered run re-executed epoch 0: %v", got)
	}
}

// TestChaosPartitionWatchdogAbortThenReplayRecovery: an unhealed partition
// stalls the computation without any crash signal, so the watchdog is the
// detector that must fire. Recovery then replays the whole input on a
// fresh cluster (nothing was checkpointed) and must match the fault-free
// result — the degenerate "restore from nothing" end of the recovery
// spectrum that internal/supervise exercises automatically.
func TestChaosPartitionWatchdogAbortThenReplayRecovery(t *testing.T) {
	progress.AuditCaps(t)
	ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
		Seed:      testutil.Seed(t),
		Partition: &transport.Partition{Groups: [][]int{{0}, {1}}, Duration: time.Hour},
	})
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		Transport: ct, Watchdog: 300 * time.Millisecond}
	c, in, _, _ := buildCounterCfg(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	feedCounter(in)
	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("Join = %v, want a watchdog stall", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("partitioned computation hung past its watchdog")
	}
	if !c.Failed() || c.Err() == nil {
		t.Fatal("Failed()/Err() do not reflect the watchdog abort")
	}

	// Replay-from-scratch recovery on a healthy cluster.
	rec, rin, rs, _ := buildCounter(t)
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	feedCounter(rin)
	if err := rec.Join(); err != nil {
		t.Fatal(err)
	}
	if got := rs.sorted(2); len(got) != 1 || got[0] != 113 {
		t.Fatalf("recovered epoch 2 = %v, want [113]", got)
	}
}

// TestChaosFIFOViolationCaughtByMonitor is the negative test: a transport
// that breaks per-link FIFO attacks the one delivery assumption the
// progress protocol's safety proof needs. Under AccNone each occurrence
// update travels as its own frame, so reordering splits a causal
// [+child, -parent] pair across the wire — and the safety monitor must
// catch the resulting local-frontier overrun loudly instead of letting
// the computation deliver early notifications or terminate wrongly.
func TestChaosFIFOViolationCaughtByMonitor(t *testing.T) {
	progress.AuditCaps(t)
	base := testutil.Seed(t)
	// Whether a reorder materializes a *causally* bad interleaving depends
	// on queue occupancy, so drive a few derived seeds; the monitor must
	// catch at least one (in practice the first). A violation may also trip
	// the tracker's own precursor-count panic first — that is a correct
	// loud failure too, but the acceptance bar here is the monitor, so such
	// runs retry rather than pass.
	var outcomes []string
	for attempt := int64(0); attempt < 8; attempt++ {
		err := runFIFOViolation(t, base+attempt)
		if err != nil && strings.Contains(err.Error(), "safety violation") {
			t.Logf("monitor caught it: %v", err)
			return
		}
		outcomes = append(outcomes, fmt.Sprintf("seed %d: %v", base+attempt, err))
	}
	t.Fatalf("monitor never caught the FIFO violation:\n%s", strings.Join(outcomes, "\n"))
}

func runFIFOViolation(t *testing.T, seed int64) error {
	t.Helper()
	ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
		Seed:    seed,
		Default: transport.Fault{Latency: 15 * time.Millisecond, ReorderProb: 1},
	})
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccNone,
		Transport: ct, SafetyChecks: true, Watchdog: 5 * time.Second}
	c, in, _, _ := buildCounterCfg(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		in.OnNext(int64(e), int64(e+1), int64(e+2))
	}
	in.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("FIFO-violating run hung past its watchdog")
		return nil
	}
}

// TestVertexPanicUnderChaosDelay: a vertex panic must abort the cluster
// and surface from Join within a bounded timeout even while chaos-induced
// delivery delays keep frames in flight.
func TestVertexPanicUnderChaosDelay(t *testing.T) {
	progress.AuditCaps(t)
	ct := transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
		Seed:    testutil.Seed(t),
		Default: transport.Fault{Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond},
	})
	cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		Transport: ct, Watchdog: 20 * time.Second}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	bomb := c.AddStage("bomb", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &mapVertex{ctx: ctx, f: func(v int64) int64 {
			if v == 666 {
				panic("vertex bomb went off")
			}
			return v
		}}
	})
	c.Connect(in.Stage(), 0, bomb, hashPart, codec.Int64())
	s := newSink()
	snk := sinkStage(c, s, "sink")
	c.Connect(bomb, 0, snk, func(Message) uint64 { return 0 }, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1), int64(2), int64(3))
	in.OnNext(int64(666))
	in.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "vertex bomb went off") {
			t.Fatalf("Join = %v, want the vertex panic", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("vertex panic under delivery delay did not abort within the bound")
	}
}

// dropTransport silently discards frames the predicate selects — the
// pathology (lost frames without a crash signal) only a watchdog can turn
// into a loud failure.
type dropTransport struct {
	transport.Transport
	drop func(from, to int, kind transport.Kind) bool
}

func (d *dropTransport) Send(from, to int, kind transport.Kind, payload []byte) {
	if d.drop(from, to, kind) {
		return
	}
	d.Transport.Send(from, to, kind, payload)
}

// TestWatchdogAbortsSilentStall: when cross-process progress frames
// vanish, the cluster can never drain; the watchdog must abort with a
// descriptive error instead of hanging Join forever.
func TestWatchdogAbortsSilentStall(t *testing.T) {
	cfg := Config{Processes: 2, WorkersPerProcess: 1, Accumulation: AccLocalGlobal,
		Watchdog: 300 * time.Millisecond,
		Transport: &dropTransport{
			Transport: transport.NewMem(2),
			drop: func(from, to int, kind transport.Kind) bool {
				return from != to && kind == transport.KindProgress
			},
		}}
	c, in, _, _ := buildCounterCfg(t, cfg)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	feedCounter(in)
	errCh := make(chan error, 1)
	go func() { errCh <- c.Join() }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Fatalf("Join = %v, want a watchdog stall error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stalled computation did not trip the watchdog")
	}
}

// TestCheckpointAfterAbortErrors: a checkpoint rendezvous issued against
// an aborted computation must return the failure, not hang on worker acks
// that will never come.
func TestCheckpointAfterAbortErrors(t *testing.T) {
	c, in, _, _ := buildCounterCfg(t, Config{Processes: 1, WorkersPerProcess: 2,
		Accumulation: AccLocalGlobal})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(1))
	c.Abort(fmt.Errorf("operator pulled the plug"))
	done := make(chan error, 1)
	go func() {
		_, err := c.Checkpoint()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "abort") {
			t.Fatalf("Checkpoint after abort = %v, want an abort error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint hung on an aborted computation")
	}
	in.Close()
	if err := c.Join(); err == nil || !strings.Contains(err.Error(), "pulled the plug") {
		t.Fatalf("Join = %v, want the abort error", err)
	}
}

// TestChaosTransportProcessMismatch: config validation rejects an injected
// transport spanning the wrong number of processes.
func TestChaosTransportProcessMismatch(t *testing.T) {
	_, err := NewComputation(Config{Processes: 2, WorkersPerProcess: 1,
		Transport: transport.NewMem(3)})
	if err == nil || !strings.Contains(err.Error(), "transport spans") {
		t.Fatalf("err = %v, want a span mismatch error", err)
	}
}

// TestSafetyChecksCleanOnAllAccumulations: the monitor must produce no
// false positives on a healthy cluster under any accumulation mode and a
// mildly adversarial (but FIFO-preserving) transport.
func TestSafetyChecksCleanOnAllAccumulations(t *testing.T) {
	progress.AuditCaps(t)
	seed := testutil.Seed(t)
	for _, acc := range []Accumulation{AccNone, AccLocal, AccGlobal, AccLocalGlobal} {
		t.Run(acc.String(), func(t *testing.T) {
			cfg := Config{Processes: 2, WorkersPerProcess: 2, Accumulation: acc,
				SafetyChecks: true, Watchdog: 20 * time.Second,
				Transport: transport.NewChaos(transport.NewMem(2), transport.ChaosConfig{
					Seed:    seed,
					Default: transport.Fault{Jitter: 2 * time.Millisecond},
				})}
			c, in, s, _ := buildEpochSum(t, cfg)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			feedCounter(in)
			if err := c.Join(); err != nil {
				t.Fatalf("monitor false positive under %v: %v", acc, err)
			}
			checkEpochSums(t, s)
		})
	}
}
