// Package supervise makes a timely dataflow computation self-healing: a
// Supervisor owns the computation's lifecycle, takes periodic consistent
// snapshots, detects failures (a lost frame, a crash, the watchdog), and
// on failure rebuilds the graph, restores the latest decodable snapshot,
// and replays the logged inputs — rollback recovery over logical time, in
// the spirit of the Falkirk Wheel (Isard & Abadi): the epoch structure
// tells recovery exactly which inputs to replay and which results are
// already durable.
//
// Snapshots are asynchronous barrier cuts: the supervisor injects barrier
// markers at the input stages and the cut assembles while traffic keeps
// flowing — no quiesce, no pause (see runtime/barrier.go).
// With Config.Selective, a single-worker failure is repaired by selective
// rollback — only the crashed worker is restored from the latest cut and
// replayed from its delivery log; healthy workers never stop.
//
// The contract with the application is the paper's: checkpointed vertex
// state plus replayed input epochs reproduce the lost portion of the
// computation. Outputs for epochs between the restored snapshot and the
// failure point are produced again — exactly-once delivery to the outside
// world is the output consumer's job (keyed by epoch, replays are
// idempotent).
package supervise

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"naiad/internal/runtime"
	"naiad/internal/trace"
)

// Build is one incarnation of the supervised dataflow, produced by the
// Factory: a constructed-but-not-Started computation, its inputs by name,
// and a probe on the output stage (the supervisor uses it to confirm
// recovery caught up).
type Build struct {
	Comp   *runtime.Computation
	Inputs map[string]*runtime.Input
	Probe  *runtime.Probe
}

// Factory constructs a fresh incarnation of the dataflow. It runs once at
// New and once per restart; it must return an unstarted computation (the
// supervisor calls Start) and must build the same graph every time —
// recovery restores snapshots taken from a previous incarnation into the
// graph this returns. Each incarnation needs its own transport: the old
// one is closed when its computation is torn down.
type Factory func() (*Build, error)

// Config parameterizes a Supervisor.
type Config struct {
	// Factory rebuilds the dataflow; required.
	Factory Factory
	// Store persists snapshots; defaults to NewMemStore(3).
	Store SnapshotStore
	// CheckpointEvery is the epoch interval between checkpoints (default
	// 1: every completed epoch boundary). Larger intervals trade
	// checkpoint overhead for longer replay after a failure.
	CheckpointEvery int64
	// MaxRestarts bounds the restart attempts within one recovery episode
	// (default 3); when they are exhausted the supervisor enters the
	// terminal gave-up state and Wait returns ErrGaveUp.
	MaxRestarts int
	// Backoff is the delay before the second restart attempt (default
	// 50ms), doubling per attempt up to MaxBackoff (default 2s), with
	// ±50% jitter. The first attempt is immediate.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed drives the backoff jitter PRNG (default 1).
	Seed int64
	// CutSettleTimeout bounds every barrier cut's lifetime (default 1s).
	// A cut normally settles in microseconds; one that outlives the
	// timeout has lost a marker (a lossy network), and leaving it pending
	// would block all future checkpoints — and any deferred CloseInput —
	// forever. The stale cut is aborted: a lost snapshot, never lost data.
	CutSettleTimeout time.Duration
	// Selective enables single-worker rollback: the runtime keeps per-worker
	// delivery logs, and a simulated single-worker crash
	// (runtime.Computation.CrashWorker) is repaired by restoring only that
	// worker from the latest complete cut and replaying its log — healthy
	// workers keep running.
	Selective bool
	// Tracer, when non-nil, receives supervisor-level recovery events:
	// EvCheckpoint/EvRestore with Aux=1 (snapshot persisted / restored) and
	// EvRestart when a recovery episode completes. Pass the same Tracer to
	// the runtime.Config the Factory builds to interleave these with the
	// runtime's own events on one clock.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = NewMemStore(3)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CutSettleTimeout <= 0 {
		c.CutSettleTimeout = time.Second
	}
	return c
}

// ErrGaveUp is wrapped into Wait's error when recovery exhausted its
// restart budget.
var ErrGaveUp = errors.New("supervise: gave up")

// ErrDone is returned by OnNext and CloseInput after the supervised
// computation has already completed cleanly.
var ErrDone = errors.New("supervise: computation complete")

type cmdKind uint8

const (
	cmdFeed cmdKind = iota
	cmdClose
)

type command struct {
	kind  cmdKind
	input string
	batch *runtime.Batch // cmdFeed: one reference, handed to the log
}

type supEventKind uint8

const (
	evCutDone  supEventKind = iota // a barrier cut assembled completely
	evCutFail                      // a barrier cut was poisoned or aborted
	evCutStale                     // the settle timer expired on a pending cut
	evCrash                        // a single worker parked (Selective mode)
)

// supEvent carries a runtime callback onto the supervisor's run loop. gen
// tags the incarnation that produced it: callbacks from a torn-down
// computation race with recovery, and a stale generation must be ignored.
type supEvent struct {
	gen    int
	kind   supEventKind
	cut    int64
	snap   *runtime.CutSnapshot
	err    error
	worker int
}

// Supervisor owns a computation's lifecycle: feed it through OnNext /
// CloseInput, wait for the terminal state with Wait. All state transitions
// happen on a single internal goroutine, so the public methods are safe
// for concurrent use.
type Supervisor struct {
	cfg Config
	rm  *runtime.RecoveryMetrics

	cmdCh  chan command
	joinCh chan error
	evCh   chan supEvent
	doneCh chan struct{}

	inputs map[string]bool // the graph's input names, fixed at New

	// Run-loop-owned state; never touched from public methods.
	build    *Build
	log      map[string]map[int64]*runtime.Batch // input → epoch → batch
	fed      map[string]int64                    // epochs fed per input
	closedIn map[string]bool
	// closeDeferred holds inputs the application has closed while a barrier
	// cut covering their final epochs was still possible or in flight; the
	// actual Close is applied once the cut settles.
	closeDeferred map[string]bool
	lastCP        int64
	rng           *rand.Rand

	// Barrier-cut state. gen counts incarnations;
	// cutSeq issues monotone cut ids across them. pendingCut is the one cut
	// in flight (0 = none) and pendingCutEpoch the input epoch it was
	// injected at. lastCut is the newest complete cut, kept in memory so a
	// selective revival can hand it to the parked worker.
	gen             int
	cutSeq          int64
	pendingCut      int64
	pendingCutEpoch int64
	settleArmed     int64 // cut id with a settle timer running, 0 = none
	lastCut         *runtime.CutSnapshot
	lastCutID       int64

	errMu    sync.Mutex
	finalErr error
}

// New builds and starts the first incarnation and begins supervising it.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("supervise: Config.Factory is required")
	}
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:           cfg,
		rm:            &runtime.RecoveryMetrics{},
		cmdCh:         make(chan command, 64),
		joinCh:        make(chan error, 1),
		evCh:          make(chan supEvent, 16),
		doneCh:        make(chan struct{}),
		inputs:        make(map[string]bool),
		log:           make(map[string]map[int64]*runtime.Batch),
		fed:           make(map[string]int64),
		closedIn:      make(map[string]bool),
		closeDeferred: make(map[string]bool),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}
	build, err := s.spawn()
	if err != nil {
		return nil, err
	}
	s.build = build
	for name := range build.Inputs {
		s.inputs[name] = true
		s.log[name] = make(map[int64]*runtime.Batch)
		// Every input participates in the alignment guard from epoch 0: an
		// input that has never been fed must hold minFed at 0, or
		// maybeCheckpoint would cut at an epoch boundary the unfed input
		// never reached.
		s.fed[name] = 0
	}
	go s.monitor(build.Comp)
	go s.run()
	return s, nil
}

// spawn runs the factory, validates the build, and starts the computation.
func (s *Supervisor) spawn() (*Build, error) {
	build, err := s.cfg.Factory()
	if err != nil {
		return nil, fmt.Errorf("supervise: factory: %w", err)
	}
	if build == nil || build.Comp == nil || build.Probe == nil || len(build.Inputs) == 0 {
		return nil, fmt.Errorf("supervise: factory must return a computation, at least one input, and a probe")
	}
	build.Comp.SetRecoveryMetrics(s.rm)
	// Handlers must be installed before Start. They run on runtime
	// goroutines; forwarding through evCh serializes them onto the run loop,
	// and the gen tag lets the loop drop callbacks from a torn-down
	// incarnation. The doneCh case keeps a late callback from blocking
	// forever after the supervisor has finished.
	s.gen++
	gen := s.gen
	build.Comp.SetCutHandler(func(cut int64, snap *runtime.CutSnapshot, err error) {
		ev := supEvent{gen: gen, kind: evCutDone, cut: cut, snap: snap}
		if err != nil {
			ev.kind, ev.err = evCutFail, err
		}
		select {
		case s.evCh <- ev:
		case <-s.doneCh:
		}
	})
	if s.cfg.Selective {
		build.Comp.SetWorkerCrashHandler(func(worker int) {
			select {
			case s.evCh <- supEvent{gen: gen, kind: evCrash, worker: worker}:
			case <-s.doneCh:
			}
		})
	}
	if err := build.Comp.Start(); err != nil {
		return nil, fmt.Errorf("supervise: start: %w", err)
	}
	return build, nil
}

// OnNext feeds one epoch of records to the named input, mirroring
// runtime.Input.OnNext. The records are copied once, into the typed batch
// (runtime.BatchOf) that is both logged for replay and fed to the
// computation, so the caller may reuse its buffer: a mutated buffer must
// not rewrite what a later replay feeds. Feeding is asynchronous —
// delivery failures surface through recovery, not through this call.
func (s *Supervisor) OnNext(input string, records ...runtime.Message) error {
	if !s.inputs[input] {
		return fmt.Errorf("supervise: unknown input %q", input)
	}
	return s.send(command{kind: cmdFeed, input: input, batch: runtime.BatchOf(records)})
}

// CloseInput marks the named input complete. Once every input is closed
// and the computation drains, Wait returns.
func (s *Supervisor) CloseInput(input string) error {
	if !s.inputs[input] {
		return fmt.Errorf("supervise: unknown input %q", input)
	}
	return s.send(command{kind: cmdClose, input: input})
}

// send enqueues a command unless the supervisor is already terminal. The
// doneCh check comes first: cmdCh is buffered, so a bare select could keep
// accepting commands into the void after the run loop has exited.
func (s *Supervisor) send(cmd command) error {
	select {
	case <-s.doneCh:
		return s.terminalErr()
	default:
	}
	select {
	case s.cmdCh <- cmd:
		return nil
	case <-s.doneCh:
		return s.terminalErr()
	}
}

// terminalErr is what commands get after the supervisor has stopped: the
// fatal error if recovery gave up, ErrDone after a clean completion.
func (s *Supervisor) terminalErr() error {
	if err := s.err(); err != nil {
		return err
	}
	return ErrDone
}

// Wait blocks until the computation completes (nil), or recovery gives up
// (ErrGaveUp, wrapped with the last failure).
func (s *Supervisor) Wait() error {
	<-s.doneCh
	return s.err()
}

// Recovery returns a snapshot of the fault-tolerance counters, shared
// across every incarnation.
func (s *Supervisor) Recovery() runtime.RecoverySnapshot { return s.rm.Snapshot() }

func (s *Supervisor) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.finalErr
}

// monitor watches one incarnation: Join blocks until the computation
// drains or aborts, and its result is the supervisor's failure signal.
func (s *Supervisor) monitor(comp *runtime.Computation) {
	s.joinCh <- comp.Join()
}

// run is the supervisor's single-threaded state machine: it applies feed
// and close commands, takes checkpoints at epoch boundaries, and reacts to
// the monitored computation's exit.
func (s *Supervisor) run() {
	for {
		select {
		case cmd := <-s.cmdCh:
			s.handle(cmd)
		case ev := <-s.evCh:
			s.handleEvent(ev)
		case err := <-s.joinCh:
			if err == nil {
				s.finish(nil)
				return
			}
			if !s.recover(err) {
				return // finish() already called by recover
			}
			// The failed incarnation's in-flight cut died with it. Give the
			// healthy rebuild a snapshot at the current boundary, then apply
			// closes the failure interrupted.
			s.maybeCheckpoint()
			s.applyDeferredCloses()
		}
	}
}

func (s *Supervisor) finish(err error) {
	s.errMu.Lock()
	s.finalErr = err
	s.errMu.Unlock()
	close(s.doneCh)
}

func (s *Supervisor) handle(cmd command) {
	if s.closedIn[cmd.input] || s.closeDeferred[cmd.input] {
		// Feeding or re-closing a closed input is a no-op.
		if cmd.batch != nil {
			cmd.batch.Release()
		}
		return
	}
	in := s.build.Inputs[cmd.input]
	switch cmd.kind {
	case cmdFeed:
		// Log first: if the computation dies mid-feed, replay still has
		// the batch. The log keeps cmd.batch's reference (the supervisor's
		// own copy, made in OnNext, so it cannot alias a caller buffer); the
		// computation gets one more, and only reads the batch.
		s.log[cmd.input][s.fed[cmd.input]] = cmd.batch
		s.fed[cmd.input]++
		feed(in, cmd.batch)
		s.maybeCheckpoint()
	case cmdClose:
		// Hold the close while a cut covering the input's final epochs is in
		// flight or still possible: closing
		// drains the computation, and workers that exit mid-alignment would
		// strand the cut. If the final cut has not been injected yet (e.g.
		// the previous one was aborted and no feed followed), inject it now
		// — no later feed will. The close is applied when the cut settles;
		// the settle timer bounds the wait on a lossy network.
		if _, ready := s.cutBoundary(); ready || s.pendingCut != 0 {
			s.closeDeferred[cmd.input] = true
			if s.pendingCut == 0 {
				s.maybeCheckpoint()
			}
			s.applyDeferredCloses()
			return
		}
		s.closedIn[cmd.input] = true
		in.Close()
	}
}

// cutBoundary returns the epoch boundary a cut would be injected at right
// now, and whether one may be: no cut pending, the boundary at least
// CheckpointEvery past the last persisted snapshot, and every input fed up
// to the same epoch — a snapshot taken while one input is fed ahead of
// another would capture the leading input's epochs half-processed, and the
// restore/replay protocol is keyed by a single epoch. s.fed covers every
// input from New (never-fed inputs pin the boundary at 0). Single-input
// graphs are always aligned.
func (s *Supervisor) cutBoundary() (int64, bool) {
	minFed, maxFed := int64(-1), int64(-1)
	for _, f := range s.fed {
		if minFed < 0 || f < minFed {
			minFed = f
		}
		if f > maxFed {
			maxFed = f
		}
	}
	return minFed, s.pendingCut == 0 && minFed == maxFed && minFed > 0 &&
		minFed-s.lastCP >= s.cfg.CheckpointEvery
}

// maybeCheckpoint decides, after each feed, whether to inject an
// asynchronous barrier at the input stages; skipped once any input has
// closed (the computation is draining toward completion). There is no
// Probe.WaitFor: the cut assembles downstream while the supervisor keeps
// feeding — the whole point of the barrier design. At most one cut is in
// flight, and every cut's lifetime is bounded by the settle timer: a
// healthy cut assembles in microseconds, so one that outlives
// CutSettleTimeout has lost a marker and is aborted to unblock the next
// boundary. The feed rate deliberately plays no part — a feeder that
// outruns cut assembly must not get its healthy cuts aborted.
func (s *Supervisor) maybeCheckpoint() {
	for _, closed := range s.closedIn {
		if closed {
			return
		}
	}
	epoch, ready := s.cutBoundary()
	if !ready {
		return
	}
	s.cutSeq++
	s.pendingCut = s.cutSeq
	s.pendingCutEpoch = epoch
	if err := s.build.Comp.InjectBarrier(s.cutSeq, epoch); err != nil {
		s.pendingCut = 0 // e.g. the computation is already failed
		return
	}
	s.armSettleTimer()
}

// applyDeferredCloses closes inputs whose Close was held back for an
// in-flight cut, once no cut is pending anymore. While one still is, the
// settle timer armed at its injection bounds the wait: a cut that never
// settles — markers eaten by the network — cannot block the closes
// forever.
func (s *Supervisor) applyDeferredCloses() {
	if len(s.closeDeferred) == 0 || s.pendingCut != 0 {
		return
	}
	for name := range s.closeDeferred {
		delete(s.closeDeferred, name)
		s.closedIn[name] = true
		s.build.Inputs[name].Close()
	}
}

// armSettleTimer starts (at most once per cut) a timer that aborts the
// pending cut if it has not settled within CutSettleTimeout. The timer
// fires through evCh with the incarnation and cut id pinned, so a cut that
// settled — or a later incarnation — ignores it; aborting a genuinely
// stalled cut costs the snapshot, never data.
func (s *Supervisor) armSettleTimer() {
	if s.pendingCut == 0 || s.settleArmed == s.pendingCut {
		return
	}
	s.settleArmed = s.pendingCut
	gen, cut := s.gen, s.pendingCut
	time.AfterFunc(s.cfg.CutSettleTimeout, func() {
		select {
		case s.evCh <- supEvent{gen: gen, kind: evCutStale, cut: cut}:
		case <-s.doneCh:
		}
	})
}

// handleEvent applies one runtime callback on the run loop. Events from a
// previous incarnation are dropped: the computation that produced them is
// gone and their cut ids or worker states mean nothing to the current one.
func (s *Supervisor) handleEvent(ev supEvent) {
	if ev.gen != s.gen {
		return
	}
	switch ev.kind {
	case evCutDone:
		if ev.cut != s.pendingCut {
			return // a cut we already gave up on
		}
		epoch := s.pendingCutEpoch
		s.pendingCut = 0
		data := runtime.EncodeCut(ev.snap)
		if err := s.cfg.Store.Save(epoch, data); err != nil {
			// Keep the previous baseline: AbortCut merges the cut's delivery-
			// log segments back so selective revival from the older cut still
			// has a contiguous log.
			s.build.Comp.AbortCut(ev.cut)
			s.rm.CutAborts.Add(1)
			return
		}
		s.lastCP = epoch
		s.lastCut = ev.snap
		s.lastCutID = ev.cut
		// Retiring prunes delivery-log segments below this cut and makes the
		// workers drop any late duplicate markers for it.
		s.build.Comp.RetireCut(ev.cut)
		s.rm.Checkpoints.Add(1)
		s.rm.CheckpointBytes.Add(int64(len(data)))
		s.rm.Cuts.Add(1)
		s.rm.CutBytes.Add(int64(len(data)))
		if tr := s.cfg.Tracer; tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvCheckpoint, Aux: 1, Worker: -1, Stage: -1, Loc: -1,
				Epoch: epoch, N: int64(len(data)),
			})
		}
		s.pruneLog()
		// Pipeline: feeds kept flowing while this cut assembled, so the
		// inputs may already sit CheckpointEvery past it — start the next
		// cut immediately instead of waiting for the next feed. Then apply
		// any Close held back for the settled cut (a no-op if a new cut
		// just started; the next settle re-checks).
		s.maybeCheckpoint()
		s.applyDeferredCloses()
	case evCutFail:
		if ev.cut != s.pendingCut {
			return
		}
		s.pendingCut = 0
		s.rm.CutAborts.Add(1)
		// The poisoning worker settled the cut, but other workers may still
		// be aligning on it and holding delivery-log segments open. AbortCut
		// broadcasts the cleanup; it is idempotent on the already-settled
		// cut state.
		s.build.Comp.AbortCut(ev.cut)
		// Deferred closes are applied without retrying the cut: under a
		// network that keeps eating markers, retry-on-fail would spin
		// forever while the application waits on Wait. The next feed (if
		// any) retries naturally.
		s.applyDeferredCloses()
	case evCutStale:
		// The settle timer expired. AbortCut is idempotent: if the cut
		// settled in the meantime this is a no-op; otherwise the poison
		// comes back as evCutFail, which releases the deferred closes.
		if ev.cut == s.pendingCut {
			s.build.Comp.AbortCut(ev.cut)
		}
	case evCrash:
		s.reviveWorker(ev.worker)
	}
}

// reviveWorker repairs a single parked worker by selective rollback:
// restore only that worker from the newest complete cut (nil means segment
// zero of its delivery log — replay from birth) and replay its logged
// deliveries. Healthy workers never stop. If revival fails, fall back to
// the full teardown/rebuild path by aborting the computation.
func (s *Supervisor) reviveWorker(worker int) {
	t0 := time.Now()
	if s.pendingCut != 0 {
		// The crash tore any in-flight alignment; abandon the cut before
		// reviving so the worker's merged log segments stay contiguous.
		s.build.Comp.AbortCut(s.pendingCut)
		s.pendingCut = 0
		s.rm.CutAborts.Add(1)
	}
	if err := s.build.Comp.ReviveWorker(worker, s.lastCut); err != nil {
		s.build.Comp.Abort(fmt.Errorf("supervise: selective revival of worker %d: %w", worker, err))
		return // the join monitor delivers the failure; recover() takes over
	}
	s.rm.SelectiveRevivals.Add(1)
	s.rm.LastRecoveryNanos.Store(time.Since(t0).Nanoseconds())
	if tr := s.cfg.Tracer; tr != nil {
		tr.Emit(trace.Event{
			Kind: trace.EvRestart, Aux: -1, Worker: int32(worker), Stage: -1, Loc: -1,
			Epoch: s.lastCutID, Dur: time.Since(t0).Nanoseconds(),
		})
	}
	// The abandoned cut will never settle: retake it at the current boundary
	// and release the closes that were waiting on it.
	s.maybeCheckpoint()
	s.applyDeferredCloses()
}

// pruneLog drops replay batches below the oldest retained snapshot: no
// recovery can start earlier than that, so they can never be replayed.
func (s *Supervisor) pruneLog() {
	eps, err := s.cfg.Store.Epochs()
	if err != nil || len(eps) == 0 {
		return
	}
	oldest := eps[0]
	for _, byEpoch := range s.log {
		for e, b := range byEpoch {
			if e < oldest {
				b.Release()
				delete(byEpoch, e)
			}
		}
	}
}

// recover is the rollback-recovery loop: tear down is already done (Join
// returned), so each attempt rebuilds the graph, restores the newest
// snapshot that decodes cleanly, replays the logged epochs past it, and
// waits for the computation to catch up to the pre-failure frontier.
// Returns false after exhausting the restart budget (terminal gave-up).
func (s *Supervisor) recover(cause error) bool {
	t0 := time.Now()
	// Barrier state died with the incarnation: any in-flight cut is gone,
	// and the in-memory lastCut belongs to worker delivery logs that no
	// longer exist. The next incarnation rebuilds its baseline from the
	// store (restoreInto) and from fresh cuts; a selective revival before
	// the first new cut falls back to the worker's restored segment zero.
	s.pendingCut = 0
	s.lastCut = nil
	s.lastCutID = 0
	for attempt := 1; attempt <= s.cfg.MaxRestarts; attempt++ {
		if attempt > 1 {
			s.backoff(attempt)
		}
		build, err := s.spawn()
		if err != nil {
			cause = err
			continue
		}
		if err := s.restoreInto(build); err != nil {
			cause = err
			build.Comp.Abort(err)
			build.Comp.Join()
			continue
		}
		// Replay the logged epochs past each input's restored position,
		// then re-close inputs the application had closed. A missing log
		// entry means the restore point fell below the pruned prefix (every
		// newer snapshot was unreadable): fail the attempt loudly rather
		// than silently feeding empty epochs in place of lost batches.
		if err := s.replayInto(build); err != nil {
			cause = err
			build.Comp.Abort(err)
			build.Comp.Join()
			continue
		}
		// Catch up to the pre-failure frontier before declaring recovery
		// done. WaitFor also unblocks if this incarnation aborts; Failed
		// disambiguates.
		minFed := int64(-1)
		for _, f := range s.fed {
			if minFed < 0 || f < minFed {
				minFed = f
			}
		}
		if minFed > 0 {
			build.Probe.WaitFor(minFed - 1)
		}
		if build.Comp.Failed() {
			cause = build.Comp.Err()
			build.Comp.Join()
			continue
		}
		s.build = build
		s.rm.Restarts.Add(1)
		s.rm.LastRecoveryNanos.Store(time.Since(t0).Nanoseconds())
		if tr := s.cfg.Tracer; tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvRestart, Aux: int32(attempt), Worker: -1,
				Stage: -1, Loc: -1, Epoch: minFed,
				Dur: time.Since(t0).Nanoseconds(),
			})
		}
		go s.monitor(build.Comp)
		return true
	}
	s.finish(fmt.Errorf("%w after %d restart attempts: last failure: %v",
		ErrGaveUp, s.cfg.MaxRestarts, cause))
	return false
}

// restoreInto loads the newest snapshot that decodes and validates
// cleanly into the freshly started build. Corrupt snapshots fall back to
// older retained ones; no snapshot at all means recovery restarts from
// epoch 0 with a full replay.
func (s *Supervisor) restoreInto(build *Build) error {
	eps, err := s.cfg.Store.Epochs()
	if err != nil {
		return fmt.Errorf("supervise: snapshot store: %w", err)
	}
	for i := len(eps) - 1; i >= 0; i-- {
		data, err := s.cfg.Store.Load(eps[i])
		if err != nil {
			continue
		}
		// Corrupt bytes and other format versions (runtime.ErrCutVersion)
		// are equally unusable: fall back past them.
		cut, err := runtime.UnmarshalCut(data)
		if err != nil {
			continue
		}
		// A restore the graph rejects (UnknownStageError) is as unusable as
		// a corrupt snapshot, but the rendezvous may have touched vertex
		// state — don't risk a half-restored build, fail the attempt.
		if err := build.Comp.Restore(cut); err != nil {
			return err
		}
		if tr := s.cfg.Tracer; tr != nil {
			tr.Emit(trace.Event{
				Kind: trace.EvRestore, Aux: 1, Worker: -1, Stage: -1, Loc: -1,
				Epoch: eps[i], N: int64(len(data)),
			})
		}
		return nil
	}
	// No snapshots yet, or every retained one was unreadable: recover from
	// scratch with a full replay. The log still covers the full history iff
	// nothing was pruned; pruning follows successful saves only, so a store
	// whose every snapshot is corrupt implies an external fault, and
	// replayInto fails the attempt loudly if the log no longer reaches back.
	return nil
}

// replayInto feeds each input the logged epochs past its restored
// position and re-closes inputs the application had closed. Every epoch in
// [restored, fed) must still be in the replay log — pruning only discards
// epochs below the oldest retained snapshot, so a gap can only mean the
// restore point fell below the pruned prefix (e.g. every newer snapshot
// was unreadable and restoreInto fell back further than the log covers).
func (s *Supervisor) replayInto(build *Build) error {
	for name, in := range build.Inputs {
		for e := in.Epoch(); e < s.fed[name]; e++ {
			b, ok := s.log[name][e]
			if !ok {
				return fmt.Errorf(
					"supervise: replay log pruned below restore point (epoch %d of input %q)",
					e, name)
			}
			feed(in, b)
		}
		if s.closedIn[name] {
			in.Close()
		}
	}
	return nil
}

// feed supplies one logged epoch to an input and advances it. The log keeps
// its reference: a later full restart replays the same batch.
func feed(in *runtime.Input, b *runtime.Batch) {
	in.SendBatch(b.Retain())
	in.Advance()
}

// backoff sleeps the jittered exponential delay before a restart attempt
// (attempt ≥ 2).
func (s *Supervisor) backoff(attempt int) {
	d := s.cfg.Backoff << (attempt - 2)
	if d <= 0 || d > s.cfg.MaxBackoff {
		d = s.cfg.MaxBackoff
	}
	time.Sleep(d/2 + time.Duration(s.rng.Int63n(int64(d))))
}
