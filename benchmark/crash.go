package main

import (
	"fmt"
	"sync"
	"time"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
)

const (
	// crashRecords is the supervised flow's epoch size: the first
	// crashRecords keys of each generated epoch. Smaller than the keycount
	// epochs so that a run of a few seconds sees dozens of cuts and crashes.
	crashRecords = 4096
	// cutEvery is the barrier-cut interval in epochs.
	cutEvery = 16
	// crashGapMin is the least number of epochs between crashes; the plan
	// (gen.go) adds up to a cut interval to reach its next point of the cut
	// cycle, so crashes are 4–19 epochs apart and a 20 s run sees about three
	// hundred — the recovery median needs that many samples to hold still
	// from run to run (README.md, spread table).
	crashGapMin = 4
	// crashLimitMS is the recovery limit: a crash whose next epoch takes
	// longer than this to commit counts as failed.
	crashLimitMS = 1000.0
)

// crashFlow is the keycount dataflow under supervise.Supervisor with
// selective single-worker rollback: 1 process × 2 workers, barrier cuts
// into a MemStore, the boxed feed through Supervisor.OnNext, delivery
// logging on. The sink store outlives incarnations, as an external system
// would.
type crashFlow struct {
	sup   *supervise.Supervisor
	sink  *checkSink
	ring  [][]int64
	boxed [][]runtime.Message
	tp    *probes

	mu    sync.Mutex
	comp  *runtime.Computation // latest incarnation
	probe *runtime.Probe
	next  int64
}

// crashInputs generates the supervised flow's epochs, typed for the oracle
// and boxed for Supervisor.OnNext.
func crashInputs(seed int64) (ring [][]int64, boxed [][]runtime.Message) {
	ring = zipfRing(seed)
	boxed = make([][]runtime.Message, len(ring))
	for i, keys := range ring {
		keys = keys[:crashRecords]
		ring[i] = keys
		boxed[i] = make([]runtime.Message, len(keys))
		for j, k := range keys {
			boxed[i][j] = k
		}
	}
	return ring, boxed
}

func startCrash(ring [][]int64, boxed [][]runtime.Message, traced bool) (*crashFlow, error) {
	f := &crashFlow{ring: ring, boxed: boxed}
	scfg := supervise.Config{Selective: true, CheckpointEvery: cutEvery, Store: supervise.NewMemStore(3)}
	f.sink = newCheckSink(ringEpochs)
	var store lib.SinkStore = f.sink
	if traced {
		f.tp = newProbes()
		scfg.Tracer = f.tp.tracer
		store = &timedStore{inner: f.sink, log: f.tp.log}
	}
	scfg.Factory = func() (*supervise.Build, error) {
		cfg := runtime.Config{Processes: 1, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
		wire, sink := pairGob(), pairGob()
		if traced {
			cfg.Tracer = f.tp.tracer
			wire, sink = f.tp.wireCod, f.tp.sinkCod
		}
		s, err := lib.NewScope(cfg)
		if err != nil {
			return nil, err
		}
		in, st := keycountGraph(s, store, wire, sink)
		probe := s.C.NewProbe(st)
		f.mu.Lock()
		f.comp, f.probe = s.C, probe
		f.mu.Unlock()
		return &supervise.Build{Comp: s.C, Inputs: map[string]*runtime.Input{"keys": in.Raw()}, Probe: probe}, nil
	}
	sup, err := supervise.New(scfg)
	if err != nil {
		return nil, err
	}
	f.sup = sup
	if err := f.feed(); err != nil {
		return nil, err
	}
	if err := f.wait(0); err != nil {
		return nil, fmt.Errorf("first epoch: %w", err)
	}
	return f, nil
}

func (f *crashFlow) current() (*runtime.Computation, *runtime.Probe) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.comp, f.probe
}

func (f *crashFlow) feed() error {
	err := f.sup.OnNext("keys", f.boxed[f.next%ringEpochs]...)
	f.next++
	return err
}

// wait blocks until epoch e is committed at the sink. A probe released by a
// torn-down incarnation (a full restart) is retried on its successor.
func (f *crashFlow) wait(e int64) error {
	for tries := 0; ; tries++ {
		_, probe := f.current()
		err := probe.WaitForErr(e)
		if err == nil {
			return nil
		}
		if tries > 100 {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// crashSample is one injected crash.
type crashSample struct {
	recoverMS float64 // CrashWorker call → the next fed epoch committed
	reviveMS  float64 // the supervisor's own restore+replay figure
	stallMS   float64 // largest gap between consecutive commits around the crash

	crashed, revived, caughtUp int64 // instants, for the span tree
}

// job feeds epochs closed-loop for d, crashing worker 1 at seed-chosen
// epochs when crash is set.
// It returns the crash samples and the committed-records rate of each
// rateWindow, crash stalls included.
func (f *crashFlow) job(seed int64, d time.Duration, crash bool) (samples []crashSample, rates []float64, err error) {
	plan := newCrashPlan(seed)
	nextCrash := plan.next(f.next)
	start := now()
	end := start + int64(d)
	completed := func() int64 {
		_, probe := f.current()
		return probe.Completed()
	}
	sampler := newRateSampler(start, completed(), crashRecords)
	for {
		t := now()
		sampler.tick(t, completed)
		if t >= end && (!crash || len(samples) > 0) {
			break // a crash job always sees at least one crash
		}
		if e := f.next - maxInFlight; e >= 0 {
			if err := f.wait(e); err != nil {
				return nil, nil, err
			}
		}
		if err := f.feed(); err != nil {
			return nil, nil, err
		}
		if !crash || f.next-1 != nextCrash {
			continue
		}
		nextCrash = plan.next(nextCrash)
		s, err := f.crashOnce()
		if err != nil {
			return nil, nil, err
		}
		samples = append(samples, s)
	}
	if err := f.wait(f.next - 1); err != nil {
		return nil, nil, err
	}
	return samples, sampler.finish(now(), completed()), nil
}

// crashOnce drains what is in flight, kills worker 1, lets the supervisor
// revive it, feeds the next epoch and times how long the sink takes to
// commit it. The drain is deliberate: at the commit that introduced this
// benchmark, crashing a worker while epochs are in flight occasionally leaves
// the revived computation waiting forever (README.md, findings), and a
// benchmark must run where no operation fails.
func (f *crashFlow) crashOnce() (crashSample, error) {
	var s crashSample
	if err := f.wait(f.next - 1); err != nil {
		return s, err
	}
	comp, probe := f.current()
	before := f.sup.Recovery()
	lastDone, lastT := probe.Completed(), now()
	t0 := now()
	if err := comp.CrashWorker(1); err != nil {
		return s, err
	}
	// Feeding a parked worker would race its log replay; resume once the
	// revival (or the full restart it fell back to) has landed.
	for {
		rec := f.sup.Recovery()
		if rec.SelectiveRevivals > before.SelectiveRevivals || rec.Restarts > before.Restarts {
			s.reviveMS = ms(int64(rec.LastRecovery))
			s.revived = now()
			break
		}
		if now()-t0 > int64(10*time.Second) {
			return s, fmt.Errorf("worker 1 never revived: %+v", rec)
		}
		if d := probe.Completed(); d != lastDone {
			s.stallMS = max(s.stallMS, ms(now()-lastT))
			lastDone, lastT = d, now()
		}
		time.Sleep(20 * time.Microsecond)
	}
	if err := f.feed(); err != nil {
		return s, err
	}
	if err := f.wait(f.next - 1); err != nil {
		return s, err
	}
	s.crashed, s.caughtUp = t0, now()
	s.recoverMS = ms(s.caughtUp - t0)
	s.stallMS = max(s.stallMS, ms(s.caughtUp-lastT))
	return s, nil
}

func (f *crashFlow) finish() error {
	if err := f.sup.CloseInput("keys"); err != nil {
		return err
	}
	if err := f.sup.Wait(); err != nil {
		return err
	}
	return f.sink.verify(f.next, f.ring, pairGob())
}

func runCrashReplay(rc runConfig) (*outcome, error) {
	if rc.traced {
		return traceCrashReplay(rc)
	}
	o := newOutcome(endToEnd)
	ring, boxed := crashInputs(rc.seed)
	secs, f, err := timedSetups(
		func() (*crashFlow, error) { return startCrash(ring, boxed, false) }, (*crashFlow).finish)
	if err != nil {
		return nil, err
	}
	first := f.next
	samples, rates, err := f.job(rc.seed, rc.span(1), true)
	if err != nil {
		return nil, err
	}
	fed := f.next - first
	rec := f.sup.Recovery()
	if err := f.finish(); err != nil {
		return nil, err
	}
	var recoverMS []float64
	for _, s := range samples {
		recoverMS = append(recoverMS, s.recoverMS)
		if s.recoverMS > crashLimitMS {
			o.failed++
		}
	}
	o.attempted = f.next
	o.endToEnd(secs, rates, recoverMS)
	o.notef("%d epochs, %d crashes: %d selective revivals, %d full restarts, %d cuts (%d aborted)",
		fed, len(samples), rec.SelectiveRevivals, rec.Restarts, rec.Cuts, rec.CutAborts)
	return o, nil
}
