package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/trace"
	"naiad/internal/transport"
)

const (
	// pacedRPSMem and pacedRPSTCP are the open-loop rates of the paced
	// phase, frozen at about half the saturate median measured on the commit
	// that introduced the benchmark (README.md has the five-set table). They
	// are constants on purpose: a rate derived from the run's own throughput
	// would hide a slowdown inside an unchanged latency.
	pacedRPSMem = 3_200_000
	pacedRPSTCP = 3_200_000

	// maxInFlight bounds the closed loop: the driver feeds epoch e only once
	// epoch e-maxInFlight is durably committed.
	maxInFlight = 8
	// pacedLimitMS is the paced phase's latency limit: a slower epoch counts
	// as failed. It is two orders of magnitude above the median so that it
	// catches a system that stopped keeping up, not the 100–150 ms stalls the
	// hypervisor of a shared host inflicts now and then (README.md).
	pacedLimitMS = 250.0
	// rateWindow is the throughput sampling window; throughput_rps is the
	// median window, so one GC pause or noisy neighbour does not move it.
	rateWindow = 500 * time.Millisecond
)

// setupRepeats set-ups are timed per run; setup_s is their median.
var setupRepeats = 101

// kcShape is where the keycount dataflow runs.
type kcShape struct {
	name           string // the workload it belongs to, for the trace file
	procs, workers int
	tcp            bool
	pacedRPS       float64
}

var (
	shapeMem = kcShape{name: "keycount_mem", procs: 1, workers: 2, pacedRPS: pacedRPSMem}
	shapeTCP = kcShape{name: "keycount_tcp", procs: 2, workers: 1, tcp: true, pacedRPS: pacedRPSTCP}
	shape1W  = kcShape{procs: 1, workers: 1}
)

func runKeycountMem(rc runConfig) (*outcome, error) { return runKeycount(rc, shapeMem) }
func runKeycountTCP(rc runConfig) (*outcome, error) { return runKeycount(rc, shapeTCP) }

// pairGob is the codec lib.Count uses on both of its edges when the caller
// passes nil: gob over Pair[int64,int64].
func pairGob() codec.Codec { return codec.Gob[lib.Pair[int64, int64]]() }

// probes are the traced run's taps on one computation; all nil when
// untraced.
type probes struct {
	log     *epochLog
	spans   *spanLog
	tracer  *trace.Tracer
	wireCod *timedCodec // Select→FoldByKey, the hash exchange
	sinkCod *timedCodec // FoldByKey→Sink
	tap     *wireTap
}

func newProbes() *probes {
	p := &probes{log: &epochLog{}, spans: &spanLog{}, tracer: trace.New(trace.Config{RingBits: 16})}
	p.wireCod = newTimedCodec(pairGob(), p.spans)
	p.sinkCod = newTimedCodec(pairGob(), p.spans)
	p.tap = newWireTap(p.spans)
	return p
}

// observedTCP is the traced runs' transport: the loopback TCP mesh UseTCP
// would build, behind the tap.
func (p *probes) observedTCP(procs int) (transport.Transport, error) {
	t, err := transport.NewTCPLoopback(procs)
	if err != nil {
		return nil, err
	}
	return p.tap.observe(t), nil
}

// kcFlow is one running keycount computation:
// Input[int64] → Select(k→(k,1)) → FoldByKey(+) → Sink. That is lib.Count
// spelled out through its two public pieces, so the exchange edge's codec —
// which Count fixes to gob internally — can be the same gob codec behind a
// timing decorator.
type kcFlow struct {
	shape kcShape
	scope *lib.Scope
	in    *lib.Input[int64]
	probe *runtime.Probe
	sink  *checkSink
	ring  [][]int64
	tp    *probes // nil when untraced

	next int64 // next epoch to feed
}

// keycountGraph wires the keycount dataflow into a scope, ending in store.
func keycountGraph(s *lib.Scope, store lib.SinkStore, wire, sink codec.Codec) (*lib.Input[int64], runtime.StageID) {
	in, keys := lib.NewInput[int64](s, "keys", codec.Int64())
	keyed := lib.Select(keys, func(k int64) lib.Pair[int64, int64] { return lib.KV(k, int64(1)) }, wire)
	counts := lib.FoldByKey(keyed, func(int64) int64 { return 0 },
		func(acc, v int64) int64 { return acc + v }, sink)
	return in, lib.Sink(counts, store)
}

// startKeycount is one full set-up of the system: build the graph, start the
// workers and push the first epoch through to a durable commit, so caches,
// pools and gob sessions are warm before anything is timed. The inputs are
// generated beforehand: the generator is the benchmark's own work, and it
// would outweigh the system's set-up tenfold.
func startKeycount(ring [][]int64, shape kcShape, traced bool) (*kcFlow, error) {
	f := &kcFlow{shape: shape, ring: ring, sink: newCheckSink(ringEpochs)}
	var store lib.SinkStore = f.sink
	cfg := runtime.Config{Processes: shape.procs, WorkersPerProcess: shape.workers,
		Accumulation: runtime.AccLocalGlobal, UseTCP: shape.tcp}
	wire, sink := pairGob(), pairGob()
	if traced {
		f.tp = newProbes()
		cfg.Tracer = f.tp.tracer
		wire, sink = f.tp.wireCod, f.tp.sinkCod
		if shape.tcp {
			t, err := f.tp.observedTCP(shape.procs)
			if err != nil {
				return nil, err
			}
			cfg.UseTCP, cfg.Transport = false, t
		}
		store = &timedStore{inner: f.sink, log: f.tp.log}
	}
	s, err := lib.NewScope(cfg)
	if err != nil {
		return nil, err
	}
	f.scope = s
	var st runtime.StageID
	f.in, st = keycountGraph(s, store, wire, sink)
	f.probe = s.C.NewProbe(st)
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	f.feed()
	if err := f.probe.WaitForErr(0); err != nil {
		return nil, fmt.Errorf("first epoch: %w", err)
	}
	return f, nil
}

// feed sends the next epoch and closes it, returning the call's duration.
func (f *kcFlow) feed() int64 {
	t0 := now()
	f.in.Send(f.ring[f.next%ringEpochs]...)
	f.in.Advance()
	t1 := now()
	if f.tp != nil {
		e := f.next
		f.tp.log.set(e, func(m *epochMarks) { m.due, m.fed = t0, t1 })
	}
	f.next++
	return t1 - t0
}

// finish closes the input, joins the computation and runs the oracle.
func (f *kcFlow) finish() error {
	f.in.Close()
	if err := f.scope.C.Join(); err != nil {
		return err
	}
	return f.sink.verify(f.next, f.ring, pairGob())
}

// saturate is the closed-loop phase: one driver keeps maxInFlight epochs
// between the input and the sink's commit. It returns the committed-records
// rate of each rateWindow (the first, which absorbs the ramp, is dropped)
// and each feed call's duration.
func (f *kcFlow) saturate(d time.Duration) (rates, feedNS []float64, err error) {
	start := now()
	end := start + int64(d)
	sampler := newRateSampler(start, f.probe.Completed(), recordsPerEpoch)
	for {
		t := now()
		sampler.tick(t, f.probe.Completed)
		if t >= end {
			break
		}
		if e := f.next - maxInFlight; e >= 0 {
			if err := f.probe.WaitForErr(e); err != nil {
				return nil, nil, err
			}
		}
		feedNS = append(feedNS, float64(f.feed()))
	}
	if err := f.probe.WaitForErr(f.next - 1); err != nil {
		return nil, nil, err
	}
	return sampler.finish(now(), f.probe.Completed()), feedNS, nil
}

// pacedResult is the open-loop phase's samples.
type pacedResult struct {
	first     int64     // first epoch of the phase
	latencyMS []float64 // per epoch: due instant → Probe.Done observed
	lateMS    []float64 // per epoch: how late the generator sent it
	failed    int64     // over the limit, errored, or backlog beyond maxInFlight at phase end
	interval  time.Duration
}

// paced is the open-loop phase: epochs are due on a fixed schedule whatever
// the system does, and each is timed from its due instant, so a stall is
// charged to every epoch it delays.
func (f *kcFlow) paced(d time.Duration) (*pacedResult, error) {
	r := &pacedResult{first: f.next, interval: time.Duration(float64(recordsPerEpoch) / f.shape.pacedRPS * 1e9)}
	n := int(d / r.interval)
	due := make([]int64, n)
	done := make([]int64, n)
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range done {
			if err := f.probe.WaitForErr(r.first + int64(i)); err != nil {
				werr = err
				return
			}
			done[i] = now()
			if f.tp != nil {
				t := done[i]
				f.tp.log.set(r.first+int64(i), func(m *epochMarks) { m.done = t })
			}
		}
	}()
	start := now()
	for i := range due {
		due[i] = start + int64(i)*int64(r.interval)
		sleepUntil(due[i])
		r.lateMS = append(r.lateMS, ms(now()-due[i]))
		f.feed()
		if f.tp != nil {
			// The span tree times an epoch from when it was due, not from
			// when the generator got round to it.
			d := due[i]
			f.tp.log.set(r.first+int64(i), func(m *epochMarks) { m.due = d })
		}
	}
	phaseEnd := now()
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	backlog := int64(0)
	for i := range done {
		l := ms(done[i] - due[i])
		r.latencyMS = append(r.latencyMS, l)
		if l > pacedLimitMS {
			r.failed++
		}
		if done[i] > phaseEnd {
			backlog++
		}
	}
	if backlog > maxInFlight {
		r.failed += backlog - maxInFlight
	}
	return r, nil
}

// sleepUntil waits for an instant on the benchmark clock. The kernel timer
// can overshoot a short sleep by most of a millisecond on a busy host, so
// the last stretch is spent yielding instead: the generator stays on
// schedule without pinning a core for the whole interval.
func sleepUntil(t int64) {
	const spin = int64(1500 * time.Microsecond)
	if wait := t - now() - spin; wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	for now() < t {
		goruntime.Gosched()
	}
}

// timedSetups runs setupRepeats complete set-ups back to back, tearing each
// down before the next, and returns each one's duration in seconds with the
// last flow still running.
func timedSetups[F any](start func() (F, error), stop func(F) error) ([]float64, F, error) {
	var secs []float64
	var last F
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := stop(last); err != nil {
				return nil, last, fmt.Errorf("tear-down %d: %w", i-1, err)
			}
		}
		t0 := now()
		f, err := start()
		if err != nil {
			return nil, last, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, float64(now()-t0)/1e9)
		last = f
	}
	return secs, last, nil
}

func runKeycount(rc runConfig, shape kcShape) (*outcome, error) {
	if rc.traced {
		return traceKeycount(rc, shape)
	}
	o := newOutcome(endToEnd)
	ring := zipfRing(rc.seed)
	secs, f, err := timedSetups(
		func() (*kcFlow, error) { return startKeycount(ring, shape, false) },
		(*kcFlow).finish)
	if err != nil {
		return nil, err
	}
	// Throughput needs the longer phase: its run-to-run spread falls with the
	// number of windows, while the paced median is steady after a few
	// hundred epochs.
	rates, _, err := f.saturate(rc.span(0.7))
	if err != nil {
		return nil, fmt.Errorf("saturate: %w", err)
	}
	p, err := f.paced(rc.span(0.3))
	if err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	if err := f.finish(); err != nil {
		return nil, err
	}
	o.attempted, o.failed = f.next, p.failed
	o.endToEnd(secs, rates, p.latencyMS)
	notePacing(o, p)
	return o, nil
}

// notePacing reports how late the open-loop generator ran. A generator that
// cannot keep its own schedule is measuring itself, so the phase is marked
// invalid (and the run fails) when p95 lateness passes a tenth of the epoch
// interval.
func notePacing(o *outcome, p *pacedResult) {
	late := summarize(p.lateMS)
	o.notef("paced: %d epochs every %v, gen_late_ms_p50=%.4f p95=%.4f (limit %.4f), over-limit or backlog epochs=%d",
		len(p.lateMS), p.interval, late.Median, late.P95, ms(int64(p.interval))/10, p.failed)
	if late.P95 > ms(int64(p.interval))/10 {
		o.notef("paced phase INVALID: generator lateness above 10%% of the epoch interval")
		o.failed += int64(len(p.lateMS))
	}
}
