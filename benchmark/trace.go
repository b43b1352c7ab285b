package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"naiad/internal/runtime"
	"naiad/internal/trace"
	"naiad/internal/workload"
)

// The traced run of each workload: the same flow with every tap installed
// (Config.Tracer, codec and sink decorators, transport.Observed, the CPU
// profiler, benchmark-side spans), next to a short untraced reference run in
// the same process so the tracing overhead is a measured number.

// harvester drains the tracer's rings while the computation runs, so a long
// run loses no events to a full ring, and folds them into counters.
type harvester struct {
	tr         *trace.Tracer
	stop, done chan struct{}

	schedNS     int64 // Σ scheduler quantum wall time, all workers
	postUpdates int64 // progress updates broadcast
	lagMaxNS    int64 // oldest frontier age seen at any sample
}

func startHarvester(tr *trace.Tracer) *harvester {
	h := &harvester{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				h.drain()
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

func (h *harvester) drain() {
	for _, ev := range h.tr.Harvest() {
		switch ev.Kind {
		case trace.EvSchedule:
			h.schedNS += ev.Dur
		case trace.EvProgressPost:
			h.postUpdates += ev.N
		}
	}
	h.tr.Reset()
	if lags := h.tr.FrontierLags(); len(lags) > 0 {
		h.lagMaxNS = max(h.lagMaxNS, int64(lags[0].Age))
	}
}

// finish stops the drain loop and takes the last events. Call after the
// computation has quiesced.
func (h *harvester) finish() {
	close(h.stop)
	<-h.done
	h.drain()
}

// tracedWindow is everything observed about one traced flow from its
// start to its end.
type tracedWindow struct {
	tp      *probes
	h       *harvester
	prof    *cpuProfile
	mem     goruntime.MemStats
	startNS int64
}

// openWindow starts observing a traced flow. prof, when non-nil, is a CPU
// profile the caller already started and will account for itself (one
// profile across many short jobs); otherwise the window owns one.
func openWindow(tp *probes, prof *cpuProfile) (*tracedWindow, error) {
	w := &tracedWindow{tp: tp, startNS: now()}
	goruntime.ReadMemStats(&w.mem)
	if prof == nil {
		var err error
		if w.prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	w.h = startHarvester(tp.tracer)
	return w, nil
}

// cpuBudget writes a finished profile's per-layer shares into the outcome.
func cpuBudget(o *outcome, prof *cpuProfile, wallNS float64) error {
	shares, cpuSeconds, err := prof.stop()
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range cpuLayers {
		o.values["cpu."+l+"_share"] = shares[l]
	}
	o.values["cpu.busy_cores"] = cpuSeconds / (wallNS / 1e9)
	return nil
}

// close fills every layer metric that is read the same way on every
// workload: the CPU budget, runtime and progress counters from the tracer,
// allocation deltas, codec and transport counters. comp is the (joined)
// computation, workers its worker count, epochs and records what the window
// fed.
func (w *tracedWindow) close(o *outcome, comp *runtime.Computation, workers int, epochs, records int64) error {
	wall := float64(now() - w.startNS)
	w.h.finish()
	mem := memSince(&w.mem)
	if w.prof != nil {
		if err := cpuBudget(o, w.prof, wall); err != nil {
			return err
		}
	}

	tr := w.tp.tracer
	var busy, countBusy, countRecs float64
	snap := comp.Metrics()
	for _, st := range tr.Stages() {
		b := float64(tr.StageLatency(st.ID, false).Sum() + tr.StageLatency(st.ID, true).Sum())
		busy += b
		if st.Name == "FoldByKey" {
			countBusy += b
		}
	}
	var delivered, notified float64
	for _, st := range snap.Stages {
		delivered += float64(st.Records)
		notified += float64(st.Notifications)
		if st.Name == "FoldByKey" {
			countRecs += float64(st.Records)
		}
	}
	o.values["runtime.callback_busy_share"] = share(busy, wall*float64(workers))
	o.values["runtime.sched_idle_share"] = 1 - share(float64(w.h.schedNS), wall*float64(workers))
	o.values["runtime.records_delivered"] = delivered
	o.values["runtime.notifications"] = notified
	o.values["lib.count_busy_us_per_krec"] = share(countBusy/1e3, countRecs/1e3)
	o.values["batchbuf.alloc_b_per_rec"] = share(mem.bytes, float64(records))
	o.values["batchbuf.gc_cycles"] = mem.cycles
	o.values["progress.updates_per_epoch"] = share(float64(w.h.postUpdates), float64(epochs))
	o.values["progress.frontier_lag_ms_max"] = ms(w.h.lagMaxNS)
	o.values["trace.events_dropped"] = float64(tr.Dropped())

	var calls, encNS, encRecs, decNS, decRecs, wireBytes float64
	for _, c := range []*timedCodec{w.tp.wireCod, w.tp.sinkCod} {
		calls += float64(c.wireCalls())
		encNS += float64(c.encNanos.Load())
		encRecs += float64(c.encRecs.Load())
		decNS += float64(c.decNanos.Load())
		decRecs += float64(c.decRecs.Load())
		wireBytes += float64(c.encBytes.Load())
	}
	o.values["codec.calls"] = calls
	o.values["codec.encode_ns_per_rec"] = share(encNS, encRecs)
	o.values["codec.decode_ns_per_rec"] = share(decNS, decRecs)
	o.values["codec.bytes_per_rec"] = share(wireBytes, encRecs)

	o.values["transport.data_frames"] = float64(snap.DataFrames)
	o.values["transport.data_bytes"] = float64(snap.DataBytes)
	o.values["transport.progress_frames"] = float64(snap.ProgressFrames)
	o.values["transport.progress_bytes"] = float64(snap.ProgressBytes)
	o.values["transport.frames_dropped"] = float64(snap.DroppedFrames)
	o.values["transport.records_per_data_frame"] = share(encRecs, float64(snap.DataFrames))
	w.tp.tap.mu.Lock()
	o.values["transport.wire_us_p50"] = median(w.tp.tap.wireNS) / 1e3
	w.tp.tap.mu.Unlock()
	return nil
}

// sinkMarks fills the sink and progress timings that come from epoch marks:
// fed → Commit entry (the epoch's way through the dataflow to a sealed
// batch), Commit's own duration, and Commit return → probe completion seen.
func sinkMarks(o *outcome, marks []epochMarks) {
	var seal, commit, notify, toDone []float64
	for _, m := range marks {
		if m.commitIn == 0 {
			continue
		}
		if m.fed != 0 {
			seal = append(seal, ms(m.commitIn-m.fed))
		}
		commit = append(commit, ms(m.commitOut-m.commitIn))
		if m.done != 0 {
			notify = append(notify, ms(m.done-m.commitOut))
			if m.fed != 0 {
				toDone = append(toDone, ms(m.done-m.fed))
			}
		}
	}
	o.values["lib.sink_seal_ms_p50"] = median(seal)
	o.values["lib.sink_commit_ms_p50"] = median(commit)
	o.values["progress.commit_to_probe_ms_p50"] = median(notify)
	o.values["runtime.feed_to_done_ms_p50"] = median(toDone)
}

// spanShares writes a span tree's breakdown into the outcome, fails the run
// when the layers do not add up to the root, and dumps the trace file.
func spanShares(o *outcome, tree *spanTree, name string, dropped int) error {
	b := tree.breakdown()
	for n, v := range b.shares {
		o.values["span."+n+"_share"] = v
	}
	o.values["span.sum_error"] = b.sumError
	path, err := tree.write(name)
	if err != nil {
		return err
	}
	o.notef("span tree: %d roots, layer self times sum to the root within %.4f at the median; %d leaf spans outside any root; written to %s",
		b.roots, b.sumError, dropped, path)
	if b.roots > 0 && b.sumError > 0.05 {
		return fmt.Errorf("span self times miss the root by %.3f at the median (limit 0.05)", b.sumError)
	}
	return nil
}

// epochTree builds the epoch span tree from marks: root epoch → feed,
// dataflow, commit, notify.
func epochTree(marks []epochMarks, first, n int64) *spanTree {
	t := &spanTree{}
	for e := first; e < first+n && e < int64(len(marks)); e++ {
		m := marks[e]
		if m.due == 0 || m.fed == 0 || m.commitIn == 0 || m.done == 0 {
			continue
		}
		t.root("epoch", []string{"feed", "dataflow", "commit", "notify"},
			[]int64{m.due, m.fed, m.commitIn, m.commitOut, m.done})
	}
	return t
}

func traceKeycount(rc runConfig, shape kcShape) (*outcome, error) {
	o := newOutcome(perLayer)
	ring := zipfRing(rc.seed)
	// Untraced reference, then the single-worker baseline.
	ref, err := startKeycount(ring, shape, false)
	if err != nil {
		return nil, err
	}
	refRates, _, err := ref.saturate(rc.span(0.2))
	if err == nil {
		err = ref.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	one, err := startKeycount(ring, shape1W, false)
	if err != nil {
		return nil, err
	}
	oneRates, _, err := one.saturate(rc.span(0.15))
	if err == nil {
		err = one.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("single worker: %w", err)
	}

	f, err := startKeycount(ring, shape, true)
	if err != nil {
		return nil, err
	}
	w, err := openWindow(f.tp, nil)
	if err != nil {
		return nil, err
	}
	rates, feedNS, err := f.saturate(rc.span(0.3))
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
	if err := w.close(o, f.scope.C, shape.procs*shape.workers, f.next, f.next*recordsPerEpoch); err != nil {
		return nil, err
	}
	marks := f.tp.log.snapshot()
	sinkMarks(o, marks)
	tree := epochTree(marks, p.first, int64(len(p.latencyMS)))
	dropped := tree.adopt(f.tp.spans, "dataflow")
	if err := spanShares(o, tree, shape.name, dropped); err != nil {
		return nil, err
	}
	o.attempted, o.failed = ref.next+one.next+f.next, p.failed
	o.values["tail.latency_ms_p95"] = summarize(p.latencyMS).P95
	o.values["runtime.feed_us_p50"] = median(feedNS) / 1e3
	o.values["runtime.rps_1w"] = median(oneRates)
	o.values["runtime.speedup_2w"] = share(median(refRates), median(oneRates))
	o.values["lib.sink_batch_bytes"] = share(float64(f.sink.bytes), float64(f.sink.committed()))
	o.values["trace.overhead_share"] = 1 - share(median(rates), median(refRates))
	o.notef("saturate: untraced %.0f rec/s, traced %.0f rec/s, one worker %.0f rec/s", median(refRates), median(rates), median(oneRates))
	notePacing(o, p)
	return o, nil
}

func traceLoopTCP(rc runConfig) (*outcome, error) {
	o := newOutcome(perLayer)
	ref, err := loopJobs(rc.seed, rc.span(0.25))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	edges, iters := permutedChains(rc.seed, loopChains, loopLength)
	want := workload.ExpectedWCC(edges)
	// one runs a job under a window and returns feed start, feed end, fixed point.
	one := func(j *loopJob, prof *cpuProfile, into *outcome) (t0, t1, t2 int64, err error) {
		w, err := openWindow(j.tp, prof)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 = now()
		j.in.Send(edges...)
		j.in.Close()
		t1 = now()
		if err := j.scope.C.Join(); err != nil {
			return 0, 0, 0, err
		}
		t2 = now()
		if err := j.verify(want); err != nil {
			return 0, 0, 0, err
		}
		return t0, t1, t2, w.close(into, j.scope.C, 2, 1, j.recs)
	}

	// Tapped jobs: transport observed, CPU profiled (one profile across all
	// of them — a single job is too short to sample), runtime tracer off.
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	profStart := now()
	tree := &spanTree{}
	var tapMS, iterUS, framesPerIter, smallWire []float64
	dropped := 0
	for end := profStart + int64(rc.span(0.4)); len(tapMS) == 0 || now() < end; {
		j, err := startLoopJob(true, false)
		if err != nil {
			return nil, err
		}
		t0, t1, t2, err := one(j, prof, o) // each job overwrites: the last job's counters stand for the run
		if err != nil {
			return nil, err
		}
		tree.root("job", []string{"feed", "dataflow"}, []int64{t0, t1, t2})
		dropped += tree.adopt(j.tp.spans, "dataflow")
		tapMS = append(tapMS, ms(t2-t0))
		iterUS = append(iterUS, float64(t2-t0)/1e3/float64(iters))
		framesPerIter = append(framesPerIter, (o.values["transport.data_frames"]+o.values["transport.progress_frames"])/float64(iters))
		smallWire = append(smallWire, median(j.tp.tap.small)/1e3)
	}
	if err := cpuBudget(o, prof, float64(now()-profStart)); err != nil {
		return nil, err
	}
	if err := spanShares(o, tree, "loop_tcp", dropped); err != nil {
		return nil, err
	}

	// Traced jobs: the runtime's own tracer on, for its counters and its cost.
	var tracedMS []float64
	to := newOutcome(perLayer)
	for end := now() + int64(rc.span(0.25)); len(tracedMS) == 0 || now() < end; {
		j, err := startLoopJob(false, true)
		if err != nil {
			return nil, err
		}
		t0, _, t2, err := one(j, prof, to)
		if err != nil {
			return nil, err
		}
		tracedMS = append(tracedMS, ms(t2-t0))
	}
	for _, k := range []string{"runtime.callback_busy_share", "runtime.sched_idle_share", "runtime.records_delivered",
		"runtime.notifications", "progress.updates_per_epoch", "progress.frontier_lag_ms_max", "trace.events_dropped"} {
		o.values[k] = to.values[k]
	}
	o.attempted = int64(len(ref.jobMS) + len(tapMS) + len(tracedMS))
	o.values["tail.latency_ms_p95"] = summarize(tapMS).P95
	o.values["progress.iter_us_p50"] = median(iterUS)
	o.values["progress.frames_per_iter"] = median(framesPerIter)
	o.values["transport.wire_us_p50"] = median(smallWire)
	o.values["trace.overhead_share"] = share(median(tracedMS), median(ref.jobMS)) - 1
	o.notef("job median: %d untraced %.1f ms, %d tapped %.1f ms, %d with the runtime tracer %.1f ms; ~%d iterations each",
		len(ref.jobMS), median(ref.jobMS), len(tapMS), median(tapMS), len(tracedMS), median(tracedMS), iters)
	return o, nil
}

func traceDoorRW(rc runConfig) (*outcome, error) {
	o := newOutcome(perLayer)
	ref, err := startDoor(rc.seed, false)
	if err != nil {
		return nil, err
	}
	refLoad, err := ref.load(rc.span(0.3))
	if err == nil {
		err = ref.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	f, err := startDoor(rc.seed, true)
	if err != nil {
		return nil, err
	}
	w, err := openWindow(f.tp, nil)
	if err != nil {
		return nil, err
	}
	l, err := f.load(rc.span(0.6))
	if err != nil {
		return nil, err
	}
	m := f.srv.Metrics().Snapshot()
	if err := f.stop(); err != nil {
		return nil, err
	}
	records := int64(len(l.samples)+doorClients) * doorBatch
	if err := w.close(o, f.scope.C, 2, m.EpochsSealed, records); err != nil {
		return nil, err
	}
	sinkMarks(o, f.tp.log.snapshot())
	tree := &spanTree{}
	var send, read, lat, refLat []float64
	for _, s := range l.samples {
		tree.root("rw", []string{"send", "read"}, []int64{s.start, s.sent, s.read})
		send = append(send, ms(s.sent-s.start))
		read = append(read, ms(s.read-s.sent))
		lat = append(lat, ms(s.read-s.start))
	}
	for _, s := range refLoad.samples {
		refLat = append(refLat, ms(s.read-s.start))
	}
	if err := spanShares(o, tree, "door_rw", 0); err != nil {
		return nil, err
	}
	o.attempted, o.failed = refLoad.attempted+l.attempted, refLoad.failed+l.failed
	o.values["tail.latency_ms_p95"] = summarize(lat).P95
	o.values["serve.send_ms_p50"] = median(send)
	o.values["serve.read_ms_p50"] = median(read)
	o.values["serve.ack_ms_p50"] = ms(m.AckLatency.P50)
	o.values["serve.admit_wait_ms_p50"] = ms(m.AdmitWait.P50)
	o.values["serve.records_per_epoch"] = share(float64(m.RecordsAccepted), float64(m.EpochsSealed))
	o.values["serve.shed_share"] = share(float64(m.RecordsShed), float64(m.RecordsAccepted+m.RecordsShed))
	o.values["lib.sink_batch_bytes"] = share(float64(f.store.bytes.Load()), float64(f.store.n.Load()))
	o.values["trace.overhead_share"] = share(median(lat), median(refLat)) - 1
	o.notef("rw p50: untraced %.3f ms, traced %.3f ms", median(refLat), median(lat))
	return o, nil
}

func traceCrashReplay(rc runConfig) (*outcome, error) {
	o := newOutcome(perLayer)
	rate := func(f *crashFlow, d time.Duration, crash bool) (float64, []crashSample, error) {
		samples, rates, err := f.job(rc.seed, d, crash)
		return median(rates), samples, err
	}

	ring, boxed := crashInputs(rc.seed)
	ref, err := startCrash(ring, boxed, false)
	if err != nil {
		return nil, err
	}
	calm, _, err := rate(ref, rc.span(0.2), false)
	var refRate float64
	if err == nil {
		refRate, _, err = rate(ref, rc.span(0.25), true)
	}
	if err == nil {
		err = ref.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	f, err := startCrash(ring, boxed, true)
	if err != nil {
		return nil, err
	}
	w, err := openWindow(f.tp, nil)
	if err != nil {
		return nil, err
	}
	tracedRate, samples, err := rate(f, rc.span(0.45), true)
	if err != nil {
		return nil, err
	}
	rec := f.sup.Recovery()
	comp, _ := f.current()
	if err := f.finish(); err != nil {
		return nil, err
	}
	if err := w.close(o, comp, 2, f.next, f.next*crashRecords); err != nil {
		return nil, err
	}
	sinkMarks(o, f.tp.log.snapshot())
	tree := &spanTree{}
	var revive, stall, recoverMS []float64
	for _, s := range samples {
		tree.root("crash", []string{"revive", "catchup"}, []int64{s.crashed, s.revived, s.caughtUp})
		recoverMS = append(recoverMS, s.recoverMS)
		revive = append(revive, s.reviveMS)
		stall = append(stall, s.stallMS)
	}
	if err := spanShares(o, tree, "crash_replay", 0); err != nil {
		return nil, err
	}
	o.attempted = ref.next + f.next
	o.values["tail.latency_ms_p95"] = summarize(recoverMS).P95
	o.values["supervise.cuts"] = float64(rec.Cuts)
	o.values["supervise.cut_bytes"] = float64(rec.CutBytes)
	o.values["supervise.cut_aborts"] = float64(rec.CutAborts)
	o.values["supervise.selective_revivals"] = float64(rec.SelectiveRevivals)
	o.values["supervise.full_restarts"] = float64(rec.Restarts)
	o.values["supervise.last_recovery_ms_p50"] = median(revive)
	o.values["supervise.stall_ms_p50"] = median(stall)
	o.values["supervise.nocrash_rps"] = calm
	o.values["lib.sink_batch_bytes"] = share(float64(f.sink.bytes), float64(f.sink.committed()))
	o.values["trace.overhead_share"] = 1 - share(tracedRate, refRate)
	o.notef("supervised: %.0f rec/s without crashes, %.0f with (untraced), %.0f traced; %d crashes traced",
		calm, refRate, tracedRate, len(samples))
	return o, nil
}
