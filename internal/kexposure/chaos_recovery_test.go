package kexposure

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/supervise"
	"naiad/internal/testutil"
	"naiad/internal/transport"
	"naiad/internal/workload"
)

// TestChaosCrashRecovery replays the §3.4 failure story with a real fault
// injection instead of a graceful shutdown: the primary run executes on a
// chaos transport that delays every frame, a process is killed mid-epoch,
// and the surviving cluster must abort loudly. Recovery then restores the
// last checkpoint on a fresh cluster and replays the post-checkpoint
// epochs. Output emitted by the doomed epoch after the checkpoint is
// discarded — the paper's recovery contract — so the invariant is:
// (crossings observed up to the checkpoint) ∪ (recovered run's crossings)
// equals an uninterrupted reference run, with no tag lost or duplicated.
func TestChaosCrashRecovery(t *testing.T) {
	cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
	const k = 20
	seed := testutil.Seed(t)
	gen := workload.NewTweetGen(seed, 2000, 400)
	epochs := make([][]workload.Tweet, 6)
	for e := range epochs {
		epochs[e] = gen.Batch(800)
	}

	type run struct {
		col  *lib.Collector[lib.Pair[string, int64]]
		comp *runtime.Computation
		in   *lib.Input[workload.Tweet]
	}
	build := func(c runtime.Config) run {
		s, err := lib.NewScope(c)
		if err != nil {
			t.Fatal(err)
		}
		in, tweets := lib.NewInput[workload.Tweet](s, "tweets", nil)
		topics := Build(s, tweets, k, false)
		col := lib.Collect(topics)
		if err := s.C.Start(); err != nil {
			t.Fatal(err)
		}
		return run{col: col, comp: s.C, in: in}
	}
	tagsOf := func(col *lib.Collector[lib.Pair[string, int64]]) map[string]int {
		out := map[string]int{}
		for _, p := range col.All() {
			out[p.Key]++
		}
		return out
	}

	// Reference run, fault-free.
	ref := build(cfg)
	for _, batch := range epochs {
		ref.in.OnNext(batch...)
	}
	ref.in.Close()
	if err := ref.comp.Join(); err != nil {
		t.Fatal(err)
	}
	want := tagsOf(ref.col)

	// Primary run on a hostile network: three epochs, checkpoint, then a
	// process crash while epoch 3 is in flight.
	ct := transport.NewChaos(transport.NewMem(cfg.Processes), transport.ChaosConfig{
		Seed:    seed,
		Default: transport.Fault{Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
	})
	pcfg := cfg
	pcfg.Transport = ct
	pcfg.SafetyChecks = true
	pcfg.Watchdog = 30 * time.Second
	primary := build(pcfg)
	for e := 0; e < 3; e++ {
		primary.in.OnNext(epochs[e]...)
	}
	primary.col.WaitFor(2)
	snap, err := primary.comp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = runtime.UnmarshalCut(runtime.EncodeCut(snap)); err != nil {
		t.Fatal(err)
	}
	before := tagsOf(primary.col) // checkpoint-covered output only
	primary.in.OnNext(epochs[3]...)
	ct.Crash(1)
	if err := primary.comp.Join(); err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("Join = %v, want a crash error", err)
	}

	// Recovery on a fresh fault-free cluster: replay epochs 3..5.
	rec := build(cfg)
	if err := rec.comp.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rec.in.Epoch() != 3 {
		t.Fatalf("restored input epoch = %d, want 3", rec.in.Epoch())
	}
	for e := 3; e < 6; e++ {
		rec.in.OnNext(epochs[e]...)
	}
	rec.in.Close()
	if err := rec.comp.Join(); err != nil {
		t.Fatal(err)
	}
	after := tagsOf(rec.col)
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("degenerate split: %d pre-checkpoint, %d recovered crossings", len(before), len(after))
	}

	union := map[string]int{}
	for tag := range before {
		union[tag]++
	}
	for tag := range after {
		union[tag]++
	}
	var dup, missing, extra []string
	for tag, n := range union {
		if n > 1 {
			dup = append(dup, tag)
		}
		if _, ok := want[tag]; !ok {
			extra = append(extra, tag)
		}
	}
	for tag := range want {
		if union[tag] == 0 {
			missing = append(missing, tag)
		}
	}
	sort.Strings(dup)
	sort.Strings(missing)
	sort.Strings(extra)
	if len(dup) > 0 {
		t.Fatalf("tags crossed twice across the crash: %v", dup)
	}
	if len(missing) > 0 {
		t.Fatalf("tags lost across the crash: %v", missing)
	}
	if len(extra) > 0 {
		t.Fatalf("tags crossed that never cross in the reference: %v", extra)
	}
}

// TestSupervisedChaosCrashRecovery is the automatic version of the story
// above: instead of hand-rolling checkpoint/restore, the computation runs
// under internal/supervise with periodic checkpoints, a process is killed
// mid-stream, and the supervisor alone must detect, restore, and replay.
// The invariant mirrors the manual test: the union of crossings across
// incarnations equals the fault-free reference tag set, with no tag lost,
// invented, or crossed twice. (Which epoch a crossing lands in is
// arrival-order dependent — DistinctCumulative is asynchronous, §2.4 — so
// the comparison is by tag, not by epoch.)
func TestSupervisedChaosCrashRecovery(t *testing.T) {
	const k = 20
	seed := testutil.Seed(t)
	gen := workload.NewTweetGen(seed, 2000, 400)
	epochs := make([][]workload.Tweet, 6)
	for e := range epochs {
		epochs[e] = gen.Batch(400)
	}
	cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}

	// tagsAcross counts, per tag, how many crossings the collectors saw in
	// total — across incarnations and epochs.
	tagsAcross := func(cols []*lib.Collector[lib.Pair[string, int64]]) map[string]int {
		out := map[string]int{}
		for _, col := range cols {
			for _, p := range col.All() {
				out[p.Key]++
			}
		}
		return out
	}

	// Reference run, fault-free.
	refScope, err := lib.NewScope(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refIn, refTweets := lib.NewInput[workload.Tweet](refScope, "tweets", nil)
	refCol := lib.Collect(Build(refScope, refTweets, k, false))
	if err := refScope.C.Start(); err != nil {
		t.Fatal(err)
	}
	for _, batch := range epochs {
		refIn.OnNext(batch...)
	}
	refIn.Close()
	if err := refScope.C.Join(); err != nil {
		t.Fatal(err)
	}
	want := tagsAcross([]*lib.Collector[lib.Pair[string, int64]]{refCol})

	// Supervised run on a hostile network; each incarnation gets a fresh
	// chaos transport and its own collector.
	var mu sync.Mutex
	var cols []*lib.Collector[lib.Pair[string, int64]]
	var chaos0 *transport.Chaos
	incarnation := 0
	factory := func() (*supervise.Build, error) {
		scfg := cfg
		scfg.SafetyChecks = true
		scfg.Watchdog = 30 * time.Second
		ct := transport.NewChaos(transport.NewMem(cfg.Processes), transport.ChaosConfig{
			Seed:    seed + int64(incarnation),
			Default: transport.Fault{Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
		})
		if incarnation == 0 {
			chaos0 = ct
		}
		incarnation++
		scfg.Transport = ct
		s, err := lib.NewScope(scfg)
		if err != nil {
			return nil, err
		}
		in, tweets := lib.NewInput[workload.Tweet](s, "tweets", nil)
		col := lib.Collect(Build(s, tweets, k, false))
		mu.Lock()
		cols = append(cols, col)
		mu.Unlock()
		return &supervise.Build{
			Comp:   s.C,
			Inputs: map[string]*runtime.Input{"tweets": in.Raw()},
			Probe:  col.Probe(),
		}, nil
	}
	store := &notifyingStore{MemStore: supervise.NewMemStore(3), after: 2, done: make(chan struct{})}
	sup, err := supervise.New(supervise.Config{Factory: factory, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(e int) {
		t.Helper()
		msgs := make([]runtime.Message, len(epochs[e]))
		for i, tw := range epochs[e] {
			msgs[i] = tw
		}
		if err := sup.OnNext("tweets", msgs...); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 3; e++ {
		feed(e)
	}
	select {
	case <-store.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("no checkpoints taken: %+v", sup.Recovery())
	}
	chaos0.Crash(1)
	for e := 3; e < len(epochs); e++ {
		feed(e)
	}
	if err := sup.CloseInput("tweets"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Wait(); err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	rec := sup.Recovery()
	if rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (%+v)", rec.Restarts, rec)
	}

	mu.Lock()
	got := tagsAcross(cols)
	mu.Unlock()
	var missing, extra, dup []string
	for tag := range want {
		if got[tag] == 0 {
			missing = append(missing, tag)
		}
	}
	for tag, n := range got {
		if want[tag] == 0 {
			extra = append(extra, tag)
		}
		if n > 1 {
			dup = append(dup, tag)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	sort.Strings(dup)
	if len(missing) > 0 {
		t.Fatalf("crossings lost across supervised recovery: %v", missing)
	}
	if len(extra) > 0 {
		t.Fatalf("crossings invented across supervised recovery: %v", extra)
	}
	if len(dup) > 0 {
		t.Fatalf("tags crossed twice across supervised recovery: %v", dup)
	}
}

// notifyingStore is a MemStore that closes done once `after` snapshots have
// been saved, so a test can wait for checkpoints without polling.
type notifyingStore struct {
	*supervise.MemStore
	mu    sync.Mutex
	after int
	done  chan struct{}
}

func (s *notifyingStore) Save(epoch int64, data []byte) error {
	err := s.MemStore.Save(epoch, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.after--; s.after == 0 {
		close(s.done)
	}
	return err
}
