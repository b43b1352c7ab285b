package kexposure

import (
	"sort"
	"testing"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/workload"
)

// TestRecoveryFromCheckpoint simulates the §3.4 failure story end to end:
// run the pipeline, checkpoint, "lose the cluster", build a fresh
// computation, restore the snapshot, and replay only the post-checkpoint
// epochs.
//
// Because the pipeline is asynchronous, the epoch a crossing is attributed
// to is not deterministic — but each hashtag crosses the threshold exactly
// once over the whole stream. The recovery invariant is therefore: the
// crossings of (primary run before the checkpoint) ∪ (recovered run) must
// equal the crossings of an uninterrupted reference run, with no tag lost
// and none duplicated.
func TestRecoveryFromCheckpoint(t *testing.T) {
	cfg := runtime.Config{Processes: 2, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
	const k = 20
	// Deterministic tweet batches shared by all runs, over a vocabulary
	// large enough that crossings spread across all six epochs.
	gen := workload.NewTweetGen(9, 2000, 400)
	epochs := make([][]workload.Tweet, 6)
	for e := range epochs {
		epochs[e] = gen.Batch(800)
	}

	type run struct {
		col  *lib.Collector[lib.Pair[string, int64]]
		comp *runtime.Computation
		in   *lib.Input[workload.Tweet]
	}
	build := func() run {
		s, err := lib.NewScope(cfg)
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

	// Reference run: all six epochs straight through.
	ref := build()
	for _, batch := range epochs {
		ref.in.OnNext(batch...)
	}
	ref.in.Close()
	if err := ref.comp.Join(); err != nil {
		t.Fatal(err)
	}
	want := tagsOf(ref.col)
	for tag, n := range want {
		if n != 1 {
			t.Fatalf("reference emitted %q %d times", tag, n)
		}
	}

	// Primary run: three epochs, checkpoint, then "fail".
	primary := build()
	for e := 0; e < 3; e++ {
		primary.in.OnNext(epochs[e]...)
	}
	primary.col.WaitFor(2)
	snap, err := primary.comp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = runtime.UnmarshalCut(runtime.EncodeCut(snap)); err != nil { // durability roundtrip
		t.Fatal(err)
	}
	primary.in.Close()
	if err := primary.comp.Join(); err != nil {
		t.Fatal(err)
	}
	before := tagsOf(primary.col)

	// Recovery run: restore and replay epochs 3..5 only.
	rec := build()
	if err := rec.comp.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rec.in.Epoch() != 3 {
		t.Fatalf("restored input epoch = %d", rec.in.Epoch())
	}
	for e := 3; e < 6; e++ {
		rec.in.OnNext(epochs[e]...)
	}
	rec.in.Close()
	if err := rec.comp.Join(); err != nil {
		t.Fatal(err)
	}
	after := tagsOf(rec.col)

	// The recovered run must contribute something (otherwise the test is
	// vacuous) and the union must equal the reference with no duplicates.
	if len(after) == 0 {
		t.Fatal("no post-recovery crossings; grow the workload")
	}
	if len(before) == 0 {
		t.Fatal("no pre-checkpoint crossings; shrink k")
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
		t.Fatalf("tags crossed twice across the failure: %v", dup)
	}
	if len(missing) > 0 {
		t.Fatalf("tags lost across the failure: %v", missing)
	}
	if len(extra) > 0 {
		t.Fatalf("tags crossed that never cross in the reference: %v", extra)
	}
}
