package introspect

import (
	"fmt"
	"testing"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/trace"
)

// runTracedPipeline executes a small multi-stage computation under a
// tracer and returns the tracer plus the runtime's own metrics — the
// ground truth the introspection dataflow must reproduce.
func runTracedPipeline(t *testing.T, processes, epochs int) (*trace.Tracer, *runtime.MetricsSnapshot) {
	t.Helper()
	tr := trace.New(trace.Config{RingBits: 18})
	cfg := runtime.DefaultConfig(2)
	cfg.Processes = processes
	cfg.Tracer = tr
	scope, err := lib.NewScope(cfg)
	if err != nil {
		t.Fatal(err)
	}
	input, nums := lib.NewInput[int64](scope, "nums", nil)
	evens := lib.Where(nums, func(v int64) bool { return v%2 == 0 })
	counted := lib.Count(evens, nil)
	col := lib.Collect(counted)
	if err := scope.C.Start(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		batch := make([]int64, 20)
		for i := range batch {
			batch[i] = int64(e*len(batch) + i)
		}
		input.OnNext(batch...)
	}
	input.Close()
	if err := scope.C.Join(); err != nil {
		t.Fatal(err)
	}
	if len(col.Epochs()) != epochs {
		t.Fatalf("pipeline produced %d epochs, want %d", len(col.Epochs()), epochs)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; enlarge RingBits for this test", tr.Dropped())
	}
	return tr, scope.C.Metrics()
}

// TestAnalyzeMatchesMetrics is the tentpole's acceptance check: the
// self-introspection dataflow, fed the raw event log, must reproduce the
// per-stage invocation counts that MetricsSnapshot reports for the same
// run — in one process, and across two, where half the exchanged batches
// are decoded off the wire before they are counted.
func TestAnalyzeMatchesMetrics(t *testing.T) {
	for _, processes := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dp", processes), func(t *testing.T) {
			tr, metrics := runTracedPipeline(t, processes, 6)
			rep, err := Analyze(tr.Harvest(), 2*processes, tr.StageName)
			if err != nil {
				t.Fatal(err)
			}
			counts := rep.Counts()
			for _, sm := range metrics.Stages {
				got := counts[int32(sm.Stage)]
				if got.Records != sm.Records {
					t.Errorf("stage %s: introspection says %d records, metrics says %d",
						sm.Name, got.Records, sm.Records)
				}
				if got.Notifications != sm.Notifications {
					t.Errorf("stage %s: introspection says %d notifications, metrics says %d",
						sm.Name, got.Notifications, sm.Notifications)
				}
			}
			// And nothing invented: every counted stage exists in the metrics.
			byID := make(map[int32]bool)
			for _, sm := range metrics.Stages {
				byID[int32(sm.Stage)] = true
			}
			for _, c := range rep.StageCounts {
				if !byID[c.Stage] {
					t.Errorf("introspection reports unknown stage %d", c.Stage)
				}
			}
		})
	}
}

// TestAnalyzeEpochSummaries checks the per-epoch critical-path output: one
// summary per fed epoch, internally consistent.
func TestAnalyzeEpochSummaries(t *testing.T) {
	const epochs = 5
	tr, _ := runTracedPipeline(t, 1, epochs)
	rep, err := Analyze(tr.Harvest(), 2, tr.StageName)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != epochs {
		t.Fatalf("got %d epoch summaries, want %d: %+v", len(rep.Epochs), epochs, rep.Epochs)
	}
	for i, s := range rep.Epochs {
		if s.Epoch != int64(i) {
			t.Errorf("summary %d covers epoch %d", i, s.Epoch)
		}
		if s.Records == 0 {
			t.Errorf("epoch %d: no records", s.Epoch)
		}
		if s.CriticalPathNanos > s.BusyNanos {
			t.Errorf("epoch %d: critical path %d exceeds total busy %d", s.Epoch, s.CriticalPathNanos, s.BusyNanos)
		}
		if s.BusyNanos > 0 && (s.CriticalPathNanos == 0 || s.CriticalWorker < 0 || s.SlowestStage < 0) {
			t.Errorf("epoch %d: incomplete attribution: %+v", s.Epoch, s)
		}
	}
}

// TestAnalyzeEmptyLog: an empty log analyzes to an empty report, not an
// error or a hang.
func TestAnalyzeEmptyLog(t *testing.T) {
	rep, err := Analyze(nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StageCounts) != 0 || len(rep.Epochs) != 0 || rep.Events != 0 {
		t.Fatalf("empty log produced %+v", rep)
	}
}
