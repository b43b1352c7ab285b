package harness

import (
	"strings"
	"testing"
	"time"
)

// The harness tests run each experiment at miniature scale to verify the
// drivers end to end; EXPERIMENTS.md records full-scale runs.

func TestFig6aSmoke(t *testing.T) {
	rep, err := Fig6a(Fig6aOptions{Processes: []int{1, 2}, WorkersPerProcess: 2,
		RecordsPerWorker: 500, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "fig6a") {
		t.Fatal("render")
	}
}

func TestFig6bSmoke(t *testing.T) {
	rep, err := Fig6b(Fig6bOptions{Processes: []int{1, 2}, WorkersPerProcess: 2, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig6cSmoke(t *testing.T) {
	rep, err := Fig6c(Fig6cOptions{Processes: 2, WorkersPerProcess: 2, Nodes: 100, Edges: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig6dSmoke(t *testing.T) {
	rep, err := Fig6d(Fig6dOptions{Workers: []int{1, 2}, Documents: 100, WordsPerDoc: 20,
		Nodes: 200, Edges: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig6eSmoke(t *testing.T) {
	rep, err := Fig6e(Fig6eOptions{Workers: []int{1, 2}, DocsPerWorker: 50, WordsPerDoc: 20,
		EdgesPerWorker: 200, NodesPerWorker: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestTable1Smoke(t *testing.T) {
	rep, err := Table1(Table1Options{Processes: 1, WorkersPerProcess: 2,
		PRNodes: 150, PREdges: 500, PageRankIters: 3,
		WCCChains: 2, WCCLen: 10, SCCCycles: 2, SCCLen: 5,
		ASPChains: 2, ASPLen: 10, ASPSources: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig7aSmoke(t *testing.T) {
	rep, err := Fig7a(Fig7aOptions{Workers: []int{2}, Nodes: 150, Edges: 600, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig7bSmoke(t *testing.T) {
	rep, err := Fig7b(Fig7bOptions{Workers: []int{1, 2}, Records: 5000, Dim: 128, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig7cSmoke(t *testing.T) {
	rep, err := Fig7c(Fig7cOptions{Processes: 1, WorkersPerProcess: 2, Epochs: 4,
		TweetsPerEpoch: 100, K: 4, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig8Smoke(t *testing.T) {
	rep, err := Fig8(Fig8Options{Processes: 1, WorkersPerProcess: 2, Epochs: 4,
		TweetsPerEpoch: 100, QueriesPerEpoch: 2, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestQuantiles(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2}
	q := quantiles(ds, 0, 0.5, 1.0)
	if q[0] != 1 || q[1] != 2 || q[2] != 4 {
		t.Fatalf("q = %v", q)
	}
	if z := quantiles(nil, 0.5); z[0] != 0 {
		t.Fatal("empty sample")
	}
}

func TestSplitWords(t *testing.T) {
	got := splitWords("  a bb  ccc ")
	if len(got) != 3 || got[0] != "a" || got[1] != "bb" || got[2] != "ccc" {
		t.Fatalf("got %v", got)
	}
	if len(splitWords("")) != 0 {
		t.Fatal("empty doc")
	}
}

// TestIngressSmoke runs the serving experiment at miniature scale with
// in-process servers (no re-exec from a test binary); naiad-bench runs the
// same driver with real child processes.
func TestIngressSmoke(t *testing.T) {
	rep, err := Ingress(IngressOptions{
		Servers:          2,
		Streamers:        2,
		SlowReaders:      1,
		Disconnectors:    1,
		Batch:            8,
		Duration:         300 * time.Millisecond,
		OverloadDuration: 300 * time.Millisecond,
		Seed:             20130101,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	out := rep.String()
	if !strings.Contains(out, "steady") || !strings.Contains(out, "overload") {
		t.Fatalf("render:\n%s", out)
	}
	if len(rep.Notes) < 2 || !strings.Contains(rep.Notes[1], "all accounted") {
		t.Fatalf("notes = %v", rep.Notes)
	}
}
