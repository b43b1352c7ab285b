package lib

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"naiad/internal/codec"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

func testCfg() runtime.Config {
	return runtime.Config{Processes: 2, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
}

func newTestScope(t *testing.T, cfg runtime.Config) *Scope {
	t.Helper()
	s, err := NewScope(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func join(t *testing.T, s *Scope) {
	t.Helper()
	if err := s.C.Join(); err != nil {
		t.Fatal(err)
	}
}

func sortedInts(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSelectWhereSelectMany(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	doubled := Select(src, func(v int64) int64 { return v * 2 }, codec.Int64())
	evens := Where(doubled, func(v int64) bool { return v%4 == 0 })
	expanded := SelectMany(evens, func(v int64) []int64 { return []int64{v, v + 1} }, codec.Int64())
	col := Collect(expanded)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(1, 2, 3, 4)
	in.Close()
	join(t, s)
	// 1,2,3,4 → 2,4,6,8 → keep 4,8 → expand 4,5,8,9
	if got := sortedInts(col.Epoch(0)); fmt.Sprint(got) != "[4 5 8 9]" {
		t.Fatalf("got %v", got)
	}
}

func TestConcatAndDistinct(t *testing.T) {
	s := newTestScope(t, testCfg())
	inA, a := NewInput[int64](s, "a", codec.Int64())
	inB, b := NewInput[int64](s, "b", codec.Int64())
	both := Concat(a, b)
	uniq := Distinct(both)
	col := Collect(uniq)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	inA.OnNext(1, 2, 2, 3)
	inB.OnNext(2, 3, 4)
	inA.OnNext(1)
	inB.OnNext(1)
	inA.Close()
	inB.Close()
	join(t, s)
	if got := sortedInts(col.Epoch(0)); fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("epoch 0 = %v", got)
	}
	// Distinct is per-time: epoch 1 re-emits 1.
	if got := sortedInts(col.Epoch(1)); fmt.Sprint(got) != "[1]" {
		t.Fatalf("epoch 1 = %v", got)
	}
}

func TestDistinctCumulative(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	uniq := DistinctCumulative(src)
	col := Collect(uniq)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(1, 2)
	in.OnNext(2, 3, 1)
	in.Close()
	join(t, s)
	// DistinctCumulative is asynchronous (§2.4): which epoch a first
	// occurrence lands in depends on arrival order, but each value is
	// emitted exactly once across the whole stream.
	var all []int64
	for _, e := range col.Epochs() {
		all = append(all, col.Epoch(e)...)
	}
	if got := sortedInts(all); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("all emissions = %v", got)
	}
}

// TestWordCount is the prototypical Naiad program of §4.1: SelectMany then
// GroupBy, fed epoch by epoch.
func TestWordCount(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[string](s, "docs", codec.String())
	words := SelectMany(src, func(doc string) []string {
		return strings.Fields(doc)
	}, codec.String())
	counts := GroupBy(words, func(w string) string { return w },
		func(w string, ws []string) []Pair[string, int64] {
			return []Pair[string, int64]{KV(w, int64(len(ws)))}
		}, nil)
	col := Collect(counts)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext("the quick fox", "the lazy dog")
	in.OnNext("the end")
	in.Close()
	join(t, s)
	got := map[string]int64{}
	for _, p := range col.Epoch(0) {
		got[p.Key] = p.Val
	}
	if got["the"] != 2 || got["quick"] != 1 || got["dog"] != 1 {
		t.Fatalf("epoch 0 counts = %v", got)
	}
	got1 := map[string]int64{}
	for _, p := range col.Epoch(1) {
		got1[p.Key] = p.Val
	}
	if got1["the"] != 1 || got1["end"] != 1 || len(got1) != 2 {
		t.Fatalf("epoch 1 counts = %v", got1)
	}
}

func TestCountAndFold(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	counts := Count(src, nil)
	col := Collect(counts)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(5, 5, 5, 9)
	in.Close()
	join(t, s)
	got := map[int64]int64{}
	for _, p := range col.Epoch(0) {
		got[p.Key] = p.Val
	}
	if got[5] != 3 || got[9] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestMinMaxByKey(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[Pair[string, int64]](s, "in", nil)
	mins := MinByKey(src, func(a, b int64) bool { return a < b }, nil)
	maxs := MaxByKey(src, func(a, b int64) bool { return a < b }, nil)
	minCol := Collect(mins)
	maxCol := Collect(maxs)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(KV("x", int64(3)), KV("x", int64(1)), KV("y", int64(7)), KV("x", int64(2)))
	in.Close()
	join(t, s)
	gotMin := map[string]int64{}
	for _, p := range minCol.Epoch(0) {
		gotMin[p.Key] = p.Val
	}
	if gotMin["x"] != 1 || gotMin["y"] != 7 {
		t.Fatalf("min = %v", gotMin)
	}
	gotMax := map[string]int64{}
	for _, p := range maxCol.Epoch(0) {
		gotMax[p.Key] = p.Val
	}
	if gotMax["x"] != 3 || gotMax["y"] != 7 {
		t.Fatalf("max = %v", gotMax)
	}
}

func TestJoinAsync(t *testing.T) {
	s := newTestScope(t, testCfg())
	inA, a := NewInput[Pair[int64, string]](s, "a", nil)
	inB, b := NewInput[Pair[int64, int64]](s, "b", nil)
	joined := Join(a, b, func(k int64, av string, bv int64) string {
		return fmt.Sprintf("%d:%s:%d", k, av, bv)
	}, codec.String())
	col := Collect(joined)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	inA.OnNext(KV(int64(1), "one"), KV(int64(2), "two"))
	inB.OnNext(KV(int64(1), int64(100)), KV(int64(1), int64(101)), KV(int64(3), int64(300)))
	inA.Close()
	inB.Close()
	join(t, s)
	var all []string
	for _, e := range col.Epochs() {
		all = append(all, col.Epoch(e)...)
	}
	sort.Strings(all)
	if fmt.Sprint(all) != "[1:one:100 1:one:101]" {
		t.Fatalf("join = %v", all)
	}
}

func TestJoinByTime(t *testing.T) {
	s := newTestScope(t, testCfg())
	inA, a := NewInput[Pair[int64, string]](s, "a", nil)
	inB, b := NewInput[Pair[int64, int64]](s, "b", nil)
	joined := JoinByTime(a, b, func(k int64, av string, bv int64) string {
		return fmt.Sprintf("%d:%s:%d", k, av, bv)
	}, codec.String())
	col := Collect(joined)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	// Epoch 0: key 1 on both sides. Epoch 1: key 1 only on the right —
	// per-time semantics must NOT join across epochs.
	inA.OnNext(KV(int64(1), "one"))
	inB.OnNext(KV(int64(1), int64(100)))
	inA.OnNext()
	inB.OnNext(KV(int64(1), int64(999)))
	inA.Close()
	inB.Close()
	join(t, s)
	if got := col.Epoch(0); len(got) != 1 || got[0] != "1:one:100" {
		t.Fatalf("epoch 0 = %v", got)
	}
	if got := col.Epoch(1); len(got) != 0 {
		t.Fatalf("epoch 1 = %v (joined across epochs)", got)
	}
}

func TestAggregateMonotonic(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[Pair[int64, int64]](s, "in", nil)
	best := AggregateMonotonic(src, func(cand, inc int64) bool { return cand < inc })
	col := Collect(best)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(KV(int64(1), int64(5)), KV(int64(1), int64(3)), KV(int64(1), int64(9)))
	in.Close()
	join(t, s)
	// The aggregate is uncoordinated (§2.4): it may emit several interim
	// values depending on arrival order, but the emissions are strictly
	// improving and the last one is the true minimum.
	recs := col.Epoch(0)
	if len(recs) == 0 {
		t.Fatal("no emissions")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Val >= recs[i-1].Val {
			t.Fatalf("emissions not strictly improving: %v", recs)
		}
	}
	if recs[len(recs)-1].Val != 3 {
		t.Fatalf("final value = %v, want 3", recs[len(recs)-1])
	}
}

// TestIterateReachability computes graph reachability with a Datalog-style
// asynchronous loop: Join + DistinctCumulative + feedback, terminating by
// quiescence.
func TestIterateReachability(t *testing.T) {
	s := newTestScope(t, testCfg())
	// Edges of a small DAG: 1→2→3→4, 2→4.
	inEdges, edges := NewInput[Pair[int64, int64]](s, "edges", nil)
	inSeeds, seeds := NewInput[int64](s, "seeds", codec.Int64())

	edgesIn := EnterLoop(edges, 1)
	reached := Iterate(seeds, 100, func(inner *Stream[int64]) *Stream[int64] {
		keyed := Select(inner, func(n int64) Pair[int64, int64] { return KV(n, n) }, nil)
		stepped := Join(keyed, edgesIn, func(_ int64, _ int64, dst int64) int64 { return dst }, codec.Int64())
		return DistinctCumulative(stepped)
	})
	col := Collect(Distinct(reached))
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	inEdges.Send(KV(int64(1), int64(2)), KV(int64(2), int64(3)), KV(int64(3), int64(4)), KV(int64(2), int64(4)))
	inSeeds.Send(1)
	inEdges.Close()
	inSeeds.Close()
	join(t, s)
	if got := sortedInts(col.Epoch(0)); fmt.Sprint(got) != "[2 3 4]" {
		t.Fatalf("reachable = %v", got)
	}
}

func TestIterateRespectsMaxIters(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	// The body always re-emits, so only MaxIterations stops the loop.
	out := Iterate(src, 5, func(inner *Stream[int64]) *Stream[int64] {
		return Select(inner, func(v int64) int64 { return v + 1 }, codec.Int64())
	})
	col := Collect(out)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(0)
	in.Close()
	join(t, s)
	// Iterations 0..4 emit 1..5; the feedback drops the 5th circulation.
	if got := sortedInts(col.Epoch(0)); fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("got %v", got)
	}
}

func TestProbeOnStream(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	sq := Select(src, func(v int64) int64 { return v * v }, codec.Int64())
	col := Collect(sq)
	probe := Probe(sq)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(3)
	probe.WaitFor(0)
	if got := col.Epoch(0); fmt.Sprint(got) != "[9]" {
		t.Fatalf("after WaitFor: %v", got)
	}
	in.Close()
	join(t, s)
}

func TestSubscribeParallel(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	shuffled := Exchange(src, func(v int64) uint64 { return uint64(v) })
	var colMu sortableInts
	SubscribeParallel(shuffled, func(worker int, epoch int64, records []int64) {
		colMu.add(records)
	})
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(1, 2, 3, 4, 5, 6, 7, 8)
	in.Close()
	join(t, s)
	if got := colMu.sorted(); fmt.Sprint(got) != "[1 2 3 4 5 6 7 8]" {
		t.Fatalf("got %v", got)
	}
}

type sortableInts struct {
	mu   sync.Mutex
	vals []int64
}

func (s *sortableInts) add(vs []int64) {
	s.mu.Lock()
	s.vals = append(s.vals, vs...)
	s.mu.Unlock()
}

func (s *sortableInts) sorted() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedInts(s.vals)
}

func TestHashFastPathsDiffer(t *testing.T) {
	if Hash(int64(1)) == Hash(int64(2)) {
		t.Fatal("int64 collision")
	}
	if Hash("a") == Hash("b") {
		t.Fatal("string collision")
	}
	if Hash(int32(5)) != Hash(int64(5)) {
		// Not required to be equal, but both must be deterministic.
		_ = 0
	}
	type custom struct{ A, B int64 }
	if Hash(custom{1, 2}) == Hash(custom{2, 1}) {
		t.Fatal("struct fallback collision")
	}
	if Hash(custom{1, 2}) != Hash(custom{1, 2}) {
		t.Fatal("struct fallback nondeterministic")
	}
}

func TestHashPairUsesKeyOnly(t *testing.T) {
	h := pairHasher[int64, string]()
	if h(KV(int64(1), "x")) != h(KV(int64(1), "y")) || h(KV(int64(1), "x")) != Hash(int64(1)) {
		t.Fatal("the pair hash must be the key's hash, ignoring the value")
	}
}

func TestBarrierEmitsOncePerEpoch(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	bar := Barrier(src)
	col := Collect(bar)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(1, 2, 3)
	in.OnNext(4)
	in.Close()
	join(t, s)
	// One zero record per worker-vertex that saw data, per epoch; at least
	// one and at most workers.
	n0 := len(col.Epoch(0))
	if n0 < 1 || n0 > 4 {
		t.Fatalf("epoch 0 barrier count = %d", n0)
	}
}

func TestLoopMisusePanics(t *testing.T) {
	s := newTestScope(t, testCfg())
	_, src := NewInput[int64](s, "in", codec.Int64())
	loop := NewLoop(s, 0, src, 10)
	inner := loop.Enter(src)
	loop.Return(inner)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Return")
		}
	}()
	loop.Return(inner)
}

func TestTimestampDepthsThroughLoop(t *testing.T) {
	s := newTestScope(t, testCfg())
	in, src := NewInput[int64](s, "in", codec.Int64())
	var depths []uint8
	out := Iterate(src, 3, func(inner *Stream[int64]) *Stream[int64] {
		depths = append(depths, inner.Depth())
		seen := InspectParallel(inner, func(t ts.Timestamp, _ int64) {
			if t.Depth != 1 {
				panic(fmt.Sprintf("inner time %v has depth %d", t, t.Depth))
			}
		})
		return Select(seen, func(v int64) int64 { return v }, codec.Int64())
	})
	if out.Depth() != 0 {
		t.Fatalf("egressed depth = %d", out.Depth())
	}
	if len(depths) != 1 || depths[0] != 1 {
		t.Fatalf("inner depth = %v", depths)
	}
	col := Collect(out)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(7)
	in.Close()
	join(t, s)
	if n := len(col.Epoch(0)); n != 3 {
		t.Fatalf("expected 3 circulations, got %d", n)
	}
}

func TestProbeInsideLoopPanics(t *testing.T) {
	s := newTestScope(t, testCfg())
	_, src := NewInput[int64](s, "in", codec.Int64())
	inner := EnterLoop(src, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Probe(inner)
}

func TestSubscribeInsideLoopPanics(t *testing.T) {
	s := newTestScope(t, testCfg())
	_, src := NewInput[int64](s, "in", codec.Int64())
	inner := EnterLoop(src, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Subscribe(inner, func(int64, []int64) {})
}

func TestConcatDepthMismatchPanics(t *testing.T) {
	s := newTestScope(t, testCfg())
	_, a := NewInput[int64](s, "a", codec.Int64())
	_, b := NewInput[int64](s, "b", codec.Int64())
	inner := EnterLoop(b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concat(a, inner)
}

func TestLeaveLoopAtTopPanics(t *testing.T) {
	s := newTestScope(t, testCfg())
	_, src := NewInput[int64](s, "in", codec.Int64())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LeaveLoop(src)
}
