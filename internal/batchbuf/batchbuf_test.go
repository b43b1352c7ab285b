package batchbuf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"naiad/internal/testutil"
)

func TestTypedPoolRecycles(t *testing.T) {
	p := NewPool[int64]()
	b, col := p.Get(8)
	col.Data = append(col.Data, 1, 2, 3)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got := b.Record(1).(int64); got != 2 {
		t.Fatalf("Record(1) = %d, want 2", got)
	}
	// Under the race detector sync.Pool drops a quarter of Puts at random,
	// so one round may miss; twenty all missing would be a real failure.
	for range 20 {
		b.Release()
		b2, col2 := p.Get(4)
		if b2 == b {
			if col2.Len() != 0 {
				t.Fatalf("recycled batch not reset: %d records", col2.Len())
			}
			return
		}
		b, col = b2, col2
		col.Data = append(col.Data, 1)
	}
	t.Fatalf("pool did not recycle the released batch")
}

func TestRetainRelease(t *testing.T) {
	b, col := PoolFor[string]().Get(4)
	col.Data = append(col.Data, "a")
	b.Retain()
	b.Release()
	if b.Len() != 1 {
		t.Fatalf("batch reset while a reference remained")
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
	}()
	b.Release()
}

func TestPoolForSharesArena(t *testing.T) {
	if PoolFor[int64]() != PoolFor[int64]() {
		t.Fatalf("PoolFor returned distinct pools for one type")
	}
}

func TestAppendIndexTypedNoBox(t *testing.T) {
	src := Of([]int64{10, 20, 30})
	dst := src.NewLike(4)
	if !dst.Col().AppendIndex(src.Col(), 2) || !dst.Col().AppendIndex(src.Col(), 0) {
		t.Fatalf("typed AppendIndex failed")
	}
	got := dst.Col().Slice().([]int64)
	if len(got) != 2 || got[0] != 30 || got[1] != 10 {
		t.Fatalf("scattered = %v, want [30 10]", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst.Col().reset()
		dst.Col().AppendIndex(src.Col(), 1)
	})
	if allocs != 0 {
		t.Fatalf("typed AppendIndex allocates %.1f/op, want 0", allocs)
	}
}

func TestBoxedFallbacks(t *testing.T) {
	bx := GetBoxed(2)
	if !bx.Append(int64(7)) || !bx.Append("mixed") {
		t.Fatalf("boxed Append rejected a record")
	}
	typed := Of([]int64{1})
	if typed.Append("not an int64") {
		t.Fatalf("typed Append accepted a foreign type")
	}
	if !bx.Col().AppendIndex(typed.Col(), 0) {
		t.Fatalf("boxed AppendIndex failed")
	}
	if bx.Len() != 3 || bx.Record(2).(int64) != 1 {
		t.Fatalf("boxed column contents wrong: %v", bx.Col().Slice())
	}
	bx.Release()
}

func TestAppendBatchBulk(t *testing.T) {
	src := Of([]int64{1, 2, 3})
	dst := src.NewLike(8)
	if !dst.AppendBatch(src) || !dst.AppendBatch(src) {
		t.Fatalf("AppendBatch failed")
	}
	got := dst.Col().Slice().([]int64)
	if len(got) != 6 || got[5] != 3 {
		t.Fatalf("AppendBatch = %v", got)
	}
	// Boxed destination accepts a typed source (boxing).
	bx := GetBoxed(4)
	if !bx.AppendBatch(src) || bx.Len() != 3 {
		t.Fatalf("boxed AppendBatch failed")
	}
	// Typed destination rejects a foreign-typed source.
	other := Of([]string{"x"})
	if dst.AppendBatch(other) {
		t.Fatalf("typed AppendBatch accepted foreign records")
	}
}

func TestWrapAndOneOwnership(t *testing.T) {
	w := Wrap([]any{int64(1), int64(2)})
	if w.Len() != 2 {
		t.Fatalf("Wrap lost records")
	}
	w.Release() // unpooled: just drops to GC

	// A one-record batch is what a one-record send session leaves as.
	one := ArenaFor(int64(0)).Get(1)
	if !one.Append(int64(42)) || one.Len() != 1 || one.Record(0).(int64) != 42 {
		t.Fatalf("one-record batch holds %v", one.Col().Slice())
	}
	one.Release()
}

func TestNewLikeOnUnpooledBatch(t *testing.T) {
	src := Of([]int64{5})
	bld := src.NewLike(16)
	if _, ok := bld.Col().(*Col[int64]); !ok {
		t.Fatalf("NewLike on an Of-batch did not produce a typed builder")
	}
	bld.Release()
}

func TestByteArena(t *testing.T) {
	b := GetBytes(300)
	if len(b) != 300 || cap(b) != 320 {
		t.Fatalf("GetBytes(300): len %d cap %d, want 300/320", len(b), cap(b))
	}
	PutBytes(b)
	b2 := GetBytes(310)
	if cap(b2) != 320 {
		t.Fatalf("size class not reused: cap %d", cap(b2))
	}
	// Foreign capacities are silently dropped.
	PutBytes(make([]byte, 0, 300))
	PutBytes(make([]byte, 0, 512))
	// Oversize requests fall back to plain allocation.
	huge := GetBytes(1<<20 + bytesHeadroom + 1)
	if len(huge) != 1<<20+bytesHeadroom+1 {
		t.Fatalf("oversize GetBytes wrong length")
	}
	PutBytes(huge)
}

// TestByteArenaFitsDataFrame: a data frame of 8192 16-byte records plus its
// envelope header (25 B + 8 per loop counter) lands in a class that wastes
// at most a third of the buffer. A power-of-two class wasted half of it.
func TestByteArenaFitsDataFrame(t *testing.T) {
	for depth := 0; depth <= 4; depth++ {
		n := 8192*16 + 25 + 8*depth
		b := GetBytes(n)
		if len(b) != n || 2*cap(b) > 3*n {
			t.Fatalf("GetBytes(%d): len %d cap %d, want the length and at most a third wasted", n, len(b), cap(b))
		}
		PutBytes(b)
	}
}

func TestColReleaseClearsData(t *testing.T) {
	type rec struct{ p *int }
	x := 7
	p := NewPool[rec]()
	b, col := p.Get(2)
	col.Data = append(col.Data, rec{p: &x})
	b.Release()
	_, col2 := p.Get(1)
	if d := col2.Data[:1]; d[0].p != nil {
		t.Fatalf("release did not clear pointerful records")
	}
}

// scatterByRecord is the per-record loop Scatter replaced in the router and
// the input (one AppendIndex interface call per record, every builder sized
// for the whole batch), kept as Scatter's oracle and benchmark baseline.
func scatterByRecord(b *Batch, dst []uint32, subs []*Batch) {
	for i, d := range dst {
		if subs[d] == nil {
			subs[d] = b.NewLike(b.Len())
		}
		subs[d].col.AppendIndex(b.col, i)
	}
}

type scatterRec struct {
	K int64
	S string
}

// TestScatterMatchesPerRecordLoop: for typed, boxed and mixed columns,
// every peer count the tests use and batch sizes on both sides of the
// builder hint, Scatter places every record exactly where the per-record
// loop did, in the same order, and never creates a builder for a
// destination that received nothing — an empty batch reaching routeBatchTo
// would post a zero-count progress update.
func TestScatterMatchesPerRecordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t)))
	columns := map[string]func(n int) *Batch{
		"typed pooled": func(n int) *Batch {
			b, col := PoolFor[int64]().Get(n)
			for i := 0; i < n; i++ {
				col.Data = append(col.Data, int64(i*7))
			}
			return b
		},
		"typed unpooled struct": func(n int) *Batch {
			recs := make([]scatterRec, n)
			for i := range recs {
				recs[i] = scatterRec{K: int64(i), S: fmt.Sprint("s", i)}
			}
			return Of(recs)
		},
		"boxed": func(n int) *Batch {
			b := GetBoxed(n)
			for i := 0; i < n; i++ {
				b.Append(int64(i))
			}
			return b
		},
		"mixed": func(n int) *Batch {
			recs := make([]any, n)
			for i := range recs {
				recs[i] = []any{int64(i), fmt.Sprint(i), float64(i) / 2}[i%3]
			}
			return Wrap(recs)
		},
	}
	for name, mk := range columns {
		for peers := 1; peers <= 5; peers++ {
			for _, n := range []int{0, 1, 3, 63, 64, 65, 4096} {
				for _, skew := range []bool{false, true} {
					b := mk(n)
					dst := make([]uint32, n)
					for i := range dst {
						if !skew {
							dst[i] = uint32(rng.Intn(peers))
						} else if i%17 == 0 {
							dst[i] = uint32(peers - 1) // all but a few to destination 0
						}
					}
					got, want := make([]*Batch, peers), make([]*Batch, peers)
					b.Scatter(dst, got)
					scatterByRecord(b, dst, want)
					total := 0
					for d := range got {
						if (got[d] == nil) != (want[d] == nil) {
							t.Fatalf("%s peers=%d n=%d: destination %d builder presence differs", name, peers, n, d)
						}
						if got[d] == nil {
							continue
						}
						if got[d].Len() == 0 {
							t.Fatalf("%s peers=%d n=%d: empty builder for destination %d", name, peers, n, d)
						}
						if !reflect.DeepEqual(got[d].Col().Slice(), want[d].Col().Slice()) {
							t.Fatalf("%s peers=%d n=%d: destination %d = %v, want %v",
								name, peers, n, d, got[d].Col().Slice(), want[d].Col().Slice())
						}
						total += got[d].Len()
						got[d].Release()
						want[d].Release()
					}
					if total != n {
						t.Fatalf("%s peers=%d n=%d: scattered %d records", name, peers, n, total)
					}
				}
			}
		}
	}
}

// TestDealMatchesScatter: Deal(first, subs) places every record exactly
// where Scatter does with round-robin destinations (first+i) mod workers,
// on typed and boxed columns; with fewer records than workers, the
// destinations that receive none stay nil.
func TestDealMatchesScatter(t *testing.T) {
	columns := map[string]func(n int) *Batch{
		"typed pooled": func(n int) *Batch {
			b, col := PoolFor[int64]().Get(n)
			for i := 0; i < n; i++ {
				col.Data = append(col.Data, int64(i*7))
			}
			return b
		},
		"typed unpooled struct": func(n int) *Batch {
			recs := make([]scatterRec, n)
			for i := range recs {
				recs[i] = scatterRec{K: int64(i), S: fmt.Sprint("s", i)}
			}
			return Of(recs)
		},
		"boxed": func(n int) *Batch {
			b := GetBoxed(n)
			for i := 0; i < n; i++ {
				b.Append(int64(i))
			}
			return b
		},
		"mixed": func(n int) *Batch {
			recs := make([]any, n)
			for i := range recs {
				recs[i] = []any{int64(i), fmt.Sprint(i), float64(i) / 2}[i%3]
			}
			return Wrap(recs)
		},
	}
	for name, mk := range columns {
		for _, workers := range []int{1, 2, 3, 4, 5, 8} {
			for _, n := range []int{0, 1, 2, 3, 4, 7, 64, 65, 4096} {
				for _, first := range []int{0, 1, workers - 1, workers + 2, 1000003} {
					b := mk(n)
					dst := make([]uint32, n)
					for i := range dst {
						dst[i] = uint32((first + i) % workers)
					}
					got, want := make([]*Batch, workers), make([]*Batch, workers)
					b.Deal(first, got)
					b.Scatter(dst, want)
					dealt := 0
					for d := range got {
						if (got[d] == nil) != (want[d] == nil) {
							t.Fatalf("%s workers=%d n=%d first=%d: destination %d builder presence differs",
								name, workers, n, first, d)
						}
						if got[d] == nil {
							continue
						}
						dealt++
						if !reflect.DeepEqual(got[d].Col().Slice(), want[d].Col().Slice()) {
							t.Fatalf("%s workers=%d n=%d first=%d: destination %d = %v, want %v",
								name, workers, n, first, d, got[d].Col().Slice(), want[d].Col().Slice())
						}
						got[d].Release()
						want[d].Release()
					}
					if want := min(n, workers); dealt != want {
						t.Fatalf("%s workers=%d n=%d first=%d: %d destinations got records, want %d",
							name, workers, n, first, dealt, want)
					}
					b.Release()
				}
			}
		}
	}
}

// A pooled column of a pointer-free type is recycled without zeroing; one
// that holds pointers is still cleared (TestColReleaseClearsData).
func TestPointerFree(t *testing.T) {
	type flat struct {
		A [2]int32
		B struct{ F float64 }
	}
	if !pointerFree(reflect.TypeFor[flat]()) || pointerFree(reflect.TypeFor[scatterRec]()) ||
		pointerFree(reflect.TypeFor[*int]()) || pointerFree(reflect.TypeFor[[]int]()) {
		t.Fatal("pointerFree misclassified a type")
	}
}

// BenchmarkScatter is the exchange's scatter step, ns per record, at the
// two shapes the end-to-end benchmark has: a few records per batch
// (loop_tcp) and a full batch (keycount), against the loop it replaced.
// "deal" is the input's round-robin Deal over the same column, which needs
// no destination array.
func BenchmarkScatter(b *testing.B) {
	for _, peers := range []int{2, 3} {
		for _, n := range []int{4, 16384} {
			src, col := PoolFor[[2]int64]().Get(n)
			dst := make([]uint32, n)
			for i := 0; i < n; i++ {
				col.Data = append(col.Data, [2]int64{int64(i), 1})
				dst[i] = uint32((i * 2654435761) % peers)
			}
			for name, scatter := range map[string]func(*Batch, []uint32, []*Batch){
				"kernel": (*Batch).Scatter, "loop": scatterByRecord,
				"deal": func(b *Batch, _ []uint32, subs []*Batch) { b.Deal(0, subs) },
			} {
				b.Run(fmt.Sprintf("peers=%d/n=%d/%s", peers, n, name), func(b *testing.B) {
					subs := make([]*Batch, peers)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						scatter(src, dst, subs)
						for d, sub := range subs {
							if sub != nil {
								sub.Release()
								subs[d] = nil
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
				})
			}
		}
	}
}
