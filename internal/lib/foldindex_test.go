package lib

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"naiad/internal/runtime"
	"naiad/internal/testutil"
)

// foldKey has no native hash, so FoldByKey indexes it with a Go map.
type foldKey struct {
	A int32
	B string
}

// TestFoldByKeyMatchesMapFold is a differential test of FoldByKey's
// per-time key index against a plain-map reference fold, for int64, string
// and struct keys. Epochs hold from one to a few hundred distinct keys (an
// index outgrows its first table, and a recycled one meets fewer keys than
// it last held), and several epochs are in flight at once. Every epoch's
// output must equal the reference in order, and init must be called for
// the same keys in the same sequence.
func TestFoldByKeyMatchesMapFold(t *testing.T) {
	seed := testutil.Seed(t)
	t.Run("int64", func(t *testing.T) {
		foldDifferential(t, rand.New(rand.NewSource(seed)), func(i int) int64 { return int64(i-200) * 1_000_003 })
	})
	t.Run("string", func(t *testing.T) {
		foldDifferential(t, rand.New(rand.NewSource(seed)), func(i int) string { return fmt.Sprint("key-", i) })
	})
	t.Run("struct", func(t *testing.T) {
		foldDifferential(t, rand.New(rand.NewSource(seed)), func(i int) foldKey {
			return foldKey{A: int32(i % 7), B: fmt.Sprint("k", i)}
		})
	})
}

func foldDifferential[K comparable](t *testing.T, rng *rand.Rand, key func(int) K) {
	s := newTestScope(t, runtime.Config{Processes: 1, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal})
	in, src := NewInput[Pair[K, int64]](s, "in", nil)
	var inits []K
	folded := FoldByKey(src,
		func(k K) int64 { inits = append(inits, k); return int64(len(inits)) },
		func(acc, v int64) int64 { return acc*31 + v }, nil)
	col := Collect(folded)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	var wantInits []K
	var want [][]Pair[K, int64]
	for _, distinct := range []int{200, 10, 130, 65, 1, 300, 64, 33, 257} {
		keys := rng.Perm(400)[:distinct]
		recs := make([]Pair[K, int64], 4*distinct)
		for i := range recs {
			recs[i] = KV(key(keys[rng.Intn(distinct)]), rng.Int63n(100))
		}
		idx := make(map[K]int)
		var out []Pair[K, int64]
		for _, r := range recs {
			i, ok := idx[r.Key]
			if !ok {
				wantInits = append(wantInits, r.Key)
				i, idx[r.Key] = len(out), len(out)
				out = append(out, KV(r.Key, int64(len(wantInits))))
			}
			out[i].Val = out[i].Val*31 + r.Val
		}
		want = append(want, out)
		for len(recs) > 0 {
			n := min(len(recs), 1+rng.Intn(100))
			in.Send(recs[:n]...)
			recs = recs[n:]
		}
		in.Advance()
	}
	in.Close()
	join(t, s)
	for e, w := range want {
		if got := col.Epoch(int64(e)); !reflect.DeepEqual(got, w) {
			t.Errorf("epoch %d: %d pairs %v, want %d pairs %v", e, len(got), got, len(w), w)
		}
	}
	if !reflect.DeepEqual(inits, wantInits) {
		t.Errorf("init calls = %v, want %v", inits, wantInits)
	}
}
