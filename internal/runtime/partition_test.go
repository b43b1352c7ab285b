package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
)

// TestBatchPartitionerMatchesBoxed: for every peer count and random typed
// columns, the one-pass destinations equal the boxed part(rec) % peers,
// and the same-destination flag is exact, one-record and all-same batches
// included. A foreign or boxed column reports ok false, so the router takes
// the boxed fallback.
func TestBatchPartitionerMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t)))
	part, bpart := TypedPartitioner(func(x int64) uint64 { return uint64(x) })
	for _, peers := range []int{1, 2, 3, 4, 5, 8} {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, shape := range []string{"random", "same", "last differs"} {
				recs := make([]int64, n)
				for i := range recs {
					if shape == "random" {
						recs[i] = rng.Int63() - rng.Int63()
					} else {
						recs[i] = 3 + int64(peers)*rng.Int63n(1<<20)
					}
				}
				if shape == "last differs" {
					recs[n-1]++
				}
				want := make([]uint32, n)
				for i, r := range recs {
					want[i] = uint32(part(r) % uint64(peers))
				}
				wantSame := !slices.ContainsFunc(want, func(d uint32) bool { return d != want[0] })
				dst := make([]uint32, n)
				same, ok := bpart(batchbuf.Of(recs), peers, dst)
				if !ok {
					t.Fatalf("peers=%d n=%d %s: typed column refused", peers, n, shape)
				}
				if !slices.Equal(dst, want) {
					t.Fatalf("peers=%d n=%d %s: destinations %v, want %v", peers, n, shape, dst, want)
				}
				if same != wantSame {
					t.Fatalf("peers=%d n=%d %s: same = %v, want %v", peers, n, shape, same, wantSame)
				}
			}
		}
	}
	dst := make([]uint32, 2)
	for name, b := range map[string]*Batch{
		"foreign typed": batchbuf.Of([]int32{1, 2}),
		"boxed":         batchbuf.Wrap([]any{int64(1), int64(2)}),
	} {
		if _, ok := bpart(b, 2, dst); ok {
			t.Errorf("%s column: batch partitioner reported ok, want the boxed fallback", name)
		}
	}
}

// TestBoxedBatchTakesPartitionerFallback: a boxed batch on a connector with
// a typed batch partitioner is routed by the boxed partitioner, record by
// record, to the destinations a typed batch of the same records gets.
func TestBoxedBatchTakesPartitionerFallback(t *testing.T) {
	cfg := Config{Processes: 1, WorkersPerProcess: 2, Accumulation: AccLocalGlobal,
		SafetyChecks: true, Watchdog: 20 * time.Second}
	c, err := NewComputation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInput("in")
	src := c.AddStage("src", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &funcVertex{onRecv: func(_ int, _ Message, t ts.Timestamp) {
			ctx.SendBatchBy(0, batchbuf.Wrap([]any{int64(0), int64(1), int64(2), int64(3), int64(5)}), t)
			ctx.SendBatchBy(0, int64Batch(6, 7, 9), t)
		}}
	}, Pinned(0))
	c.Connect(in.Stage(), 0, src, nil, codec.Int64())
	seen := &batchSeen{batches: map[int][]*Batch{}, recs: map[int][]string{}}
	dst := c.AddStage("dst", graph.RoleNormal, 0, func(ctx *Context) Vertex {
		return &batchSeenVertex{ctx: ctx, seen: seen}
	})
	part, bpart := TypedPartitioner(func(x int64) uint64 { return uint64(x) })
	c.ConnectBatch(src, 0, dst, part, bpart, codec.Int64())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(int64(0))
	in.Close()
	join(t, c)
	// Batch boundaries depend on the outbound builder's merging; the
	// records each vertex receives do not.
	for v, want := range []string{"0 2 6", "1 3 5 7 9"} {
		got := strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(fmt.Sprint(seen.recs[v])))
		slices.Sort(got)
		if strings.Join(got, " ") != want {
			t.Errorf("vertex %d received %v, want records %s", v, seen.recs[v], want)
		}
	}
}
