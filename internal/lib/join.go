package lib

import (
	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Join is the asynchronous, cumulative hash join of the Bloom subset
// (§4.2): it emits a match the moment both sides of a key have been seen,
// never calling NotifyAt, so Datalog-style loops built from it run without
// coordination. State accumulates for the lifetime of the operator, which
// is the monotone-set semantics those loops assume.
func Join[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]],
	f func(K, A, B) R, cod codec.Codec) *Stream[R] {
	if a.depth != b.depth {
		panic("lib: Join requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("Join", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		left := make(map[K][]A)
		right := make(map[K][]B)
		return &joinVertex[K, A, B]{
			onLeft: func(rec Pair[K, A], t ts.Timestamp) {
				left[rec.Key] = append(left[rec.Key], rec.Val)
				for _, bv := range right[rec.Key] {
					ctx.SendBy(0, f(rec.Key, rec.Val, bv), t)
				}
			},
			onRight: func(rec Pair[K, B], t ts.Timestamp) {
				right[rec.Key] = append(right[rec.Key], rec.Val)
				for _, av := range left[rec.Key] {
					ctx.SendBy(0, f(rec.Key, av, rec.Val), t)
				}
			},
		}
	})
	connect(c, a.stage, a.port, st, pairHasher[K, A](), a.cod) // input 0
	connect(c, b.stage, b.port, st, pairHasher[K, B](), b.cod) // input 1
	return &Stream[R]{scope: a.scope, stage: st, port: 0, cod: orGob[R](cod), depth: a.depth}
}

// JoinByTime is the synchronous relational join: both inputs are buffered
// per timestamp and matches are emitted once the time completes, so each
// epoch joins exactly with its own epoch's records.
func JoinByTime[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]],
	f func(K, A, B) R, cod codec.Codec) *Stream[R] {
	if a.depth != b.depth {
		panic("lib: JoinByTime requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("JoinByTime", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		type buffered struct {
			left  []Pair[K, A]
			right []Pair[K, B]
		}
		buf := make(map[ts.Timestamp]*buffered)
		get := func(t ts.Timestamp) *buffered {
			bb := buf[t]
			if bb == nil {
				bb = &buffered{}
				buf[t] = bb
				ctx.NotifyAt(t)
			}
			return bb
		}
		return &joinVertex[K, A, B]{
			onLeft:  func(rec Pair[K, A], t ts.Timestamp) { bb := get(t); bb.left = append(bb.left, rec) },
			onRight: func(rec Pair[K, B], t ts.Timestamp) { bb := get(t); bb.right = append(bb.right, rec) },
			onNotify: func(t ts.Timestamp, send func(any, ts.Timestamp)) {
				bb := buf[t]
				delete(buf, t)
				left := make(map[K][]A)
				for _, p := range bb.left {
					left[p.Key] = append(left[p.Key], p.Val)
				}
				for _, p := range bb.right {
					for _, av := range left[p.Key] {
						send(f(p.Key, av, p.Val), t)
					}
				}
			},
			send: func(m any, t ts.Timestamp) { ctx.SendBy(0, m, t) },
		}
	})
	connect(c, a.stage, a.port, st, pairHasher[K, A](), a.cod)
	connect(c, b.stage, b.port, st, pairHasher[K, B](), b.cod)
	return &Stream[R]{scope: a.scope, stage: st, port: 0, cod: orGob[R](cod), depth: a.depth}
}

// joinVertex dispatches a binary operator's two typed inputs.
type joinVertex[K comparable, A, B any] struct {
	onLeft   func(Pair[K, A], ts.Timestamp)
	onRight  func(Pair[K, B], ts.Timestamp)
	onNotify func(ts.Timestamp, func(any, ts.Timestamp))
	send     func(any, ts.Timestamp)
}

func (v *joinVertex[K, A, B]) OnRecv(input int, msg runtime.Message, t ts.Timestamp) {
	if input == 0 {
		v.onLeft(msg.(Pair[K, A]), t)
	} else {
		v.onRight(msg.(Pair[K, B]), t)
	}
}

// OnRecvBatch unpacks a typed batch with one slice assertion per side;
// boxed or foreign columns fall back to per-record dispatch.
func (v *joinVertex[K, A, B]) OnRecvBatch(input int, b *runtime.Batch, t ts.Timestamp) {
	if input == 0 {
		if data, ok := batchbuf.Data[Pair[K, A]](b); ok {
			for _, rec := range data {
				v.onLeft(rec, t)
			}
			return
		}
	} else {
		if data, ok := batchbuf.Data[Pair[K, B]](b); ok {
			for _, rec := range data {
				v.onRight(rec, t)
			}
			return
		}
	}
	for i, n := 0, b.Len(); i < n; i++ {
		v.OnRecv(input, b.Record(i), t)
	}
}

func (v *joinVertex[K, A, B]) OnNotify(t ts.Timestamp) {
	if v.onNotify != nil {
		v.onNotify(t, v.send)
	}
}

// AggregateMonotonic keeps the best value per key under `better`, emitting
// whenever a key's value improves — the BloomL-style monotonic aggregation
// of §4.2. It never coordinates: inside a loop it may emit several times
// before settling, in exchange for fast uncoordinated iteration (§2.4).
func AggregateMonotonic[K comparable, V any](s *Stream[Pair[K, V]],
	better func(candidate, incumbent V) bool) *Stream[Pair[K, V]] {
	c := s.scope.C
	st := c.AddStage("AggMonotonic", graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		best := make(map[K]V)
		return &vertexOf[Pair[K, V]]{
			recv: func(_ int, rec Pair[K, V], t ts.Timestamp) {
				if cur, ok := best[rec.Key]; !ok || better(rec.Val, cur) {
					best[rec.Key] = rec.Val
					ctx.SendBy(0, rec, t)
				}
			},
		}
	})
	connect(c, s.stage, s.port, st, pairHasher[K, V](), s.cod)
	return &Stream[Pair[K, V]]{scope: s.scope, stage: st, port: 0, cod: s.cod, depth: s.depth}
}
