package lib

import (
	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Select transforms each record with f, without buffering or coordination
// (the specialized no-coordination implementation of §4.2). cod may be nil
// to use gob for the output type. A typed input batch is mapped column-at-
// a-time into a pooled output batch — no per-record boxing.
func Select[A, B any](s *Stream[A], f func(A) B, cod codec.Codec) *Stream[B] {
	return unary[A, B](s, "Select", cod, nil,
		func(ctx *runtime.Context) func(A, ts.Timestamp) {
			return func(rec A, t ts.Timestamp) { ctx.SendBy(0, f(rec), t) }
		},
		func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp) {
			pool := batchbuf.PoolFor[B]()
			return func(data []A, _ *runtime.Batch, t ts.Timestamp) {
				out, col := pool.Get(len(data))
				for _, rec := range data {
					col.Data = append(col.Data, f(rec))
				}
				ctx.SendBatchBy(0, out, t)
			}
		})
}

// Where passes through records satisfying pred, asynchronously.
func Where[A any](s *Stream[A], pred func(A) bool) *Stream[A] {
	return unary[A, A](s, "Where", s.cod, nil,
		func(ctx *runtime.Context) func(A, ts.Timestamp) {
			return func(rec A, t ts.Timestamp) {
				if pred(rec) {
					ctx.SendBy(0, rec, t)
				}
			}
		},
		func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp) {
			pool := batchbuf.PoolFor[A]()
			return func(data []A, _ *runtime.Batch, t ts.Timestamp) {
				out, col := pool.Get(len(data))
				for _, rec := range data {
					if pred(rec) {
						col.Data = append(col.Data, rec)
					}
				}
				ctx.SendBatchBy(0, out, t)
			}
		})
}

// SelectMany expands each record into zero or more outputs, asynchronously
// (§4.1's map step).
func SelectMany[A, B any](s *Stream[A], f func(A) []B, cod codec.Codec) *Stream[B] {
	return unary[A, B](s, "SelectMany", cod, nil,
		func(ctx *runtime.Context) func(A, ts.Timestamp) {
			return func(rec A, t ts.Timestamp) {
				for _, out := range f(rec) {
					ctx.SendBy(0, out, t)
				}
			}
		},
		func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp) {
			pool := batchbuf.PoolFor[B]()
			return func(data []A, _ *runtime.Batch, t ts.Timestamp) {
				out, col := pool.Get(len(data))
				for _, rec := range data {
					col.Data = append(col.Data, f(rec)...)
				}
				ctx.SendBatchBy(0, out, t)
			}
		})
}

// Exchange repartitions a stream by the given hash without transforming
// records. Downstream local-delivery operators then observe the chosen
// placement. Whole batches are forwarded by reference and hashed
// column-at-a-time by the connector's vectorized partitioner.
func Exchange[A any](s *Stream[A], h func(A) uint64) *Stream[A] {
	return unary[A, A](s, "Exchange", s.cod, h,
		func(ctx *runtime.Context) func(A, ts.Timestamp) {
			return func(rec A, t ts.Timestamp) { ctx.SendBy(0, rec, t) }
		},
		func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp) {
			return func(_ []A, b *runtime.Batch, t ts.Timestamp) {
				ctx.SendBatchBy(0, b.Retain(), t)
			}
		})
}

// InspectParallel invokes f for every record at whichever worker holds it.
// f runs on worker threads and must be safe for concurrent invocation.
func InspectParallel[A any](s *Stream[A], f func(epoch ts.Timestamp, rec A)) *Stream[A] {
	return unary[A, A](s, "Inspect", s.cod, nil,
		func(ctx *runtime.Context) func(A, ts.Timestamp) {
			return func(rec A, t ts.Timestamp) {
				f(t, rec)
				ctx.SendBy(0, rec, t)
			}
		},
		func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp) {
			return func(data []A, b *runtime.Batch, t ts.Timestamp) {
				for _, rec := range data {
					f(t, rec)
				}
				ctx.SendBatchBy(0, b.Retain(), t)
			}
		})
}

// unary builds a one-input one-output stage whose vertex forwards through
// the closure returned by mk. part, when non-nil, exchanges the input.
// mkBatch, when non-nil, supplies the typed whole-batch fast path; other
// column shapes fall back to the per-record closure.
func unary[A, B any](s *Stream[A], name string, cod codec.Codec, part func(A) uint64,
	mk func(ctx *runtime.Context) func(A, ts.Timestamp),
	mkBatch func(ctx *runtime.Context) func([]A, *runtime.Batch, ts.Timestamp)) *Stream[B] {
	c := s.scope.C
	st := c.AddStage(name, graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		f := mk(ctx)
		v := &batchVertexOf[A]{vertexOf: vertexOf[A]{
			recv: func(_ int, rec A, t ts.Timestamp) { f(rec, t) },
		}}
		if mkBatch != nil {
			fb := mkBatch(ctx)
			v.recvBatch = func(_ int, data []A, b *runtime.Batch, t ts.Timestamp) { fb(data, b, t) }
		}
		return v
	})
	connect(c, s.stage, s.port, st, part, s.cod)
	return &Stream[B]{scope: s.scope, stage: st, port: 0, cod: orGob[B](cod), depth: s.depth}
}

// Concat merges two streams of the same type without coordination (§4.2).
// Batches pass through by reference.
func Concat[A any](a, b *Stream[A]) *Stream[A] {
	if a.depth != b.depth {
		panic("lib: Concat requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("Concat", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		return &batchVertexOf[A]{
			vertexOf: vertexOf[A]{recv: func(_ int, rec A, t ts.Timestamp) { ctx.SendBy(0, rec, t) }},
			recvBatch: func(_ int, _ []A, b *runtime.Batch, t ts.Timestamp) {
				ctx.SendBatchBy(0, b.Retain(), t)
			},
		}
	})
	c.Connect(a.stage, a.port, st, nil, a.cod)
	c.Connect(b.stage, b.port, st, nil, b.cod)
	return &Stream[A]{scope: a.scope, stage: st, port: 0, cod: a.cod, depth: a.depth}
}

// Distinct emits each record the first time it is observed at each
// timestamp, as soon as it is seen (§4.2's no-coordination specialization;
// compare Figure 4's output1). State for a time is purged once the time
// completes.
func Distinct[A comparable](s *Stream[A]) *Stream[A] {
	c := s.scope.C
	st := c.AddStage("Distinct", graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		seen := make(map[ts.Timestamp]map[A]struct{})
		pool := batchbuf.PoolFor[A]()
		get := func(t ts.Timestamp) map[A]struct{} {
			m := seen[t]
			if m == nil {
				m = make(map[A]struct{})
				seen[t] = m
				ctx.NotifyAtPurge(t)
			}
			return m
		}
		return &batchVertexOf[A]{
			vertexOf: vertexOf[A]{
				recv: func(_ int, rec A, t ts.Timestamp) {
					m := get(t)
					if _, dup := m[rec]; !dup {
						m[rec] = struct{}{}
						ctx.SendBy(0, rec, t)
					}
				},
				notify: func(t ts.Timestamp) { delete(seen, t) },
			},
			recvBatch: func(_ int, data []A, _ *runtime.Batch, t ts.Timestamp) {
				m := get(t)
				out, col := pool.Get(len(data))
				for _, rec := range data {
					if _, dup := m[rec]; !dup {
						m[rec] = struct{}{}
						col.Data = append(col.Data, rec)
					}
				}
				ctx.SendBatchBy(0, out, t)
			},
		}
	})
	connect(c, s.stage, s.port, st, hasherFor[A](), s.cod)
	return &Stream[A]{scope: s.scope, stage: st, port: 0, cod: s.cod, depth: s.depth}
}

// DistinctCumulative emits each record the first time it is ever observed,
// across all timestamps — the asynchronous set-semantics Distinct used
// inside Bloom-style loops (§4.2), where iterations refine one monotone
// set. Its seen-set participates in checkpoints (§3.4), serialized with
// the stream's record codec.
func DistinctCumulative[A comparable](s *Stream[A]) *Stream[A] {
	c := s.scope.C
	cod := s.cod
	st := c.AddStage("DistinctCum", graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		seen := make(map[A]struct{})
		return &checkpointableVertex[A]{
			vertexOf: vertexOf[A]{
				recv: func(_ int, rec A, t ts.Timestamp) {
					if _, dup := seen[rec]; !dup {
						seen[rec] = struct{}{}
						ctx.SendBy(0, rec, t)
					}
				},
			},
			checkpoint: func(enc *codec.Encoder) {
				recs := make([]any, 0, len(seen))
				for rec := range seen {
					recs = append(recs, rec)
				}
				enc.PutUint32(uint32(len(recs)))
				cod.EncodeBatch(enc, recs)
			},
			restore: func(dec *codec.Decoder) {
				seen = make(map[A]struct{})
				n := int(dec.Uint32())
				for _, rec := range cod.DecodeBatch(dec, n) {
					seen[rec.(A)] = struct{}{}
				}
			},
		}
	})
	connect(c, s.stage, s.port, st, hasherFor[A](), s.cod)
	return &Stream[A]{scope: s.scope, stage: st, port: 0, cod: s.cod, depth: s.depth}
}

// checkpointableVertex extends vertexOf with the §3.4 Checkpointer
// interface via closures over the vertex's state.
type checkpointableVertex[T any] struct {
	vertexOf[T]
	checkpoint func(*codec.Encoder)
	restore    func(*codec.Decoder)
}

// Checkpoint serializes the vertex state.
func (v *checkpointableVertex[T]) Checkpoint(enc *codec.Encoder) { v.checkpoint(enc) }

// Restore reconstructs the vertex state.
func (v *checkpointableVertex[T]) Restore(dec *codec.Decoder) { v.restore(dec) }
