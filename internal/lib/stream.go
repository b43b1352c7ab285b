// Package lib is Naiad's operator library (§4): typed dataflow streams and
// the LINQ-style, Bloom-style, and iterative patterns the paper builds over
// the low-level vertex API — Select, Where, SelectMany, GroupBy, Concat,
// Distinct, Join, Count, monotonic Aggregate, and structured Iterate loops.
//
// Everything here is library code over the public runtime surface, exactly
// as the paper advocates: no private hooks into the system.
package lib

import (
	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Scope wraps a Computation for typed graph construction.
type Scope struct {
	C *runtime.Computation
}

// NewScope creates a computation with the given config and wraps it.
func NewScope(cfg runtime.Config) (*Scope, error) {
	c, err := runtime.NewComputation(cfg)
	if err != nil {
		return nil, err
	}
	return &Scope{C: c}, nil
}

// Stream is a typed handle to one output port of a stage: the unit all
// operators consume and produce.
type Stream[T any] struct {
	scope *Scope
	stage runtime.StageID
	port  int
	cod   codec.Codec
	depth uint8
}

// Scope returns the stream's scope.
func (s *Stream[T]) Scope() *Scope { return s.scope }

// Stage returns the producing stage (for probes and ad hoc wiring).
func (s *Stream[T]) Stage() runtime.StageID { return s.stage }

// Codec returns the stream's record codec.
func (s *Stream[T]) Codec() codec.Codec { return s.cod }

// Depth returns the loop depth of the stream's timestamps.
func (s *Stream[T]) Depth() uint8 { return s.depth }

// orGob fills in the default codec for a record type.
func orGob[T any](c codec.Codec) codec.Codec {
	if c != nil {
		return c
	}
	return codec.Gob[T]()
}

// Input is a typed input handle paired with its stream.
type Input[T any] struct {
	raw *runtime.Input
}

// NewInput creates a typed input stage. cod may be nil to use gob.
func NewInput[T any](s *Scope, name string, cod codec.Codec) (*Input[T], *Stream[T]) {
	raw := s.C.NewInput(name)
	st := &Stream[T]{scope: s, stage: raw.Stage(), port: 0, cod: orGob[T](cod), depth: 0}
	return &Input[T]{raw: raw}, st
}

// Send introduces records into the current epoch. The records travel as one
// pooled typed batch — no per-record boxing.
func (in *Input[T]) Send(records ...T) {
	if len(records) == 0 {
		return
	}
	b, col := batchbuf.PoolFor[T]().Get(len(records))
	col.Data = append(col.Data, records...)
	in.raw.SendBatch(b)
}

// SendToWorker introduces records at a specific worker (per-computer
// ingestion, §5.4) as one pooled typed batch.
func (in *Input[T]) SendToWorker(worker int, records []T) {
	if len(records) == 0 {
		return
	}
	b, col := batchbuf.PoolFor[T]().Get(len(records))
	col.Data = append(col.Data, records...)
	in.raw.SendBatchToWorker(worker, b)
}

// OnNext supplies one epoch of records and advances (§4.1).
func (in *Input[T]) OnNext(records ...T) {
	in.Send(records...)
	in.raw.Advance()
}

// Advance completes the current epoch.
func (in *Input[T]) Advance() { in.raw.Advance() }

// AdvanceTo completes all epochs below e.
func (in *Input[T]) AdvanceTo(e int64) { in.raw.AdvanceTo(e) }

// Epoch returns the current epoch.
func (in *Input[T]) Epoch() int64 { return in.raw.Epoch() }

// Close marks the input complete (§2.1's OnCompleted).
func (in *Input[T]) Close() { in.raw.Close() }

// Raw exposes the untyped runtime handle.
func (in *Input[T]) Raw() *runtime.Input { return in.raw }

// partitionBy adapts a typed hash to a runtime partitioner.
func partitionBy[T any](h func(T) uint64) runtime.Partitioner {
	if h == nil {
		return nil
	}
	return func(m runtime.Message) uint64 { return h(m.(T)) }
}

// connect wires src→dst with both the scalar and the vectorized form of a
// typed partitioner, so exchanged batches are hashed column-at-a-time
// without boxing. h may be nil for unpartitioned edges.
func connect[T any](c *runtime.Computation, src runtime.StageID, srcPort int,
	dst runtime.StageID, h func(T) uint64, cod codec.Codec) {
	if h == nil {
		c.Connect(src, srcPort, dst, nil, cod)
		return
	}
	part, bpart := runtime.TypedPartitioner(h)
	c.ConnectBatch(src, srcPort, dst, part, bpart, cod)
}

// vertexOf adapts typed callbacks to the runtime Vertex interface. It also
// implements BatchVertex: a typed batch is unpacked with a single slice
// type-assertion, so per-record delivery inside the library never boxes.
type vertexOf[T any] struct {
	recv     func(input int, rec T, t ts.Timestamp)
	notify   func(t ts.Timestamp)
	shutdown func()
}

func (v *vertexOf[T]) OnRecv(input int, msg runtime.Message, t ts.Timestamp) {
	v.recv(input, msg.(T), t)
}

// OnRecvBatch delivers a borrowed batch: the typed fast path iterates the
// []T column directly; boxed or foreign columns fall back to per-record
// assertion.
func (v *vertexOf[T]) OnRecvBatch(input int, b *runtime.Batch, t ts.Timestamp) {
	if data, ok := batchbuf.Data[T](b); ok {
		for _, rec := range data {
			v.recv(input, rec, t)
		}
		return
	}
	for i, n := 0, b.Len(); i < n; i++ {
		v.recv(input, b.Record(i).(T), t)
	}
}

// batchVertexOf extends vertexOf with a whole-batch handler: when the
// incoming column is a []T, recvBatch sees the slice (and the borrowed
// batch, for Retain-and-forward operators) in one call. Other column shapes
// take vertexOf's per-record path.
type batchVertexOf[T any] struct {
	vertexOf[T]
	recvBatch func(input int, data []T, b *runtime.Batch, t ts.Timestamp)
}

func (v *batchVertexOf[T]) OnRecvBatch(input int, b *runtime.Batch, t ts.Timestamp) {
	if v.recvBatch != nil {
		if data, ok := batchbuf.Data[T](b); ok {
			v.recvBatch(input, data, b, t)
			return
		}
	}
	v.vertexOf.OnRecvBatch(input, b, t)
}

func (v *vertexOf[T]) OnNotify(t ts.Timestamp) {
	if v.notify != nil {
		v.notify(t)
	}
}

func (v *vertexOf[T]) OnShutdown() {
	if v.shutdown != nil {
		v.shutdown()
	}
}

// Probe attaches a frontier probe downstream of a stream: WaitFor(e)
// returns once epoch e has fully drained through the stream.
func Probe[T any](s *Stream[T]) *runtime.Probe {
	if s.depth != 0 {
		panic("lib: Probe requires a stream outside any loop context")
	}
	sink := s.scope.C.AddStage("probe", graph.RoleNormal, s.depth,
		func(ctx *runtime.Context) runtime.Vertex {
			return &vertexOf[T]{recv: func(int, T, ts.Timestamp) {}}
		})
	s.scope.C.Connect(s.stage, s.port, sink, nil, s.cod)
	return s.scope.C.NewProbe(sink)
}

// StreamOf wraps a raw stage output as a typed stream, for dataflows that
// mix library operators with custom low-level vertices (§4.3). The caller
// asserts that the stage emits T on the given port at the given loop depth.
func StreamOf[T any](s *Scope, stage runtime.StageID, port int, cod codec.Codec, depth uint8) *Stream[T] {
	return &Stream[T]{scope: s, stage: stage, port: port, cod: orGob[T](cod), depth: depth}
}

// Pair is a key-value record.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// KV constructs a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Val: v} }
