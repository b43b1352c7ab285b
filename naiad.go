// Package naiad is a Go implementation of Naiad (SOSP 2013): a timely
// dataflow system supporting high-throughput batch processing, low-latency
// streaming, and iterative and incremental computation in one framework.
//
// The package re-exports the supported public surface of the internal
// packages:
//
//   - the low-level timely dataflow API of §2.2 (Vertex, Context, SendBy,
//     NotifyAt) over a distributed runtime of workers, exchange
//     connectors, and the progress-tracking protocol of §3;
//   - the operator library of §4 (Select, Where, SelectMany, GroupBy,
//     Concat, Distinct, Join, Count, monotonic Aggregate, Iterate loops,
//     Subscribe) as typed generics over streams;
//   - inputs, epochs, probes, and checkpoint/restore.
//
// # Quickstart
//
//	scope, _ := naiad.NewScope(naiad.DefaultConfig(4))
//	docs, stream := naiad.NewInput[string](scope, "docs", nil)
//	words := naiad.SelectMany(stream, strings.Fields, nil)
//	counts := naiad.Count(words, nil)
//	results := naiad.Collect(counts)
//	scope.C.Start()
//	docs.OnNext("a b a")
//	docs.Close()
//	scope.C.Join()
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package naiad

import (
	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Core runtime types (§2.2, §3).
type (
	// Config sizes a computation: processes, workers, progress-protocol
	// accumulation, transport.
	Config = runtime.Config
	// Computation owns a dataflow graph and the cluster executing it.
	Computation = runtime.Computation
	// Context is a vertex's handle for SendBy and NotifyAt (§2.2).
	Context = runtime.Context
	// Vertex is the low-level timely dataflow vertex interface (§2.2).
	Vertex = runtime.Vertex
	// VertexFactory instantiates one vertex of a stage on its worker.
	VertexFactory = runtime.VertexFactory
	// Message is an untyped dataflow record.
	Message = runtime.Message
	// Timestamp is a logical time: epoch plus loop counters (§2.1).
	Timestamp = ts.Timestamp
	// Snapshot is a consistent checkpoint of all stateful vertices (§3.4):
	// what Computation.Checkpoint returns and Restore loads, the same type
	// an asynchronous barrier cut assembles.
	Snapshot = runtime.CutSnapshot
	// Checkpointer is implemented by vertices with durable state (§3.4).
	Checkpointer = runtime.Checkpointer
	// Accumulation selects progress-update batching (§3.3).
	Accumulation = runtime.Accumulation
	// Probe observes epoch completion at a stage.
	Probe = runtime.Probe
	// StageID identifies a dataflow stage.
	StageID = runtime.StageID
	// Partitioner routes records between parallel vertices (§3.1).
	Partitioner = runtime.Partitioner
	// Codec serializes record batches crossing process boundaries.
	Codec = codec.Codec
	// Scope wraps a Computation for typed operator construction.
	Scope = lib.Scope
)

// Accumulation modes (Figure 6c).
const (
	AccNone        = runtime.AccNone
	AccLocal       = runtime.AccLocal
	AccGlobal      = runtime.AccGlobal
	AccLocalGlobal = runtime.AccLocalGlobal
)

// Generic operator-library types (§4).
type (
	// Stream is a typed handle to a stage output.
	Stream[T any] = lib.Stream[T]
	// Input feeds epochs of records into the dataflow (§4.1).
	Input[T any] = lib.Input[T]
	// Pair is a key-value record.
	Pair[K comparable, V any] = lib.Pair[K, V]
	// Collector accumulates per-epoch results for external inspection.
	Collector[T any] = lib.Collector[T]
	// Loop is a loop context under construction (§4.3).
	Loop[T any] = lib.Loop[T]
)

// DefaultConfig returns a single-process configuration with the given
// worker count and Naiad's default progress accumulation.
func DefaultConfig(workers int) Config { return runtime.DefaultConfig(workers) }

// NewComputation builds an empty computation.
func NewComputation(cfg Config) (*Computation, error) { return runtime.NewComputation(cfg) }

// NewScope builds a computation and wraps it for operator construction.
func NewScope(cfg Config) (*Scope, error) { return lib.NewScope(cfg) }

// NewInput adds a typed input stage (§4.1). cod may be nil to use gob.
func NewInput[T any](s *Scope, name string, cod Codec) (*Input[T], *Stream[T]) {
	return lib.NewInput[T](s, name, cod)
}

// Select transforms each record without coordination (§4.2).
func Select[A, B any](s *Stream[A], f func(A) B, cod Codec) *Stream[B] {
	return lib.Select(s, f, cod)
}

// Where filters records without coordination (§4.2).
func Where[A any](s *Stream[A], pred func(A) bool) *Stream[A] { return lib.Where(s, pred) }

// SelectMany expands each record into zero or more outputs (§4.1).
func SelectMany[A, B any](s *Stream[A], f func(A) []B, cod Codec) *Stream[B] {
	return lib.SelectMany(s, f, cod)
}

// Exchange repartitions a stream by hash (§3.1).
func Exchange[A any](s *Stream[A], h func(A) uint64) *Stream[A] { return lib.Exchange(s, h) }

// Concat merges two streams without coordination (§4.2).
func Concat[A any](a, b *Stream[A]) *Stream[A] { return lib.Concat(a, b) }

// Distinct emits first occurrences per timestamp, immediately (§4.2).
func Distinct[A comparable](s *Stream[A]) *Stream[A] { return lib.Distinct(s) }

// DistinctCumulative emits first-ever occurrences across all timestamps,
// the asynchronous set semantics used inside Bloom-style loops (§4.2).
func DistinctCumulative[A comparable](s *Stream[A]) *Stream[A] { return lib.DistinctCumulative(s) }

// GroupBy collates by key and reduces when each time completes (§4.1).
func GroupBy[A any, K comparable, R any](s *Stream[A], key func(A) K, reduce func(K, []A) []R, cod Codec) *Stream[R] {
	return lib.GroupBy(s, key, reduce, cod)
}

// FoldByKey folds each key's values per time.
func FoldByKey[K comparable, V any, S any](s *Stream[Pair[K, V]], init func(K) S, fold func(S, V) S, cod Codec) *Stream[Pair[K, S]] {
	return lib.FoldByKey(s, init, fold, cod)
}

// Count counts occurrences of each record per time (Figure 4).
func Count[A comparable](s *Stream[A], cod Codec) *Stream[Pair[A, int64]] {
	return lib.Count(s, cod)
}

// MinByKey keeps each key's per-time minimum.
func MinByKey[K comparable, V any](s *Stream[Pair[K, V]], less func(a, b V) bool, cod Codec) *Stream[Pair[K, V]] {
	return lib.MinByKey(s, less, cod)
}

// MaxByKey keeps each key's per-time maximum.
func MaxByKey[K comparable, V any](s *Stream[Pair[K, V]], less func(a, b V) bool, cod Codec) *Stream[Pair[K, V]] {
	return lib.MaxByKey(s, less, cod)
}

// Join is the asynchronous cumulative hash join (§4.2).
func Join[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]], f func(K, A, B) R, cod Codec) *Stream[R] {
	return lib.Join(a, b, f, cod)
}

// JoinByTime is the synchronous per-time relational join.
func JoinByTime[K comparable, A, B, R any](a *Stream[Pair[K, A]], b *Stream[Pair[K, B]], f func(K, A, B) R, cod Codec) *Stream[R] {
	return lib.JoinByTime(a, b, f, cod)
}

// AggregateMonotonic emits per-key improvements under `better` (§4.2).
func AggregateMonotonic[K comparable, V any](s *Stream[Pair[K, V]], better func(candidate, incumbent V) bool) *Stream[Pair[K, V]] {
	return lib.AggregateMonotonic(s, better)
}

// Iterate builds a fixed-point loop over the stream (§4.3).
func Iterate[T any](s *Stream[T], maxIters int64, body func(inner *Stream[T]) *Stream[T]) *Stream[T] {
	return lib.Iterate(s, maxIters, body)
}

// IterateBatched builds a bulk-synchronous fixed-point loop: f sees each
// iteration's full per-partition batch and splits it into continuing and
// finished records.
func IterateBatched[T any](s *Stream[T], maxIters int64, part func(T) uint64,
	f func(iter int64, recs []T) (continue_, done []T)) *Stream[T] {
	return lib.IterateBatched(s, maxIters, part, f)
}

// EnterLoop passes a stream into a loop context through an ingress stage.
func EnterLoop[T any](s *Stream[T], innerDepth uint8) *Stream[T] {
	return lib.EnterLoop(s, innerDepth)
}

// LeaveLoop passes a stream out of its loop through an egress stage.
func LeaveLoop[T any](s *Stream[T]) *Stream[T] { return lib.LeaveLoop(s) }

// NewLoop opens a loop context for manual wiring (§4.3).
func NewLoop[T any](scope *Scope, depth uint8, example *Stream[T], maxIters int64) *Loop[T] {
	return lib.NewLoop(scope, depth, example, maxIters)
}

// Subscribe invokes f once per completed epoch with its records (§4.1).
func Subscribe[T any](s *Stream[T], f func(epoch int64, records []T)) StageID {
	return lib.Subscribe(s, f)
}

// SubscribeParallel invokes f once per completed epoch at every worker,
// with that worker's share of the records.
func SubscribeParallel[T any](s *Stream[T], f func(worker int, epoch int64, records []T)) {
	lib.SubscribeParallel(s, f)
}

// Collect attaches a Collector to a stream.
func Collect[T any](s *Stream[T]) *Collector[T] { return lib.Collect(s) }

// NewProbe registers an epoch-completion probe downstream of a stream.
func NewProbe[T any](s *Stream[T]) *Probe { return lib.Probe(s) }

// KV constructs a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return lib.KV(k, v) }

// Diff is a weighted record: the unit of incremental collections (§4.1's
// library for incremental computation). Delta +1 inserts, -1 deletes.
type Diff[T any] = lib.Diff[T]

// AddRec is an insertion diff.
func AddRec[T any](rec T) Diff[T] { return lib.Add(rec) }

// DelRec is a deletion diff.
func DelRec[T any](rec T) Diff[T] { return lib.Del(rec) }

// DiffSelect transforms an incremental collection, preserving weights.
func DiffSelect[A, B any](s *Stream[Diff[A]], f func(A) B, cod Codec) *Stream[Diff[B]] {
	return lib.DiffSelect(s, f, cod)
}

// DiffWhere filters an incremental collection.
func DiffWhere[A any](s *Stream[Diff[A]], pred func(A) bool) *Stream[Diff[A]] {
	return lib.DiffWhere(s, pred)
}

// DiffSelectMany expands records of an incremental collection.
func DiffSelectMany[A, B any](s *Stream[Diff[A]], f func(A) []B, cod Codec) *Stream[Diff[B]] {
	return lib.DiffSelectMany(s, f, cod)
}

// DiffDistinct maintains the set of records with positive multiplicity,
// emitting membership changes.
func DiffDistinct[A comparable](s *Stream[Diff[A]]) *Stream[Diff[A]] {
	return lib.DiffDistinct(s)
}

// DiffCount maintains per-key counts, emitting count corrections.
func DiffCount[K comparable](s *Stream[Diff[K]], cod Codec) *Stream[Diff[Pair[K, int64]]] {
	return lib.DiffCount(s, cod)
}

// DiffJoin incrementally joins two keyed collections with retraction.
func DiffJoin[K comparable, A, B, R any](a *Stream[Diff[Pair[K, A]]], b *Stream[Diff[Pair[K, B]]],
	f func(K, A, B) R, cod Codec) *Stream[Diff[R]] {
	return lib.DiffJoin(a, b, f, cod)
}

// Consolidate combines same-record diffs within each epoch.
func Consolidate[A comparable](s *Stream[Diff[A]]) *Stream[Diff[A]] {
	return lib.Consolidate(s)
}

// BoundedStaleness constrains how far iterations run ahead (§2.4).
func BoundedStaleness[T any](s *Stream[T], k int64) *Stream[T] {
	return lib.BoundedStaleness(s, k)
}

// TumblingWindow groups `size` consecutive epochs and reduces each window.
func TumblingWindow[A, B any](s *Stream[A], size int64,
	f func(window int64, recs []A, emit func(B)), cod Codec) *Stream[B] {
	return lib.TumblingWindow(s, size, f, cod)
}

// SlidingWindowDiffs turns a stream into an incremental collection over
// the last `size` epochs (insert now, retract size epochs later).
func SlidingWindowDiffs[A any](s *Stream[A], size int64) *Stream[Diff[A]] {
	return lib.SlidingWindowDiffs(s, size)
}

// TopK emits each time's k greatest records under less.
func TopK[A any](s *Stream[A], k int, less func(a, b A) bool, cod Codec) *Stream[A] {
	return lib.TopK(s, k, less, cod)
}

// SumByKey folds int64 values per key per time.
func SumByKey[K comparable](s *Stream[Pair[K, int64]], cod Codec) *Stream[Pair[K, int64]] {
	return lib.SumByKey(s, cod)
}

// Broadcast delivers every record to one vertex on every worker.
func Broadcast[A any](s *Stream[A], cod Codec) *Stream[A] {
	return lib.Broadcast(s, cod)
}

// Hash maps a comparable key to a mixed 64-bit value for exchanges.
func Hash[K comparable](k K) uint64 { return lib.Hash(k) }

// Int64Codec is the fast codec for int64 records.
func Int64Codec() Codec { return codec.Int64() }

// StringCodec is the fast codec for string records.
func StringCodec() Codec { return codec.String() }

// Float64Codec is the fast codec for float64 records.
func Float64Codec() Codec { return codec.Float64() }

// GobCodec is the reflection-based fallback codec for arbitrary records.
func GobCodec[T any]() Codec { return codec.Gob[T]() }
