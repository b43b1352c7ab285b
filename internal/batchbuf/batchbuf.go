// Package batchbuf provides pooled, reference-counted record batches — the
// unit the data plane moves instead of individually boxed records. A Batch
// wraps a Column: either a typed column (Col[T], a plain []T that operators
// process without boxing) or a boxed column ([]any, the compatibility form
// for untyped paths). Batches recycle through sync.Pool arenas keyed by
// record type, so the steady-state record path allocates nothing.
//
// # Ownership rules
//
// Batches are explicitly owned; the rules are small and checkable:
//
//   - A batch obtained from a pool (Pool.Get, PoolFor[T]().Get, GetBoxed)
//     starts with one reference, owned by the caller.
//   - Passing a batch to a consuming API — Context.SendBatchBy,
//     Input.SendBatch, a mailbox handoff — transfers that reference. The
//     caller must not touch the batch afterwards unless it called Retain
//     first.
//   - OnRecvBatch callbacks borrow the batch for the duration of the call:
//     the runtime still owns it and releases it after the callback returns.
//     A vertex that forwards or stores the batch past the callback must
//     Retain it (SendBatchBy then consumes that extra reference). A
//     borrowed batch is read-only: the runtime may retain it past the
//     callback (a replay log does), so its records must not be modified.
//   - Release drops one reference; at zero the batch's column is reset and
//     returned to its home pool. Any slice previously obtained from the
//     batch (Col().Slice(), a Col[T].Data view) is use-after-recycle once
//     the last reference is gone — the backing array will be overwritten by
//     an unrelated batch.
//   - Dropping a batch without Release (an abort path, a closed mailbox) is
//     safe: the batch is garbage-collected instead of recycled. Only
//     double-Release and use-after-Release are bugs.
//
// The same discipline covers the frame byte pool (GetBytes/PutBytes):
// PutBytes at most once per buffer, never use a buffer after PutBytes.
package batchbuf

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Column is the storage of a batch: a uniform sequence of records, either
// typed ([]T) or boxed ([]any).
type Column interface {
	// Len returns the number of records.
	Len() int
	// Record returns record i, boxed. Typed columns box on each call; batch
	// consumers should type-assert Slice once instead.
	Record(i int) any
	// Slice returns the backing slice (a []T or []any) for a single
	// type-assertion per batch. The slice is valid only while the batch
	// holds a reference.
	Slice() any
	// Append adds a boxed record, reporting false when the record's dynamic
	// type does not match a typed column.
	Append(v any) bool
	// AppendIndex copies record i of src without boxing when both columns
	// share a type, boxing otherwise. It reports false only when the boxed
	// value cannot be stored (typed column, foreign type).
	AppendIndex(src Column, i int) bool
	// scatter is the column-typed loop behind Batch.Scatter; b is the batch
	// the column belongs to.
	scatter(b *Batch, dst []uint32, subs []*Batch)
	// deal is the column-typed loop behind Batch.Deal.
	deal(b *Batch, first int, subs []*Batch)
	// reset empties the column for reuse, keeping capacity.
	reset()
}

// Batch is a reference-counted batch of records backed by a Column.
type Batch struct {
	refs atomic.Int32
	col  Column
	home pool // nil for unpooled batches
}

// pool is the recycle target of a batch.
type pool interface {
	put(b *Batch)
	newLike(capacity int) *Batch
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return b.col.Len() }

// Record returns record i, boxed.
func (b *Batch) Record(i int) any { return b.col.Record(i) }

// Col returns the batch's column.
func (b *Batch) Col() Column { return b.col }

// Data returns b's records as a []T when its column is a Col[T] — the typed
// receive arm's one type assertion, without boxing a slice header the way
// Col().Slice() does.
func Data[T any](b *Batch) ([]T, bool) {
	if c, ok := b.col.(*Col[T]); ok {
		return c.Data, true
	}
	return nil, false
}

// Shared reports whether b has holders besides the caller's one reference:
// a builder that appends to b must copy it first.
func (b *Batch) Shared() bool { return b.refs.Load() > 1 }

// Retain adds a reference and returns the batch, for chaining into a
// consuming call: ctx.SendBatchBy(0, b.Retain(), t).
func (b *Batch) Retain() *Batch {
	b.refs.Add(1)
	return b
}

// Release drops one reference; the last release resets the column and
// returns the batch to its pool. Releasing below zero panics — it means two
// owners both believed the reference was theirs.
func (b *Batch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.col.reset()
		if b.home != nil {
			b.home.put(b)
		}
	case n < 0:
		panic("batchbuf: Release of a batch with no references (double release?)")
	}
}

// NewLike returns an empty pooled batch with the same column type as b (one
// reference, owned by the caller) — the builder Scatter creates per
// destination. Unpooled batches fall back to the type-keyed
// global pool when possible, else a boxed builder.
func (b *Batch) NewLike(capacity int) *Batch {
	if b.home != nil {
		return b.home.newLike(capacity)
	}
	if c, ok := b.col.(sliceColumn); ok {
		return c.poolFor().newLike(capacity)
	}
	return GetBoxed(capacity)
}

// Append adds a boxed record to the batch, reporting false on a type
// mismatch with a typed column.
func (b *Batch) Append(v any) bool { return b.col.Append(v) }

// Scatter copies record i of b into subs[dst[i]], for every i — the one
// loop behind every exchange. dst has exactly b.Len() entries, each below
// len(subs); subs must be all nil on entry. A destination's builder (a
// pooled batch of b's column type, one reference owned by the caller) is
// created when its first record arrives, so a destination that receives
// nothing stays nil and costs nothing. The loop is typed per column: no
// record is boxed and no interface method is called per record.
func (b *Batch) Scatter(dst []uint32, subs []*Batch) { b.col.scatter(b, dst, subs) }

// Deal copies record i of b into subs[(first+i) % len(subs)], for every i:
// the round-robin placement Scatter gives with those destinations, as one
// strided typed copy per destination and without a destination array. subs
// must be all nil on entry; a destination that receives no record (b has
// fewer records than subs) stays nil.
func (b *Batch) Deal(first int, subs []*Batch) { b.col.deal(b, first, subs) }

// dealRange returns the first index of b's n records dealt to destination d
// of peers, starting at first, and how many records d receives.
func dealRange(n, first, d, peers int) (start, count int) {
	start = ((d-first)%peers + peers) % peers
	if start >= n {
		return start, 0
	}
	return start, (n - start + peers - 1) / peers
}

// scatterHint sizes a scatter builder: an even share of the n records plus
// slack for an uneven hash, instead of n for every destination.
func scatterHint(n, peers int) int { return n/peers + n/8 + 4 }

// AppendBatch bulk-appends every record of src, without boxing when the
// column types match. It reports false only when a typed destination cannot
// store src's records.
func (b *Batch) AppendBatch(src *Batch) bool {
	if dst, ok := b.col.(bulkAppender); ok && dst.appendAll(src.col) {
		return true
	}
	for i, n := 0, src.Len(); i < n; i++ {
		if !b.col.AppendIndex(src.col, i) {
			return false
		}
	}
	return true
}

// sliceColumn lets an unpooled typed column find the global pool for its
// type (NewLike on a Wrap/Of batch).
type sliceColumn interface {
	poolFor() pool
}

// bulkAppender is the no-reflection bulk copy between same-typed columns.
type bulkAppender interface {
	appendAll(src Column) bool
}

// Col is a typed column: a plain []T operators process without boxing.
type Col[T any] struct {
	Data []T
	// keep marks a pooled column of a pointer-free T: recycling it need not
	// zero the records, because stale ones pin no memory and every consumer
	// overwrites what it exposes.
	keep bool
}

// Len returns the number of records.
func (c *Col[T]) Len() int { return len(c.Data) }

// Record returns record i, boxed.
func (c *Col[T]) Record(i int) any { return c.Data[i] }

// Slice returns the []T backing slice.
func (c *Col[T]) Slice() any { return c.Data }

// Append adds a boxed record, reporting false when it is not a T.
func (c *Col[T]) Append(v any) bool {
	t, ok := v.(T)
	if !ok {
		return false
	}
	c.Data = append(c.Data, t)
	return true
}

// AppendIndex copies record i of src. Same-typed columns copy without
// boxing; otherwise the record is boxed through Record and type-asserted.
func (c *Col[T]) AppendIndex(src Column, i int) bool {
	if s, ok := src.(*Col[T]); ok {
		c.Data = append(c.Data, s.Data[i])
		return true
	}
	return c.Append(src.Record(i))
}

func (c *Col[T]) appendAll(src Column) bool {
	s, ok := src.(*Col[T])
	if !ok {
		return false
	}
	c.Data = append(c.Data, s.Data...)
	return true
}

// scatter keeps each destination's typed column in a local table, so the
// per-record work is an index and an append.
func (c *Col[T]) scatter(b *Batch, dst []uint32, subs []*Batch) {
	var local [8]*Col[T]
	cols := local[:]
	if len(subs) > len(local) {
		cols = make([]*Col[T], len(subs))
	}
	hint := scatterHint(len(c.Data), len(subs))
	for i, d := range dst {
		col := cols[d]
		if col == nil {
			subs[d] = b.NewLike(hint)
			col = subs[d].col.(*Col[T])
			cols[d] = col
		}
		col.Data = append(col.Data, c.Data[i])
	}
}

func (c *Col[T]) deal(b *Batch, first int, subs []*Batch) {
	for d := range subs {
		start, count := dealRange(len(c.Data), first, d, len(subs))
		if count == 0 {
			continue
		}
		subs[d] = b.NewLike(count)
		col := subs[d].col.(*Col[T])
		out := col.Data[:count]
		for j := range out {
			out[j] = c.Data[start+j*len(subs)]
		}
		col.Data = out
	}
}

func (c *Col[T]) reset() {
	if !c.keep {
		clear(c.Data)
	}
	c.Data = c.Data[:0]
}

func (c *Col[T]) poolFor() pool { return PoolFor[T]() }

// anyCol is the boxed column: []any, accepting records of any type.
type anyCol struct {
	data []any
}

func (c *anyCol) Len() int          { return len(c.data) }
func (c *anyCol) Record(i int) any  { return c.data[i] }
func (c *anyCol) Slice() any        { return c.data }
func (c *anyCol) Append(v any) bool { c.data = append(c.data, v); return true }

func (c *anyCol) AppendIndex(src Column, i int) bool {
	c.data = append(c.data, src.Record(i))
	return true
}

func (c *anyCol) appendAll(src Column) bool {
	if s, ok := src.(*anyCol); ok {
		c.data = append(c.data, s.data...)
		return true
	}
	return false
}

func (c *anyCol) scatter(b *Batch, dst []uint32, subs []*Batch) {
	hint := scatterHint(len(c.data), len(subs))
	for i, d := range dst {
		if subs[d] == nil {
			subs[d] = b.NewLike(hint)
		}
		col := subs[d].col.(*anyCol)
		col.data = append(col.data, c.data[i])
	}
}

func (c *anyCol) deal(b *Batch, first int, subs []*Batch) {
	for d := range subs {
		start, count := dealRange(len(c.data), first, d, len(subs))
		if count == 0 {
			continue
		}
		subs[d] = b.NewLike(count)
		col := subs[d].col.(*anyCol)
		for i := start; i < len(c.data); i += len(subs) {
			col.data = append(col.data, c.data[i])
		}
	}
}

func (c *anyCol) reset() { clear(c.data); c.data = c.data[:0] }

// Pool is a typed batch arena. The zero value is not usable; construct with
// NewPool or use the process-wide type-keyed pools via PoolFor.
type Pool[T any] struct {
	p sync.Pool
}

// NewPool returns a fresh typed batch pool.
func NewPool[T any]() *Pool[T] {
	pl := &Pool[T]{}
	keep := pointerFree(reflect.TypeFor[T]())
	pl.p.New = func() any {
		return &Batch{col: &Col[T]{keep: keep}, home: pl}
	}
	return pl
}

// pointerFree reports whether values of t hold no pointers.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Get returns an empty typed batch with one reference, growing its column
// capacity to at least capacity.
func (p *Pool[T]) Get(capacity int) (*Batch, *Col[T]) {
	b := p.p.Get().(*Batch)
	b.refs.Store(1)
	col := b.col.(*Col[T])
	if cap(col.Data) < capacity {
		col.Data = make([]T, 0, capacity)
	}
	return b, col
}

func (p *Pool[T]) put(b *Batch) { p.p.Put(b) }

func (p *Pool[T]) newLike(capacity int) *Batch {
	b, _ := p.Get(capacity)
	return b
}

// typePools maps reflect.Type of T to its *Pool[T], so every producer of a
// record type shares one arena.
var typePools sync.Map

// PoolFor returns the process-wide pool for record type T.
func PoolFor[T any]() *Pool[T] {
	key := reflect.TypeFor[T]()
	if p, ok := typePools.Load(key); ok {
		return p.(*Pool[T])
	}
	p, _ := typePools.LoadOrStore(key, NewPool[T]())
	return p.(*Pool[T])
}

// Arena is the home of one column type's batches, resolved once from a
// sample record so later batches skip the registry lookup. The zero Arena
// is unresolved.
type Arena struct{ p pool }

// ArenaFor resolves the arena for records of v's dynamic type: the typed
// pool a PoolFor call registered for it, else the boxed arena.
func ArenaFor(v any) Arena {
	if p, ok := typePools.Load(reflect.TypeOf(v)); ok {
		return Arena{p.(pool)}
	}
	return Arena{boxedPool}
}

// Get returns an empty batch from the arena with one reference.
func (a Arena) Get(capacity int) *Batch { return a.p.newLike(capacity) }

// boxedPool is the arena of boxed batches used by untyped paths.
var boxedPool = newBoxedPool()

type anyPool struct {
	p sync.Pool
}

func newBoxedPool() *anyPool {
	pl := &anyPool{}
	pl.p.New = func() any {
		return &Batch{col: &anyCol{}, home: pl}
	}
	return pl
}

func (p *anyPool) put(b *Batch) { p.p.Put(b) }

func (p *anyPool) newLike(capacity int) *Batch { return GetBoxed(capacity) }

// GetBoxed returns an empty boxed batch with one reference from the global
// boxed arena.
func GetBoxed(capacity int) *Batch {
	b := boxedPool.p.Get().(*Batch)
	b.refs.Store(1)
	col := b.col.(*anyCol)
	if cap(col.data) < capacity {
		col.data = make([]any, 0, capacity)
	}
	return b
}

// Wrap adopts a boxed record slice as an unpooled batch (one reference;
// Release drops it for garbage collection instead of recycling). The batch
// owns the slice.
func Wrap(records []any) *Batch {
	b := &Batch{col: &anyCol{data: records}}
	b.refs.Store(1)
	return b
}

// Of adopts a typed record slice as an unpooled batch (one reference). The
// batch owns the slice.
func Of[T any](records []T) *Batch {
	b := &Batch{col: &Col[T]{Data: records}}
	b.refs.Store(1)
	return b
}

// Byte-buffer arena: size-classed pooled frame buffers for the transport
// receive path. A class holds a power of two plus bytesHeadroom, so a data
// frame whose records fill a power of two fits the class of its records
// with its envelope header (25 B + 8 per loop counter) beside them, instead
// of spilling into the next class and wasting half of it. GetBytes returns
// a zeroed-length buffer with capacity ≥ n; PutBytes recycles a buffer
// whose capacity matches a size class exactly and silently drops any other
// (so foreign slices are safe to offer).
const (
	minBytesClass = 8  // 1<<8 + bytesHeadroom = 320 B
	maxBytesClass = 20 // 1<<20 + bytesHeadroom ≈ 1 MiB
	bytesHeadroom = 64
)

var bytePools [maxBytesClass - minBytesClass + 1]sync.Pool

func bytesClass(n int) int {
	c := minBytesClass
	for n > 1<<c+bytesHeadroom {
		c++
	}
	return c
}

// GetBytes returns a length-n buffer from the arena (capacity is the
// enclosing size class). Requests beyond the largest class fall back to a
// plain allocation.
func GetBytes(n int) []byte {
	if n > 1<<maxBytesClass+bytesHeadroom {
		return make([]byte, n)
	}
	c := bytesClass(n)
	if v := bytePools[c-minBytesClass].Get(); v != nil {
		return v.([]byte)[:n]
	}
	return make([]byte, n, 1<<c+bytesHeadroom)
}

// PutBytes recycles a buffer previously returned by GetBytes. Buffers whose
// capacity is not an exact size class are dropped, so callers may offer any
// slice without tracking provenance. The caller must not use the buffer —
// or any view of it — after PutBytes.
func PutBytes(b []byte) {
	c := cap(b)
	if p := c - bytesHeadroom; p < 1<<minBytesClass || p > 1<<maxBytesClass || p&(p-1) != 0 {
		return
	}
	cls := bytesClass(c)
	bytePools[cls-minBytesClass].Put(b[:0:c])
}
