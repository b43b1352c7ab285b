// Package codec serializes record batches crossing process boundaries.
// Naiad serializes all inter-process data; this package provides a compact
// little-endian binary encoding with fast paths for the record types the
// workloads use, plus a gob-based fallback for arbitrary types.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"naiad/internal/batchbuf"
)

// Encoder appends primitive values to a growing byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint8 appends one byte.
func (e *Encoder) PutUint8(v uint8) { e.buf = append(e.buf, v) }

// PutUint32 appends a little-endian uint32.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends a little-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends a little-endian int64.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutFloat64 appends a float64 bit pattern.
func (e *Encoder) PutFloat64(v float64) {
	e.PutUint64(math.Float64bits(v))
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads primitive values from a byte slice.
type Decoder struct {
	data []byte
	off  int
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) need(n int) {
	if d.off+n > len(d.data) {
		panic(fmt.Sprintf("codec: truncated input: need %d bytes at offset %d of %d", n, d.off, len(d.data)))
	}
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	d.need(1)
	v := d.data[d.off]
	d.off++
	return v
}

// Uint32 reads a little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	d.need(4)
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

// Uint64 reads a little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	d.need(8)
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// Int64 reads a little-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads a float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.Uint32())
	d.need(n)
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// BytesView reads a length-prefixed byte slice, aliasing the input. The
// view is valid only while the decoder's underlying buffer is: transport
// receive buffers and pooled frame buffers are recycled once the frame is
// decoded, so anything that outlives the decode — decoded records, vertex
// state, snapshot fragments — must copy (use Bytes) instead of retaining
// the view. Record codecs in particular must never alias the input; see the
// Codec contract.
func (d *Decoder) BytesView() []byte {
	n := int(d.Uint32())
	d.need(n)
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Bytes reads a length-prefixed byte slice into a fresh copy the caller
// owns. Use this — not BytesView — whenever the result outlives the frame
// being decoded.
func (d *Decoder) Bytes() []byte {
	return append([]byte(nil), d.BytesView()...)
}

// Count reads a uint32 element count and validates it against the bytes
// remaining, given a lower bound on the encoded size of one element. A
// count that could not possibly fit panics like any other corruption, so
// callers never size an allocation from an unvalidated length field.
func (d *Decoder) Count(minPerItem int) int {
	n := int(d.Uint32())
	if minPerItem < 1 {
		minPerItem = 1
	}
	if n > d.Remaining()/minPerItem {
		panic(fmt.Sprintf("codec: corrupt count: %d items claimed with %d bytes remaining", n, d.Remaining()))
	}
	return n
}

// Catch runs fn and converts a decode panic (truncated input, corrupt
// count, bad gob stream) into an error. Decoders deliberately panic on
// malformed input — inside one process that is a programming error — but
// bytes that crossed a network or a disk are untrusted, and callers on
// those paths wrap the decode in Catch.
func Catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("codec: invalid input: %v", r)
		}
	}()
	fn()
	return nil
}

// Codec serializes batches of records (as []any holding a uniform concrete
// type) for transmission between processes.
//
// Ownership contract: decoded records must be self-contained. The frame a
// Decoder reads from is typically a pooled transport buffer that is
// recycled as soon as the batch is decoded, so a codec must never build
// records that alias the decoder's input (via BytesView or any other
// zero-copy view) — copy with Decoder.Bytes / Decoder.String instead.
// Aliasing the input turns buffer recycling into silent record corruption.
type Codec interface {
	// EncodeBatch appends the encoding of records to enc.
	EncodeBatch(enc *Encoder, records []any)
	// DecodeBatch reads n records from dec.
	DecodeBatch(dec *Decoder, n int) []any
}

// BatchCodec is the columnar fast path a codec may optionally implement:
// whole typed record slices ([]T) encode and decode without boxing each
// record through any. The runtime probes for it with a type assertion and
// falls back to the boxed Codec methods when either side declines. The
// byte format MUST be identical to the boxed methods' — a frame written by
// EncodeColumn is decoded by DecodeBatch on a receiver without the typed
// path, and vice versa.
type BatchCodec interface {
	// EncodeColumn appends the encoding of a typed record slice (a []T, as
	// returned by batchbuf.Column.Slice) to enc. It reports false — writing
	// nothing — when the slice's element type is foreign to the codec.
	EncodeColumn(enc *Encoder, col any) bool
	// DecodeBatchCol reads n records into a typed batch (one reference,
	// owned by the caller), or returns nil when the codec has no typed path
	// for the stream. The same self-containment contract as DecodeBatch
	// applies: the batch must not alias the decoder's input.
	DecodeBatchCol(dec *Decoder, n int) *batchbuf.Batch
}

// SliceEncoder is EncodeColumn with the element type known statically: a
// caller that holds a []T (lib.Sink's canonical form, encoding one record at
// a time) reaches the typed path without boxing the slice into any. The
// bytes are EncodeBatch's. Both codecs in this package implement it; a
// wrapper that forwards only Codec and BatchCodec hides it, and its callers
// fall back to the boxed interface.
type SliceEncoder[T any] interface {
	EncodeSlice(enc *Encoder, recs []T)
}

// funcCodec adapts per-record encode/decode functions for a concrete type.
type funcCodec[T any] struct {
	enc  func(*Encoder, T)
	dec  func(*Decoder) T
	pool *batchbuf.Pool[T]
}

func (c funcCodec[T]) EncodeBatch(enc *Encoder, records []any) {
	for _, r := range records {
		c.enc(enc, r.(T))
	}
}

func (c funcCodec[T]) DecodeBatch(dec *Decoder, n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = c.dec(dec)
	}
	return out
}

// EncodeColumn implements BatchCodec: same bytes as EncodeBatch, no boxing.
func (c funcCodec[T]) EncodeColumn(enc *Encoder, col any) bool {
	data, ok := col.([]T)
	if ok {
		c.EncodeSlice(enc, data)
	}
	return ok
}

// EncodeSlice implements SliceEncoder.
func (c funcCodec[T]) EncodeSlice(enc *Encoder, recs []T) {
	for _, r := range recs {
		c.enc(enc, r)
	}
}

// DecodeBatchCol implements BatchCodec: decode into a pooled typed batch.
func (c funcCodec[T]) DecodeBatchCol(dec *Decoder, n int) *batchbuf.Batch {
	b, cl := c.pool.Get(n)
	for i := 0; i < n; i++ {
		cl.Data = append(cl.Data, c.dec(dec))
	}
	return b
}

// New builds a codec for T from per-record encode/decode functions. The
// result implements BatchCodec, decoding into the process-wide pooled
// arena for T.
func New[T any](enc func(*Encoder, T), dec func(*Decoder) T) Codec {
	return funcCodec[T]{enc: enc, dec: dec, pool: batchbuf.PoolFor[T]()}
}

// Int64 returns a codec for int64 records.
func Int64() Codec {
	return New(
		func(e *Encoder, v int64) { e.PutInt64(v) },
		func(d *Decoder) int64 { return d.Int64() },
	)
}

// Float64 returns a codec for float64 records.
func Float64() Codec {
	return New(
		func(e *Encoder, v float64) { e.PutFloat64(v) },
		func(d *Decoder) float64 { return d.Float64() },
	)
}

// String returns a codec for string records.
func String() Codec {
	return New(
		func(e *Encoder, v string) { e.PutString(v) },
		func(d *Decoder) string { return d.String() },
	)
}
