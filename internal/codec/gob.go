package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"

	"naiad/internal/batchbuf"
)

// Gob[T]: the default record codec, in one of three modes chosen once per
// codec instance from T alone.
//
//  1. Flat plan (flat.go). T is built only from fixed-width ints, floats,
//     bool, string, and exported-field structs and arrays of those, with no
//     custom gob/binary marshalling: a compiled (offset, width) plan encodes
//     and decodes whole []T columns with no reflection, straight into and
//     out of pooled typed columns, in Encoder's fixed-width little-endian
//     form. A T of numbers with no padding is one copy of the column's
//     memory each way. No gob is involved and no priming is paid.
//  2. Primed value-only gob. Any other type whose gob descriptor set is
//     closed (no interface anywhere in its type graph).
//  3. Self-contained gob. Everything else: a fresh encoder/decoder per frame.
//
// Modes 2 and 3 exist because encoding/gob sends a type descriptor the
// first time a type crosses an encoder, then only values. A fresh
// gob.Encoder per frame therefore re-sends every descriptor on every frame —
// for a small struct batch the descriptors dwarf the payload. The sessions
// below keep primed encoder/decoder pairs cached per codec instance (one
// instance per connector), so descriptors are paid once per session, not
// per frame.
//
// Frames must still decode standalone and in any order: the replay log,
// barrier cut snapshots, and checkpoint fragments all store frames and
// decode them later, on other sessions. The trick is deterministic priming:
// a new encode session first encodes a zero []T and discards the bytes —
// that transfers every descriptor T needs — and a new decode session feeds
// itself the same primer bytes (locally generated; gob descriptors are
// deterministic for a fixed type and gob version). After priming, every
// frame is value-only and every primed decoder accepts any primed encoder's
// frame, in any order.
//
// Value-only framing is sound only when the descriptor set is closed at
// priming time: a type graph containing interfaces can introduce new
// descriptors mid-stream (gob transmits the dynamic type on first use),
// which would make frames order-dependent. Such types — and anything else
// whose descriptor closure the primer cannot reach — fall back to the old
// self-contained framing (fresh encoder/decoder per frame).
//
// The three modes produce different bytes, so both sides must agree; they
// do, because the mode is a pure function of T evaluated identically in
// every process running the same binary. Bytes written by a *different*
// binary are a persistence-format question: the one place frames outlive a
// process is a persisted CutSnapshot, whose version constant changes with
// the codec (runtime.cutVersion).

// gobCodec serializes []T batches in the mode Gob chose for T (see the
// comment above). It is the codec of record types without a hand-written
// one.
type gobCodec[T any] struct {
	s *gobState[T]
}

type gobState[T any] struct {
	flat *flatPlan         // mode 1 when non-nil; the gob fields below are then unused
	pool *batchbuf.Pool[T] // mode 1's decode target

	streamable bool   // descriptor set closed: value-only frames are safe
	primer     []byte // descriptor bytes a fresh session must consume first

	encs sync.Pool // *gobEncSession[T]
	decs sync.Pool // *gobDecSession[T]
}

// Gob returns the default codec for arbitrary record types. The returned
// codec may carry cached encoder/decoder stream state; create one per
// connector (as lib does) and reuse it for the connector's lifetime.
func Gob[T any]() Codec {
	t := reflect.TypeFor[T]()
	if p := newFlatPlan(t); p != nil {
		return gobCodec[T]{s: &gobState[T]{flat: p, pool: batchbuf.PoolFor[T]()}}
	}
	st := &gobState[T]{streamable: descriptorClosed(t)}
	if st.streamable {
		s := newGobEncSession[T]()
		st.primer = append([]byte(nil), s.primerBytes...)
	}
	return gobCodec[T]{s: st}
}

type gobEncSession[T any] struct {
	buf         bytes.Buffer
	enc         *gob.Encoder
	primerBytes []byte
}

func newGobEncSession[T any]() *gobEncSession[T] {
	s := &gobEncSession[T]{}
	s.enc = gob.NewEncoder(&s.buf)
	if err := s.enc.Encode([]T{}); err != nil {
		panic(fmt.Sprintf("codec: gob primer encode: %v", err))
	}
	s.primerBytes = append([]byte(nil), s.buf.Bytes()...)
	s.buf.Reset()
	return s
}

// encode serializes one batch as a value-only frame. The returned bytes are
// valid until the session's next encode.
func (s *gobEncSession[T]) encode(v []T) []byte {
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		panic(fmt.Sprintf("codec: gob encode: %v", err))
	}
	return s.buf.Bytes()
}

type gobDecSession[T any] struct {
	rd  bytes.Reader
	dec *gob.Decoder
}

func newGobDecSession[T any](primer []byte) *gobDecSession[T] {
	s := &gobDecSession[T]{}
	s.rd.Reset(primer)
	// bytes.Reader implements io.ByteReader, so gob adds no read-ahead
	// buffering of its own and the reader can be repointed between frames.
	s.dec = gob.NewDecoder(&s.rd)
	var dummy []T
	if err := s.dec.Decode(&dummy); err != nil {
		panic(fmt.Sprintf("codec: gob primer decode: %v", err))
	}
	return s
}

func (s *gobDecSession[T]) decode(frame []byte) []T {
	s.rd.Reset(frame)
	var v []T
	if err := s.dec.Decode(&v); err != nil {
		panic(fmt.Sprintf("codec: gob decode: %v", err))
	}
	return v
}

// EncodeSlice implements SliceEncoder and is the one encode path: it frames
// one batch through the flat plan, else through a cached session when the
// type is streamable.
func (c gobCodec[T]) EncodeSlice(enc *Encoder, slice []T) {
	if c.s.flat != nil {
		flatEncode(c.s.flat, enc, slice)
		return
	}
	if !c.s.streamable {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(slice); err != nil {
			panic(fmt.Sprintf("codec: gob encode: %v", err))
		}
		enc.PutBytes(buf.Bytes())
		return
	}
	s, _ := c.s.encs.Get().(*gobEncSession[T])
	if s == nil {
		s = newGobEncSession[T]()
	}
	enc.PutBytes(s.encode(slice))
	c.s.encs.Put(s)
}

// decodeSlice parses one gob frame. The result owns its memory (gob always
// copies), honoring the Codec self-containment contract. A session is
// returned to the pool only after a clean decode: a corrupt frame may leave
// its internal state mid-message, so the session is discarded with the
// panic.
func (c gobCodec[T]) decodeSlice(dec *Decoder, n int) []T {
	raw := dec.BytesView()
	var slice []T
	if !c.s.streamable {
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&slice); err != nil {
			panic(fmt.Sprintf("codec: gob decode: %v", err))
		}
	} else {
		s, _ := c.s.decs.Get().(*gobDecSession[T])
		if s == nil {
			s = newGobDecSession[T](c.s.primer)
		}
		slice = s.decode(raw)
		c.s.decs.Put(s)
	}
	if len(slice) != n {
		panic(fmt.Sprintf("codec: gob batch length %d, want %d", len(slice), n))
	}
	return slice
}

func (c gobCodec[T]) EncodeBatch(enc *Encoder, records []any) {
	slice := make([]T, len(records))
	for i, r := range records {
		slice[i] = r.(T)
	}
	c.EncodeSlice(enc, slice)
}

func (c gobCodec[T]) DecodeBatch(dec *Decoder, n int) []any {
	b := c.DecodeBatchCol(dec, n)
	out := make([]any, n)
	for i, v := range b.Col().Slice().([]T) {
		out[i] = v
	}
	b.Release()
	return out
}

// EncodeColumn implements BatchCodec: a typed slice encodes without the
// boxed copy, to the same bytes as EncodeBatch.
func (c gobCodec[T]) EncodeColumn(enc *Encoder, col any) bool {
	slice, ok := col.([]T)
	if !ok {
		return false
	}
	c.EncodeSlice(enc, slice)
	return true
}

// DecodeBatchCol implements BatchCodec. The flat plan decodes in place into
// a pooled column; gob necessarily allocates the decoded slice, so the
// batch adopts it instead of copying.
func (c gobCodec[T]) DecodeBatchCol(dec *Decoder, n int) *batchbuf.Batch {
	if p := c.s.flat; p != nil {
		p.checkCount(dec, n)
		b, col := c.s.pool.Get(n)
		col.Data = col.Data[:n]
		flatDecode(p, dec, col.Data)
		return b
	}
	return batchbuf.Of(c.decodeSlice(dec, n))
}

// descriptorClosed reports whether T's gob descriptor set is fully known
// from the static type: no interface anywhere in the type graph (an
// interface value transmits its dynamic type's descriptor on first use,
// reopening the stream's descriptor set mid-flight).
func descriptorClosed(t reflect.Type) bool {
	return closedWalk(t, map[reflect.Type]bool{})
}

func closedWalk(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true // recursive types are fine; gob descriptors handle cycles
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return false
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false // gob cannot encode these at all; use legacy framing so the error surfaces the same way it always did
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return closedWalk(t.Elem(), seen)
	case reflect.Map:
		return closedWalk(t.Key(), seen) && closedWalk(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue // gob skips unexported fields
			}
			if !closedWalk(f.Type, seen) {
				return false
			}
		}
		return true
	default:
		return true
	}
}
