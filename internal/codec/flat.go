package codec

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/bits"
	"reflect"
	"unsafe"
)

// Compiled flat codec: the first of Gob[T]'s three modes (see gob.go).
//
// A record type built only from fixed-width integers, floats, bool, string,
// and structs and arrays of those — every field exported, no custom gob or
// binary marshalling anywhere — is described once, at codec construction,
// by a flatPlan: the record's leaves in declaration order, each an (offset,
// kind) pair. Encoding and decoding a whole []T column is then two nested
// loops over that plan with no reflection and no per-record dispatch.
//
// Byte layout: records back to back, each the concatenation of its leaves:
//
//	int8…int64, int      zig-zag varint (encoding/binary's Varint)
//	uint8…uint64, uintptr uvarint
//	float32, float64     fixed-width little-endian bit pattern
//	bool                 one byte, 0 or 1
//	string               uvarint byte length, then the bytes (copied)
//
// There is no frame header: the record count travels in the envelope, as it
// does for every codec.
//
// This file is the only non-test file in the module that imports unsafe
// (`make vet` enforces it). unsafe is used for exactly one thing: addressing
// a leaf inside element i of a live []T at the offset reflect reported for
// it. Every read of *encoded* input indexes the []byte with ordinary bounds
// checks; a corrupt frame panics (codec.Catch turns that into an error) and
// can never steer a pointer, because offsets come from the plan, never from
// the wire. flat_test.go checks the plan against a reflect-only walker.

type flatKind uint8

// The four signed and four unsigned kinds are laid out so that kind =
// base + log2(size in bytes).
const (
	flatInt8 flatKind = iota
	flatInt16
	flatInt32
	flatInt64
	flatUint8
	flatUint16
	flatUint32
	flatUint64
	flatFloat32
	flatFloat64
	flatBool
	flatString
)

type flatOp struct {
	off  uintptr
	kind flatKind
}

// flatPlan is the compiled description of one record type.
type flatPlan struct {
	size     uintptr  // of one record in memory
	ops      []flatOp // leaves, in declaration order
	minBytes int      // least encoded size of one record; ≥ 1
}

// maxFlatOps bounds a plan: arrays expand to one op per element, so a huge
// array field would otherwise compile to a huge plan. Such types keep gob.
const maxFlatOps = 256

// newFlatPlan compiles t, or returns nil when t is not a flat type.
func newFlatPlan(t reflect.Type) *flatPlan {
	p := &flatPlan{size: t.Size()}
	if !p.walk(t, 0) || len(p.ops) == 0 {
		return nil
	}
	return p
}

var customEncodings = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
}

func (p *flatPlan) walk(t reflect.Type, off uintptr) bool {
	for _, iface := range customEncodings {
		if t.Implements(iface) || reflect.PointerTo(t).Implements(iface) {
			return false // the type says its memory is not its wire form
		}
	}
	leaf := func(k flatKind, minBytes int) bool {
		p.ops = append(p.ops, flatOp{off: off, kind: k})
		p.minBytes += minBytes
		return len(p.ops) <= maxFlatOps
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return leaf(flatInt8+flatKind(bits.TrailingZeros(uint(t.Size()))), 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return leaf(flatUint8+flatKind(bits.TrailingZeros(uint(t.Size()))), 1)
	case reflect.Float32:
		return leaf(flatFloat32, 4)
	case reflect.Float64:
		return leaf(flatFloat64, 8)
	case reflect.Bool:
		return leaf(flatBool, 1)
	case reflect.String:
		return leaf(flatString, 1)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || !p.walk(f.Type, off+f.Offset) {
				return false
			}
		}
		return true
	case reflect.Array:
		if t.Len() > maxFlatOps {
			return false
		}
		for i := 0; i < t.Len(); i++ {
			if !p.walk(t.Elem(), off+uintptr(i)*t.Elem().Size()) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// flatEncode appends the encoding of recs to enc.
func flatEncode[T any](p *flatPlan, enc *Encoder, recs []T) {
	enc.buf = p.encode(enc.buf, unsafe.Pointer(unsafe.SliceData(recs)), len(recs))
}

// flatDecode fills every element of recs from dec. The caller sized recs
// from a count validated by checkCount.
func flatDecode[T any](p *flatPlan, dec *Decoder, recs []T) {
	dec.off = p.decode(dec.data, dec.off, unsafe.Pointer(unsafe.SliceData(recs)), len(recs))
}

// checkCount panics when n records cannot fit in dec's remaining bytes, so
// a corrupt count never sizes an allocation.
func (p *flatPlan) checkCount(dec *Decoder, n int) {
	if n < 0 || n > dec.Remaining()/p.minBytes {
		panic(fmt.Sprintf("codec: corrupt count: %d flat records claimed with %d bytes remaining", n, dec.Remaining()))
	}
}

func (p *flatPlan) encode(buf []byte, base unsafe.Pointer, n int) []byte {
	for i := 0; i < n; i++ {
		rec := unsafe.Add(base, uintptr(i)*p.size)
		for _, op := range p.ops {
			f := unsafe.Add(rec, op.off)
			switch op.kind {
			case flatInt8:
				buf = binary.AppendVarint(buf, int64(*(*int8)(f)))
			case flatInt16:
				buf = binary.AppendVarint(buf, int64(*(*int16)(f)))
			case flatInt32:
				buf = binary.AppendVarint(buf, int64(*(*int32)(f)))
			case flatInt64:
				buf = binary.AppendVarint(buf, *(*int64)(f))
			case flatUint8:
				buf = binary.AppendUvarint(buf, uint64(*(*uint8)(f)))
			case flatUint16:
				buf = binary.AppendUvarint(buf, uint64(*(*uint16)(f)))
			case flatUint32:
				buf = binary.AppendUvarint(buf, uint64(*(*uint32)(f)))
			case flatUint64:
				buf = binary.AppendUvarint(buf, *(*uint64)(f))
			case flatFloat32:
				buf = binary.LittleEndian.AppendUint32(buf, *(*uint32)(f))
			case flatFloat64:
				buf = binary.LittleEndian.AppendUint64(buf, *(*uint64)(f))
			case flatBool:
				buf = append(buf, *(*uint8)(f))
			case flatString:
				s := *(*string)(f)
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	return buf
}

// decode reads n records from data[off:] into the n-element array at base
// and returns the new offset.
func (p *flatPlan) decode(data []byte, off int, base unsafe.Pointer, n int) int {
	var v int64
	var u uint64
	for i := 0; i < n; i++ {
		rec := unsafe.Add(base, uintptr(i)*p.size)
		for _, op := range p.ops {
			f := unsafe.Add(rec, op.off)
			switch op.kind {
			case flatInt8:
				v, off = flatVarint(data, off)
				flatRange(int64(int8(v)) == v)
				*(*int8)(f) = int8(v)
			case flatInt16:
				v, off = flatVarint(data, off)
				flatRange(int64(int16(v)) == v)
				*(*int16)(f) = int16(v)
			case flatInt32:
				v, off = flatVarint(data, off)
				flatRange(int64(int32(v)) == v)
				*(*int32)(f) = int32(v)
			case flatInt64:
				*(*int64)(f), off = flatVarint(data, off)
			case flatUint8:
				u, off = flatUvarint(data, off)
				flatRange(uint64(uint8(u)) == u)
				*(*uint8)(f) = uint8(u)
			case flatUint16:
				u, off = flatUvarint(data, off)
				flatRange(uint64(uint16(u)) == u)
				*(*uint16)(f) = uint16(u)
			case flatUint32:
				u, off = flatUvarint(data, off)
				flatRange(uint64(uint32(u)) == u)
				*(*uint32)(f) = uint32(u)
			case flatUint64:
				*(*uint64)(f), off = flatUvarint(data, off)
			case flatFloat32:
				flatNeed(data, off, 4)
				*(*uint32)(f) = binary.LittleEndian.Uint32(data[off:])
				off += 4
			case flatFloat64:
				flatNeed(data, off, 8)
				*(*uint64)(f) = binary.LittleEndian.Uint64(data[off:])
				off += 8
			case flatBool:
				flatNeed(data, off, 1)
				flatRange(data[off] <= 1)
				*(*uint8)(f) = data[off]
				off++
			case flatString:
				u, off = flatUvarint(data, off)
				if u > uint64(len(data)-off) {
					panic(fmt.Sprintf("codec: truncated input: string of %d bytes at offset %d of %d", u, off, len(data)))
				}
				*(*string)(f) = string(data[off : off+int(u)])
				off += int(u)
			}
		}
	}
	return off
}

// flatVarint reads one zig-zag varint at data[off:].
func flatVarint(data []byte, off int) (int64, int) {
	u, off := flatUvarint(data, off)
	return int64(u>>1) ^ -int64(u&1), off
}

// flatUvarint reads one uvarint at data[off:].
func flatUvarint(data []byte, off int) (uint64, int) {
	if off < len(data) && data[off] < 0x80 {
		return uint64(data[off]), off + 1
	}
	v, w := binary.Uvarint(data[off:])
	if w <= 0 {
		panic(fmt.Sprintf("codec: truncated or overlong varint at offset %d of %d", off, len(data)))
	}
	return v, off + w
}

func flatNeed(data []byte, off, n int) {
	if len(data)-off < n {
		panic(fmt.Sprintf("codec: truncated input: need %d bytes at offset %d of %d", n, off, len(data)))
	}
}

func flatRange(ok bool) {
	if !ok {
		panic("codec: corrupt flat record: value out of range for its field")
	}
}
