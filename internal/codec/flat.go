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
// width) pair. Encoding and decoding a whole []T column is then two nested
// loops over that plan with no reflection and no per-record dispatch.
//
// Byte layout: records back to back, each the concatenation of its leaves
// in the form Encoder's own primitives write:
//
//	ints, uints, floats  fixed-width little-endian, at the field's own size
//	bool                 one byte, 0 or 1
//	string               uint32 little-endian byte length, then the bytes
//
// So Gob[int64], Gob[float64] and Gob[string] write the bytes of Int64(),
// Float64() and String(). There is no frame header: the record count travels
// in the envelope, as it does for every codec.
//
// A plan whose leaves are all numbers and exactly tile the record's memory
// (no bool, no string, no padding) is packed: on a little-endian host the
// layout above is then the column's memory itself, so a column encodes as
// one append of its bytes and decodes as one copy into the pooled column.
// Other plans run the per-leaf loop, which writes the same bytes.
//
// This file is the only non-test file in the module that imports unsafe
// (`make vet` enforces it). unsafe is used for exactly two things:
// addressing a leaf inside element i of a live []T at the offset reflect
// reported for it, and viewing a packed (pointer-free) column as bytes.
// Every read of *encoded* input goes through Decoder's bounds checks; a
// corrupt frame panics (codec.Catch turns that into an error) and can never
// steer a pointer, because offsets and sizes come from the plan, never from
// the wire. flat_test.go checks the plan against a reflect-only walker.

type flatKind uint8

// A number's kind is log2 of its size in bytes.
const (
	flat8 flatKind = iota
	flat16
	flat32
	flat64
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
	packed   bool     // the encoded record is its memory (see above)
}

// maxFlatOps bounds a plan: arrays expand to one op per element, so a huge
// array field would otherwise compile to a huge plan. Such types keep gob.
const maxFlatOps = 256

// littleEndian reports whether this host stores numbers in the wire order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// newFlatPlan compiles t, or returns nil when t is not a flat type.
func newFlatPlan(t reflect.Type) *flatPlan {
	p := &flatPlan{size: t.Size()}
	if !p.walk(t, 0) || len(p.ops) == 0 {
		return nil
	}
	p.packed = littleEndian && uintptr(p.minBytes) == p.size
	for _, op := range p.ops {
		p.packed = p.packed && op.kind <= flat64
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
	leaf := func(k flatKind, n int) bool {
		p.ops = append(p.ops, flatOp{off: off, kind: k})
		p.minBytes += n
		return len(p.ops) <= maxFlatOps
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return leaf(flatKind(bits.TrailingZeros(uint(t.Size()))), int(t.Size()))
	case reflect.Bool:
		return leaf(flatBool, 1)
	case reflect.String:
		return leaf(flatString, 4)
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
	base := unsafe.Pointer(unsafe.SliceData(recs))
	if p.packed {
		enc.buf = append(enc.buf, unsafe.Slice((*byte)(base), uintptr(len(recs))*p.size)...)
		return
	}
	enc.buf = p.encode(enc.buf, base, len(recs))
}

// flatDecode fills every element of recs from dec. The caller sized recs
// from a count validated by checkCount.
func flatDecode[T any](p *flatPlan, dec *Decoder, recs []T) {
	base := unsafe.Pointer(unsafe.SliceData(recs))
	if p.packed {
		n := len(recs) * int(p.size)
		dec.need(n)
		dec.off += copy(unsafe.Slice((*byte)(base), n), dec.data[dec.off:])
		return
	}
	p.decode(dec, base, len(recs))
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
			case flat8, flatBool:
				buf = append(buf, *(*uint8)(f))
			case flat16:
				buf = binary.LittleEndian.AppendUint16(buf, *(*uint16)(f))
			case flat32:
				buf = binary.LittleEndian.AppendUint32(buf, *(*uint32)(f))
			case flat64:
				buf = binary.LittleEndian.AppendUint64(buf, *(*uint64)(f))
			case flatString:
				s := *(*string)(f)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	return buf
}

// decode reads n records from d into the n-element array at base.
func (p *flatPlan) decode(d *Decoder, base unsafe.Pointer, n int) {
	for i := 0; i < n; i++ {
		rec := unsafe.Add(base, uintptr(i)*p.size)
		for _, op := range p.ops {
			f := unsafe.Add(rec, op.off)
			switch op.kind {
			case flat8:
				*(*uint8)(f) = d.Uint8()
			case flat16:
				d.need(2)
				*(*uint16)(f) = binary.LittleEndian.Uint16(d.data[d.off:])
				d.off += 2
			case flat32:
				*(*uint32)(f) = d.Uint32()
			case flat64:
				*(*uint64)(f) = d.Uint64()
			case flatBool:
				v := d.Uint8()
				if v > 1 {
					panic("codec: corrupt flat record: bool byte is neither 0 nor 1")
				}
				*(*uint8)(f) = v
			case flatString:
				*(*string)(f) = d.String()
			}
		}
	}
}
