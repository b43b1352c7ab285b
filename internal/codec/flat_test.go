package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"naiad/internal/testutil"
)

// kv mirrors lib.Pair (lib imports codec, so the tests cannot).
type kv[K comparable, V any] struct {
	Key K
	Val V
}

type widths struct {
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	I   int
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	U   uint
	UP  uintptr
	F32 float32
	F64 float64
	B   bool
	S   string
}

type nested struct {
	W    widths
	A    [3]int16
	P    [2]kv[string, int64]
	Tail uint8
}

// The reflect-only reference walker: the same byte layout as flat.go,
// produced and consumed through reflect.Value alone. It is the oracle for
// the one file that uses unsafe.

func refEncode(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return refPutFixed(buf, uint64(v.Int()), int(v.Type().Size()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return refPutFixed(buf, v.Uint(), int(v.Type().Size()))
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.String:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
		return append(buf, v.String()...)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = refEncode(buf, v.Field(i))
		}
		return buf
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = refEncode(buf, v.Index(i))
		}
		return buf
	}
	panic("refEncode: not a flat kind: " + v.Kind().String())
}

// refPutFixed appends the low size bytes of x, least significant first.
func refPutFixed(buf []byte, x uint64, size int) []byte {
	for i := 0; i < size; i++ {
		buf = append(buf, byte(x>>(8*i)))
	}
	return buf
}

// refDecode fills v from data[off:] and returns the new offset; it panics
// with a "ref:" message on anything flat.go must also refuse.
func refDecode(v reflect.Value, data []byte, off int) int {
	fixed := func(size int) uint64 {
		if len(data)-off < size {
			panic("ref: truncated")
		}
		var x uint64
		for i := 0; i < size; i++ {
			x |= uint64(data[off+i]) << (8 * i)
		}
		off += size
		return x
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		size := int(v.Type().Size())
		shift := 64 - 8*size
		v.SetInt(int64(fixed(size)<<shift) >> shift) // sign-extend
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(fixed(int(v.Type().Size())))
	case reflect.Float32:
		v.Set(reflect.ValueOf(math.Float32frombits(uint32(fixed(4)))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(fixed(8)))
	case reflect.Bool:
		b := fixed(1)
		if b > 1 {
			panic("ref: bad bool")
		}
		v.SetBool(b == 1)
	case reflect.String:
		l := fixed(4)
		if l > uint64(len(data)-off) {
			panic("ref: truncated string")
		}
		v.SetString(string(data[off : off+int(l)]))
		off += int(l)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			off = refDecode(v.Field(i), data, off)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			off = refDecode(v.Index(i), data, off)
		}
	default:
		panic("refDecode: not a flat kind: " + v.Kind().String())
	}
	return off
}

func refEncodeAll[T any](recs []T) []byte {
	var buf []byte
	for i := range recs {
		buf = refEncode(buf, reflect.ValueOf(&recs[i]).Elem())
	}
	return buf
}

func refDecodeAll[T any](data []byte, n int) (out []T, err error) {
	err = Catch(func() {
		off := 0
		for i := 0; i < n; i++ {
			var rec T
			off = refDecode(reflect.ValueOf(&rec).Elem(), data, off)
			out = append(out, rec)
		}
	})
	return out, err
}

// flatDecodeGuarded decodes through the plan into the middle of a larger
// array whose neighbours hold a canary record, and checks the canaries
// afterwards: unsafe may only ever touch the n destination records.
func flatDecodeGuarded[T any](t testing.TB, c Codec, canary T, data []byte, n int) (out []T, err error) {
	t.Helper()
	p := c.(gobCodec[T]).s.flat
	arena := make([]T, n+2)
	arena[0], arena[n+1] = canary, canary
	err = Catch(func() {
		d := NewDecoder(data)
		p.checkCount(d, n)
		flatDecode(p, d, arena[1:n+1])
	})
	if !reflect.DeepEqual(arena[0], canary) || !reflect.DeepEqual(arena[n+1], canary) {
		t.Fatalf("flat decode wrote outside its %d destination records", n)
	}
	if err != nil && strings.Contains(err.Error(), "runtime error") {
		t.Fatalf("flat decode failed by an incidental runtime panic, not an explicit input check: %v", err)
	}
	return arena[1 : n+1], err
}

// checkFlat is the whole property for one flat type and one column.
func checkFlat[T any](t *testing.T, canary T, recs []T) {
	t.Helper()
	c := Gob[T]()
	if c.(gobCodec[T]).s.flat == nil {
		t.Fatalf("%T got no flat plan", canary)
	}
	want := refEncodeAll(recs)

	col := NewEncoder(0)
	if !c.(BatchCodec).EncodeColumn(col, recs) {
		t.Fatal("EncodeColumn declined its own type")
	}
	boxed := make([]any, len(recs))
	for i, r := range recs {
		boxed[i] = r
	}
	box := NewEncoder(0)
	c.EncodeBatch(box, boxed)
	if !bytes.Equal(col.Bytes(), want) || !bytes.Equal(box.Bytes(), want) {
		t.Fatalf("%T bytes differ:\n column %x\n boxed  %x\n ref    %x", canary, col.Bytes(), box.Bytes(), want)
	}

	// Round trips: pooled column, boxed, guarded, and the reference decoder
	// over the flat encoder's bytes. Equality is judged on re-encoded bytes,
	// which also holds for NaN payloads.
	b := c.(BatchCodec).DecodeBatchCol(NewDecoder(want), len(recs))
	if got := b.Col().Slice().([]T); !bytes.Equal(refEncodeAll(got), want) {
		t.Fatalf("%T DecodeBatchCol = %+v, want %+v", canary, got, recs)
	}
	b.Release()
	out := c.DecodeBatch(NewDecoder(want), len(recs))
	for i := range out {
		if !bytes.Equal(refEncodeAll([]T{out[i].(T)}), refEncodeAll(recs[i:i+1])) {
			t.Fatalf("%T DecodeBatch[%d] = %+v, want %+v", canary, i, out[i], recs[i])
		}
	}
	if got, err := flatDecodeGuarded(t, c, canary, want, len(recs)); err != nil || !bytes.Equal(refEncodeAll(got), want) {
		t.Fatalf("%T guarded decode = %+v, %v", canary, got, err)
	}
	if got, err := refDecodeAll[T](want, len(recs)); err != nil || !bytes.Equal(refEncodeAll(got), want) {
		t.Fatalf("%T reference decode of flat bytes = %+v, %v", canary, got, err)
	}

	// Every truncation is an error; every one-byte mutation is an error or a
	// clean decode that the reference decoder agrees with.
	for cut := 0; cut < len(want); cut++ {
		if _, err := flatDecodeGuarded(t, c, canary, want[:cut], len(recs)); err == nil {
			t.Fatalf("%T: frame truncated to %d of %d bytes decoded cleanly", canary, cut, len(want))
		}
	}
	for i := range want {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), want...)
			mut[i] ^= flip
			agree(t, c, canary, mut, len(recs))
		}
	}
}

// agree checks flat decode against the reference decoder on arbitrary
// bytes: both refuse, or both accept and produce the same records.
func agree[T any](t testing.TB, c Codec, canary T, data []byte, n int) {
	t.Helper()
	got, err := flatDecodeGuarded(t, c, canary, data, n)
	ref, rerr := refDecodeAll[T](data, n)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%T on %x: flat err %v, reference err %v", canary, data, err, rerr)
	}
	if err == nil && !bytes.Equal(refEncodeAll(got), refEncodeAll(ref)) {
		t.Fatalf("%T on %x: flat %+v, reference %+v", canary, data, got, ref)
	}
}

func extremes() []nested {
	lo := widths{I8: math.MinInt8, I16: math.MinInt16, I32: math.MinInt32, I64: math.MinInt64, I: math.MinInt,
		F32: -math.MaxFloat32, F64: math.Inf(-1), S: ""}
	hi := widths{I8: math.MaxInt8, I16: math.MaxInt16, I32: math.MaxInt32, I64: math.MaxInt64, I: math.MaxInt,
		U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64, U: math.MaxUint, UP: math.MaxUint,
		F32: math.SmallestNonzeroFloat32, F64: math.NaN(), B: true, S: strings.Repeat("long ", 40)}
	return []nested{
		{},
		{W: lo, A: [3]int16{-1, 0, 1}, P: [2]kv[string, int64]{{"a", -1}, {"", 1 << 62}}, Tail: 255},
		{W: hi, A: [3]int16{math.MinInt16, math.MaxInt16, 7}, P: [2]kv[string, int64]{{"\x00\xff", 0}, {"k", math.MinInt64}}},
	}
}

func TestFlatCodec(t *testing.T) {
	checkFlat(t, kv[int64, int64]{-7, 7}, []kv[int64, int64]{
		{0, 0}, {1, -1}, {63, 64}, {-64, -65}, {math.MaxInt64, math.MinInt64}, {1 << 40, 255},
	})
	checkFlat(t, kv[string, int64]{"canary", 7}, []kv[string, int64]{
		{"", 0}, {"k", 1}, {strings.Repeat("x", 300), -1}, {"héllo\x00", math.MinInt64},
	})
	checkFlat(t, nested{Tail: 9}, extremes())
	checkFlat(t, int64(-3), []int64{0, -1, 1, math.MaxInt64, math.MinInt64})
	checkFlat(t, kv[int64, int64]{}, nil) // the empty column encodes to nothing
}

// A corrupt count must be refused before it sizes an allocation, and a
// packed column one byte short is refused by the count check and, when the
// count is not checked, by the copy.
func TestFlatCountChecked(t *testing.T) {
	c := Gob[kv[int64, int64]]().(BatchCodec)
	err := Catch(func() { c.DecodeBatchCol(NewDecoder([]byte{2, 2, 4, 4}), 1<<30) })
	if err == nil || !strings.Contains(err.Error(), "corrupt count") {
		t.Fatalf("1<<30 records in 4 bytes: %v", err)
	}
	err = Catch(func() { c.DecodeBatchCol(NewDecoder(make([]byte, 31)), 2) })
	if err == nil || !strings.Contains(err.Error(), "corrupt count") {
		t.Fatalf("2 packed records in 31 bytes: %v", err)
	}
	p := c.(gobCodec[kv[int64, int64]]).s.flat
	err = Catch(func() { flatDecode(p, NewDecoder(make([]byte, 31)), make([]kv[int64, int64], 2)) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("unchecked packed copy of 2 records from 31 bytes: %v", err)
	}
}

// seededColumn returns n records of T decoded by the reference walker from
// seeded random bytes: every leaf of a packed type takes any bit pattern.
func seededColumn[T any](t *testing.T, rng *rand.Rand, n int) []T {
	t.Helper()
	raw := make([]byte, n*int(reflect.TypeFor[T]().Size()))
	rng.Read(raw)
	recs, err := refDecodeAll[T](raw, n)
	if err != nil {
		t.Fatalf("%T: seeded column: %v", *new(T), err)
	}
	return recs
}

// checkPacked holds one packed type's single copy to the per-leaf loop:
// both write the reference walker's bytes and decode to the same column.
func checkPacked[T any](t *testing.T, rng *rand.Rand) {
	t.Helper()
	p := Gob[T]().(gobCodec[T]).s.flat
	if p == nil || !p.packed {
		t.Fatalf("%T: plan %+v is not packed", *new(T), p)
	}
	loop := *p
	loop.packed = false
	for _, n := range []int{0, 1, 3, 1000} {
		recs := seededColumn[T](t, rng, n)
		want := refEncodeAll(recs)
		for _, plan := range []*flatPlan{p, &loop} {
			enc := NewEncoder(0)
			flatEncode(plan, enc, recs)
			if !bytes.Equal(enc.Bytes(), want) {
				t.Fatalf("%T n=%d packed=%v: bytes %x, reference %x", *new(T), n, plan.packed, enc.Bytes(), want)
			}
			out := make([]T, n)
			dec := NewDecoder(want)
			flatDecode(plan, dec, out)
			if dec.Remaining() != 0 || !bytes.Equal(refEncodeAll(out), want) {
				t.Fatalf("%T n=%d packed=%v: decoded %+v (%d bytes left), want %+v", *new(T), n, plan.packed, out, dec.Remaining(), recs)
			}
		}
	}
}

func TestFlatPackedMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t)))
	type mixed struct {
		A int32
		B uint32
		C float64
	}
	type native struct {
		I int
		U uint
	}
	checkPacked[kv[int64, int64]](t, rng)
	checkPacked[[4]uint16](t, rng)
	checkPacked[mixed](t, rng)
	checkPacked[native](t, rng)
	checkPacked[kv[int8, [3]int8]](t, rng)
}

// Padding, bool and string take the per-leaf loop.
func TestFlatUnpackedTypes(t *testing.T) {
	type padded struct {
		A int8
		B int64
	}
	for name, typ := range map[string]reflect.Type{
		"padded struct": reflect.TypeFor[padded](),
		"bool":          reflect.TypeFor[bool](),
		"string":        reflect.TypeFor[string](),
		"string pair":   reflect.TypeFor[kv[string, int64]](),
		"bool field":    reflect.TypeFor[kv[int64, bool]](),
	} {
		if p := newFlatPlan(typ); p == nil || p.packed {
			t.Errorf("%s: plan %+v, want an unpacked plan", name, p)
		}
	}
	checkFlat(t, padded{A: 9}, []padded{{}, {A: -1, B: math.MinInt64}, {A: math.MaxInt8, B: 1}})
	checkFlat(t, true, []bool{false, true, true})
}

// Gob's flat mode writes exactly the bytes of the hand-written codecs for
// their record types, and each decodes the other's frames.
func TestGobMatchesFixedCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(testutil.Seed(t)))
	const n = 257
	ints, floats, strs := make([]any, n), make([]any, n), make([]any, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Uint64())
		floats[i] = math.Float64frombits(rng.Uint64())
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		strs[i] = string(b)
	}
	for _, c := range []struct {
		name       string
		gob, fixed Codec
		recs       []any
	}{
		{"int64", Gob[int64](), Int64(), ints},
		{"float64", Gob[float64](), Float64(), floats},
		{"string", Gob[string](), String(), strs},
	} {
		g, f := NewEncoder(0), NewEncoder(0)
		c.gob.EncodeBatch(g, c.recs)
		c.fixed.EncodeBatch(f, c.recs)
		if !bytes.Equal(g.Bytes(), f.Bytes()) {
			t.Fatalf("%s: Gob bytes %x\nfixed codec bytes %x", c.name, g.Bytes(), f.Bytes())
		}
		for _, pair := range [][2]Codec{{c.gob, c.fixed}, {c.fixed, c.gob}} {
			e := NewEncoder(0)
			pair[0].EncodeBatch(e, pair[1].DecodeBatch(NewDecoder(f.Bytes()), n))
			if !bytes.Equal(e.Bytes(), f.Bytes()) {
				t.Fatalf("%s: cross decode changed the column", c.name)
			}
		}
	}
}

type gobbed struct{ N int64 }

func (g gobbed) GobEncode() ([]byte, error) { return []byte{byte(g.N)}, nil }
func (g *gobbed) GobDecode(b []byte) error  { g.N = int64(b[0]); return nil }

// Types outside the flat family get no plan and still round-trip through
// gob, exactly as before.
func TestFlatPlanRefusals(t *testing.T) {
	type withPtr struct{ P *int64 }
	type withSlice struct{ S []int64 }
	type withMap struct{ M map[string]int64 }
	type withIface struct{ V any }
	type withHidden struct {
		Pub  int64
		priv int64 //nolint:unused // what makes the type non-flat
	}
	type withGob struct{ G gobbed }
	type huge struct{ A [maxFlatOps + 1]int8 }
	gob.Register(int64(0))
	seven := int64(7)

	refuse := func(name string, typ reflect.Type) {
		if newFlatPlan(typ) != nil {
			t.Errorf("%s: got a flat plan", name)
		}
	}
	refuse("pointer", reflect.TypeFor[withPtr]())
	refuse("slice", reflect.TypeFor[withSlice]())
	refuse("map", reflect.TypeFor[withMap]())
	refuse("interface", reflect.TypeFor[withIface]())
	refuse("unexported field", reflect.TypeFor[withHidden]())
	refuse("GobEncode method", reflect.TypeFor[withGob]())
	refuse("GobEncode at top level", reflect.TypeFor[gobbed]())
	refuse("oversized array", reflect.TypeFor[huge]())
	refuse("complex", reflect.TypeFor[complex128]())
	refuse("empty struct", reflect.TypeFor[struct{}]())

	roundTrip(t, withPtr{P: &seven})
	roundTrip(t, withSlice{S: []int64{1, 2}})
	roundTrip(t, withMap{M: map[string]int64{"a": 1}})
	roundTrip(t, withIface{V: int64(9)})
	roundTrip(t, withHidden{Pub: 5})
	roundTrip(t, withGob{G: gobbed{N: 3}})
}

func roundTrip[T any](t *testing.T, rec T) {
	t.Helper()
	c := Gob[T]()
	e := NewEncoder(0)
	c.EncodeBatch(e, []any{rec})
	out := c.DecodeBatch(NewDecoder(e.Bytes()), 1)
	if !reflect.DeepEqual(out[0], any(rec)) {
		t.Errorf("%T gob round trip = %+v, want %+v", rec, out[0], rec)
	}
}

// FuzzFlatCodec drives the flat plan from both ends. Fuzzed values must
// round-trip and match the reference walker's bytes; fuzzed bytes must be
// refused or accepted exactly as the reference decoder does, for a narrow,
// a string-bearing and a nested type — with the decode landing between
// canaries, so a stray unsafe write is caught.
func FuzzFlatCodec(f *testing.F) {
	for _, n := range extremes() {
		f.Add(n.W.I64, n.W.U64, n.W.S, n.W.F64, n.W.I8, refEncodeAll([]nested{n}), uint8(1))
	}
	f.Add(int64(1), uint64(2), "k", 0.5, int8(3), []byte{2, 2, 4, 4}, uint8(2))
	f.Add(int64(0), uint64(0), "", 0.0, int8(0), []byte{0x80}, uint8(1))
	f.Add(int64(0), uint64(0), "", 0.0, int8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, uint8(1))
	pII, pSI, nst := Gob[kv[int64, int64]](), Gob[kv[string, int64]](), Gob[nested]()
	f.Fuzz(func(t *testing.T, i int64, u uint64, s string, fl float64, i8 int8, data []byte, n uint8) {
		rec := nested{
			W: widths{I8: i8, I16: int16(i), I32: int32(i), I64: i, I: int(i), U8: uint8(u), U16: uint16(u),
				U32: uint32(u), U64: u, U: uint(u), UP: uintptr(u), F32: float32(fl), F64: fl, B: i&1 == 1, S: s},
			A:    [3]int16{int16(u), int16(i8), 0},
			P:    [2]kv[string, int64]{{s, i}, {"", -i}},
			Tail: uint8(i8),
		}
		for _, recs := range [][]nested{{rec}, {rec, {}, rec}} {
			want := refEncodeAll(recs)
			e := NewEncoder(0)
			nst.(BatchCodec).EncodeColumn(e, recs)
			if !bytes.Equal(e.Bytes(), want) {
				t.Fatalf("flat bytes %x, reference %x", e.Bytes(), want)
			}
			got, err := flatDecodeGuarded(t, nst, nested{Tail: 9}, want, len(recs))
			if err != nil || !bytes.Equal(refEncodeAll(got), want) {
				t.Fatalf("round trip: %+v, %v", got, err)
			}
		}
		cnt := int(n % 8)
		agree(t, pII, kv[int64, int64]{-7, 7}, data, cnt)
		agree(t, pSI, kv[string, int64]{"canary", 7}, data, cnt)
		agree(t, nst, nested{Tail: 9}, data, cnt)
	})
}

// BenchmarkGobPairColumn is the codec's share of the exchange path: encode
// plus decode of a 16 384-record Pair column, ns per record, for the flat
// plan and for a control type one slice field away from it (primed gob).
func BenchmarkGobPairColumn(b *testing.B) {
	const n = 16384
	type control struct {
		Key, Val int64
		Pad      []byte
	}
	flat := make([]kv[int64, int64], n)
	ctl := make([]control, n)
	for i := range flat {
		flat[i] = kv[int64, int64]{Key: int64(i % 256), Val: 1}
		ctl[i] = control{Key: int64(i % 256), Val: 1}
	}
	run := func(b *testing.B, c Codec, col any) {
		bc := c.(BatchCodec)
		enc := NewEncoder(16 * n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			bc.EncodeColumn(enc, col)
			bc.DecodeBatchCol(NewDecoder(enc.Bytes()), n).Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		b.ReportMetric(float64(len(enc.Bytes()))/n, "B/record")
	}
	b.Run("flat", func(b *testing.B) { run(b, Gob[kv[int64, int64]](), flat) })
	b.Run("control", func(b *testing.B) { run(b, Gob[control](), ctl) })
}
