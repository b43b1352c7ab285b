package lib

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"naiad/internal/codec"
	"naiad/internal/runtime"
)

// referenceHash is Hash as it stood before the allocation-free rewrite: the
// string arm through hash/fnv and a []byte copy, the default arm through a
// fresh gob encoder and buffer per key. Placement — and so every golden
// output in the repo — depends on these exact values.
func referenceHash[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(v))
	case int64:
		return mix64(uint64(v))
	case uint32:
		return mix64(uint64(v))
	case uint64:
		return mix64(v)
	case string:
		h := fnv.New64a()
		h.Write([]byte(v))
		return mix64(h.Sum64())
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			panic(fmt.Sprintf("lib: unhashable key %T: %v", v, err))
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return mix64(h.Sum64())
	}
}

func sameHash[K comparable](t *testing.T, keys ...K) {
	t.Helper()
	h := hasherFor[K]()
	for _, k := range keys {
		want := referenceHash(k)
		if got := Hash(k); got != want {
			t.Errorf("Hash(%T %v) = %#x, reference %#x", k, k, got, want)
		}
		if got := h(k); got != want {
			t.Errorf("hasherFor[%T](%v) = %#x, reference %#x", k, k, got, want)
		}
	}
}

func TestHashMatchesReference(t *testing.T) {
	type named int64
	type composite struct {
		A int32
		B string
	}
	sameHash(t, 0, 1, -1, 1<<40)
	sameHash[int32](t, 0, -1, 1<<30)
	sameHash[int64](t, 0, 255, 256, -1, 1<<62)
	sameHash[uint32](t, 0, 1<<31)
	sameHash[uint64](t, 0, 1<<63)
	sameHash(t, "", "a", "héllo", "the quick brown fox jumps over the lazy dog")
	sameHash[named](t, 0, 7, -7) // a named type takes the gob arm, as before
	sameHash(t, composite{}, composite{A: 3, B: "x"})
	sameHash(t, [2]int64{1, 2}, [2]int64{2, 1})
	sameHash(t, 1.5, -0.25)
	if allocs := testing.AllocsPerRun(100, func() { Hash("a string key of some length") }); allocs != 0 {
		t.Errorf("Hash(string) allocates %.0f objects per key, want 0", allocs)
	}
}

// TestFoldByKeyInitOnceFirstSeenOrder pins what the single-probe rewrite
// must keep: init runs exactly once per (key, time) and a time's output is
// in first-seen key order. The golden rows were captured from the two-probe
// implementation this one replaced.
func TestFoldByKeyInitOnceFirstSeenOrder(t *testing.T) {
	s := newTestScope(t, runtime.Config{Processes: 1, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal})
	in, src := NewInput[Pair[string, int64]](s, "in", nil)
	var inits []string
	folded := FoldByKey(src,
		func(k string) int64 { inits = append(inits, k); return 100 },
		func(acc, v int64) int64 { return acc + v }, nil)
	col := Collect(folded)
	if err := s.C.Start(); err != nil {
		t.Fatal(err)
	}
	in.OnNext(KV("c", int64(1)), KV("a", int64(2)), KV("c", int64(3)), KV("b", int64(4)), KV("a", int64(5)), KV("c", int64(6)))
	in.OnNext(KV("b", int64(1)), KV("b", int64(1)), KV("d", int64(1)))
	in.Close()
	join(t, s)
	golden := map[int64][]Pair[string, int64]{
		0: {{"c", 110}, {"a", 107}, {"b", 104}},
		1: {{"b", 102}, {"d", 101}},
	}
	for e, want := range golden {
		if got := col.Epoch(e); !reflect.DeepEqual(got, want) {
			t.Errorf("epoch %d = %v, want %v", e, got, want)
		}
	}
	if want := []string{"c", "a", "b", "b", "d"}; !reflect.DeepEqual(inits, want) {
		t.Errorf("init calls = %v, want %v (once per key per time, in first-seen order)", inits, want)
	}
}

// referenceCanonicalBytes is canonicalBytes as it stood before the arena:
// every record boxed, encoded alone, copied, and the copies sorted.
func referenceCanonicalBytes[T any](cod codec.Codec, recs []T) []byte {
	encs := make([][]byte, len(recs))
	var enc codec.Encoder
	for i, r := range recs {
		enc.Reset()
		cod.EncodeBatch(&enc, []any{r})
		encs[i] = append([]byte(nil), enc.Bytes()...)
	}
	sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
	var out codec.Encoder
	for _, e := range encs {
		out.PutBytes(e)
	}
	return append([]byte(nil), out.Bytes()...)
}

// boxedOnly hides a codec's typed halves (BatchCodec, SliceEncoder), as a
// forwarding wrapper does, forcing canonicalBytes down its boxed fallback.
type boxedOnly struct{ codec.Codec }

func TestCanonicalBytesMatchesReference(t *testing.T) {
	recs := []Pair[string, int64]{{"b", 2}, {"a", 1}, {"b", 2}, {"", -1}, {"ab", 0}, {"a", 300}}
	type open struct{ V []int64 } // no flat plan: the primed-gob mode
	for name, cod := range map[string]codec.Codec{
		"flat":       codec.Gob[Pair[string, int64]](),
		"boxed only": boxedOnly{codec.Gob[Pair[string, int64]]()},
	} {
		got, want := canonicalBytes(cod, recs), referenceCanonicalBytes(cod, recs)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes differ:\n got %x\nwant %x", name, got, want)
		}
		if back := DecodeSinkBatch[Pair[string, int64]](cod, SinkBatch{Data: got}); len(back) != len(recs) {
			t.Errorf("%s: decoded %d records, want %d", name, len(back), len(recs))
		}
	}
	opens := []open{{V: []int64{3}}, {V: nil}, {V: []int64{1, 2}}}
	cod := codec.Gob[open]()
	if got, want := canonicalBytes(cod, opens), referenceCanonicalBytes(cod, opens); !bytes.Equal(got, want) {
		t.Errorf("gob: canonical bytes differ:\n got %x\nwant %x", got, want)
	}
	if got := canonicalBytes(cod, []open(nil)); len(got) != 0 {
		t.Errorf("empty epoch encodes to %x", got)
	}
	// The sort keys on each encoding's first eight bytes. Records whose
	// encodings agree on those and differ later, are prefixes of one
	// another, or end in 0x00 (which the key's zero padding looks like) must
	// still fall back to the full comparison. rawString encodes a string as
	// its bare bytes, so encodings can be prefixes of one another.
	edges := []string{
		"abcdefgh", "abcdefghY", "abcdefghX", "abcdefgh\x00", "abcdefgh\x00\x00",
		"abcdefgX", "ab", "ab\x00", "ab\x00\x00", "a", "", "\x00", "ab\x00\x01",
		"abcdefghXa", "abcdefgh", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	}
	if got, want := canonicalBytes(rawString{}, edges), referenceCanonicalBytes(rawString{}, edges); !bytes.Equal(got, want) {
		t.Errorf("raw: canonical bytes differ:\n got %x\nwant %x", got, want)
	}
	// The same shapes through the flat codec: a Pair's encoding starts with
	// the key's 4-byte length, so keys that share four leading bytes agree
	// on the whole 8-byte sort key.
	pairs := []Pair[string, int64]{
		{"abcdX", 1}, {"abcdW", 1}, {"abcd", 0}, {"abcd\x00", 0}, {"abcd\x00\x00", 0},
		{"abcdX", 0}, {"abcdXY", 1 << 40}, {"abcdXY", 0}, {"abc", 0}, {"abc\x00", 256},
	}
	flat := codec.Gob[Pair[string, int64]]()
	if got, want := canonicalBytes(flat, pairs), referenceCanonicalBytes(flat, pairs); !bytes.Equal(got, want) {
		t.Errorf("flat edges: canonical bytes differ:\n got %x\nwant %x", got, want)
	}
}

// TestCanonicalBytesSizesArenaOnce: the arena is sized once, from the
// first record's encoded width, so an epoch of 4096 records costs no more
// allocations than one of 16. Grown record by record, it cost one more
// allocation per doubling.
func TestCanonicalBytesSizesArenaOnce(t *testing.T) {
	cod := codec.Gob[Pair[int64, int64]]()
	allocs := func(n int) float64 {
		recs := make([]Pair[int64, int64], n)
		for i := range recs {
			recs[i] = KV(int64(i*7919)%1000003, int64(i%17+1))
		}
		return testing.AllocsPerRun(20, func() { canonicalBytes(cod, recs) })
	}
	if small, large := allocs(16), allocs(4096); large > small {
		t.Fatalf("canonicalBytes allocates %.0f times for 4096 records, %.0f for 16: the arena grows with the epoch", large, small)
	}
}

// rawString encodes a string record as its bare bytes, with no length, so
// one record's encoding can be a prefix of another's. It decodes one record
// from whatever bytes remain, which is all a canonical sink batch asks.
type rawString struct{}

func (rawString) EncodeBatch(enc *codec.Encoder, records []any) {
	for _, r := range records {
		for _, c := range []byte(r.(string)) {
			enc.PutUint8(c)
		}
	}
}

func (rawString) DecodeBatch(dec *codec.Decoder, n int) []any {
	out := make([]any, 0, n)
	for i := 0; i < n; i++ {
		var b []byte
		for dec.Remaining() > 0 {
			b = append(b, dec.Uint8())
		}
		out = append(out, string(b))
	}
	return out
}

// BenchmarkCanonicalBytes256 is the sink's per-epoch canonical form at the
// keycount shape: 256 Pair[int64, int64] records through the flat codec,
// encoded, sorted and concatenated once per iteration.
func BenchmarkCanonicalBytes256(b *testing.B) {
	recs := make([]Pair[int64, int64], 256)
	for i := range recs {
		recs[i] = KV(int64(i*7919)%1000003, int64(i%17+1))
	}
	cod := codec.Gob[Pair[int64, int64]]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalBytes(cod, recs)
	}
}

// BenchmarkFoldByKey256 is FoldByKey's receive path at the keycount shape:
// 16 384-record batches over 256 keys on one worker, ns per record
// (including one notification and a 256-pair emission per batch).
func BenchmarkFoldByKey256(b *testing.B) {
	const n = 16384
	s, err := NewScope(runtime.Config{Processes: 1, WorkersPerProcess: 1, Accumulation: runtime.AccLocalGlobal})
	if err != nil {
		b.Fatal(err)
	}
	in, src := NewInput[Pair[int64, int64]](s, "in", nil)
	probe := Probe(FoldByKey(src, func(int64) int64 { return 0 }, func(acc, v int64) int64 { return acc + v }, nil))
	if err := s.C.Start(); err != nil {
		b.Fatal(err)
	}
	recs := make([]Pair[int64, int64], n)
	for i := range recs {
		recs[i] = KV(int64(i*7919)%256, int64(1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.OnNext(recs...)
		if i >= 4 {
			probe.WaitFor(int64(i - 4))
		}
	}
	probe.WaitFor(int64(b.N - 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
	b.StopTimer()
	in.Close()
	if err := s.C.Join(); err != nil {
		b.Fatal(err)
	}
}
