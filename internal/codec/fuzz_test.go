package codec

import (
	"testing"
)

// FuzzDecoder drives a Decoder with an op stream drawn from the input
// itself: whatever the bytes, a decode wrapped in Catch must either
// succeed or return an error — never panic through, never read past the
// end of the input, and never allocate from an unvalidated count.
func FuzzDecoder(f *testing.F) {
	valid := NewEncoder(64)
	valid.PutUint8(3)
	valid.PutUint32(40)
	valid.PutInt64(-1)
	valid.PutFloat64(3.14)
	valid.PutString("hello")
	valid.PutBytes([]byte{1, 2, 3})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated tail
	f.Add([]byte{255, 255, 255, 255, 255})      // absurd length prefix
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		err := Catch(func() {
			for d.Remaining() > 0 {
				switch d.Uint8() % 8 {
				case 0:
					d.Uint8()
				case 1:
					d.Uint32()
				case 2:
					d.Uint64()
				case 3:
					d.Int64()
				case 4:
					d.Float64()
				case 5:
					_ = d.String()
				case 6:
					d.BytesView()
				case 7:
					n := d.Count(8)
					for i := 0; i < n; i++ {
						d.Int64()
					}
				}
			}
		})
		_ = err // error or not, the checks below must hold
		if d.off > len(d.data) {
			t.Fatalf("decoder over-read: offset %d of %d", d.off, len(d.data))
		}
	})
}

// FuzzGobDecodeBatch feeds corrupted streams to Gob[T] in its flat mode
// (int64) and its primed-gob mode ([]int64, a slice, gets no flat plan):
// decode must error through Catch, never panic uncaught or return a batch
// of the wrong length.
func FuzzGobDecodeBatch(f *testing.F) {
	enc := NewEncoder(64)
	Gob[[]int64]().EncodeBatch(enc, []any{[]int64{1}, []int64{2}, []int64{3}})
	f.Add(uint32(3), enc.Bytes())
	f.Add(uint32(3), enc.Bytes()[:len(enc.Bytes())/2])
	f.Add(uint32(1000), enc.Bytes())
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint32, data []byte) {
		if n > 1<<16 {
			n %= 1 << 16 // bound the expected-count argument, not the input bytes
		}
		for _, c := range []Codec{Gob[int64](), Gob[[]int64]()} {
			var out []any
			err := Catch(func() { out = c.DecodeBatch(NewDecoder(data), int(n)) })
			if err == nil && len(out) != int(n) {
				t.Fatalf("decode returned %d records, want %d", len(out), n)
			}
		}
	})
}

// FuzzStringCodecRoundTrip checks the fast-path codec against corruption
// (decode errors cleanly) and against itself (round-trip is identity).
func FuzzStringCodecRoundTrip(f *testing.F) {
	f.Add("hello", []byte{5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'})
	f.Add("", []byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, s string, corrupt []byte) {
		enc := NewEncoder(16)
		String().EncodeBatch(enc, []any{s})
		var out []any
		if err := Catch(func() {
			out = String().DecodeBatch(NewDecoder(enc.Bytes()), 1)
		}); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if out[0].(string) != s {
			t.Fatalf("round-trip mismatch: %q != %q", out[0], s)
		}
		_ = Catch(func() { // corrupt input: any outcome but a panic
			String().DecodeBatch(NewDecoder(corrupt), 1)
		})
	})
}
