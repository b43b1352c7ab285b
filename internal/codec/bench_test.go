package codec

import "testing"

// BenchmarkInt64Batch measures the fast-path codec on the Fig 6a record
// shape (8-byte records).
func BenchmarkInt64Batch(b *testing.B) {
	const n = 1024
	records := make([]any, n)
	for i := range records {
		records[i] = int64(i * 31)
	}
	c := Int64()
	enc := NewEncoder(8 * n)
	b.ReportAllocs()
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		c.EncodeBatch(enc, records)
		out := c.DecodeBatch(NewDecoder(enc.Bytes()), n)
		if len(out) != n {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkGobBatch measures Gob[int64] — the compiled flat plan — on the
// same shape through the boxed interface, quantifying what a hand-written
// codec still buys (BenchmarkGobPairColumn has the typed-column figures and
// a gob control).
func BenchmarkGobBatch(b *testing.B) {
	const n = 1024
	records := make([]any, n)
	for i := range records {
		records[i] = int64(i * 31)
	}
	c := Gob[int64]()
	enc := NewEncoder(8 * n)
	b.ReportAllocs()
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		c.EncodeBatch(enc, records)
		out := c.DecodeBatch(NewDecoder(enc.Bytes()), n)
		if len(out) != n {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkStringBatch measures the string codec on word-count-shaped
// records.
func BenchmarkStringBatch(b *testing.B) {
	const n = 1024
	records := make([]any, n)
	for i := range records {
		records[i] = "word-with-some-length"
	}
	c := String()
	enc := NewEncoder(32 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		c.EncodeBatch(enc, records)
		if out := c.DecodeBatch(NewDecoder(enc.Bytes()), n); len(out) != n {
			b.Fatal("short decode")
		}
	}
}
