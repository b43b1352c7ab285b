package codec

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// gobRec is one slice field away from a flat type, so Gob[gobRec] is the
// primed value-only gob mode these tests are about.
type gobRec struct {
	Key   string
	Count int64
	Score float64
	Tags  []string
}

// naiveGobFrame is the pre-fix framing: a fresh gob.Encoder per batch, so
// every frame carries the full type descriptor set.
func naiveGobFrame(t *testing.T, batch []gobRec) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(batch); err != nil {
		t.Fatal(err)
	}
	return 4 + buf.Len() // PutBytes length prefix + payload
}

// Regression test for the per-frame descriptor re-send: a codec that truly
// amortizes type information must produce frames strictly smaller than a
// fresh gob.Encoder's output (which re-sends descriptors every time), and
// the frame size must not grow on repeat encodes. Fails on the pre-fix
// codec, whose every frame equals the naive size.
func TestGobSessionWireSize(t *testing.T) {
	c := Gob[gobRec]()
	batch := []any{
		gobRec{Key: "a", Count: 1, Score: 0.5},
		gobRec{Key: "b", Count: 2, Score: 1.5},
	}
	naive := naiveGobFrame(t, []gobRec{
		{Key: "a", Count: 1, Score: 0.5},
		{Key: "b", Count: 2, Score: 1.5},
	})
	var first int
	for i := 0; i < 4; i++ {
		e := NewEncoder(64)
		c.EncodeBatch(e, batch)
		size := len(e.Bytes())
		if size >= naive {
			t.Fatalf("frame %d is %d bytes, not smaller than the naive per-frame encoding (%d bytes): descriptors are being re-sent", i, size, naive)
		}
		if i == 0 {
			first = size
		} else if size != first {
			t.Fatalf("frame %d is %d bytes, frame 0 was %d: frames are stream-position dependent", i, size, first)
		}
	}
}

// Frames are value-only but must decode standalone, in any order, on any
// session — the replay log and barrier cut snapshots depend on it.
func TestGobSessionFramesDecodeOutOfOrder(t *testing.T) {
	enc := Gob[gobRec]()
	frame := func(recs ...any) []byte {
		e := NewEncoder(64)
		enc.EncodeBatch(e, recs)
		return append([]byte(nil), e.Bytes()...)
	}
	a := frame(gobRec{Key: "first", Count: 1})
	b := frame(gobRec{Key: "second", Count: 2}, gobRec{Key: "third", Count: 3})

	// A different codec instance (fresh sessions) decodes b before a.
	dec := Gob[gobRec]()
	outB := dec.DecodeBatch(NewDecoder(b), 2)
	outA := dec.DecodeBatch(NewDecoder(a), 1)
	if outB[0].(gobRec).Key != "second" || outB[1].(gobRec).Key != "third" {
		t.Fatalf("out-of-order decode b = %v", outB)
	}
	if outA[0].(gobRec).Key != "first" {
		t.Fatalf("out-of-order decode a = %v", outA)
	}
}

// A corrupt frame must not poison the cached session: the decode errors
// through Catch, and the next well-formed frame still decodes.
func TestGobSessionSurvivesCorruptFrame(t *testing.T) {
	c := Gob[gobRec]()
	e := NewEncoder(64)
	c.EncodeBatch(e, []any{gobRec{Key: "ok", Count: 7}})
	good := append([]byte(nil), e.Bytes()...)

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	corrupt[5] ^= 0xFF
	_ = Catch(func() { c.DecodeBatch(NewDecoder(corrupt), 1) })

	var out []any
	if err := Catch(func() { out = c.DecodeBatch(NewDecoder(good), 1) }); err != nil {
		t.Fatalf("good frame failed after corrupt one: %v", err)
	}
	if out[0].(gobRec).Key != "ok" {
		t.Fatalf("decoded %v", out)
	}
}

// Interface-bearing types cannot use value-only framing (their descriptor
// set is open); they must fall back to self-contained frames and still
// round-trip.
func TestGobNonStreamableFallback(t *testing.T) {
	type openRec struct{ V any }
	gob.Register(int64(0))
	if descriptorClosed(reflect.TypeFor[openRec]()) {
		t.Fatalf("type with an interface field classified as descriptor-closed")
	}
	c := Gob[openRec]()
	in := []any{openRec{V: int64(9)}}
	e := NewEncoder(64)
	c.EncodeBatch(e, in)
	out := c.DecodeBatch(NewDecoder(e.Bytes()), 1)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("fallback roundtrip: got %v", out)
	}
}

func TestDescriptorClosed(t *testing.T) {
	type node struct {
		Next *node
		Val  int
	}
	type withMap struct{ M map[string][]float64 }
	type hidden struct {
		Pub  int
		priv any //nolint:unused // unexported: gob skips it, so it must not block streaming
	}
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want bool
	}{
		{"int64", reflect.TypeFor[int64](), true},
		{"recursive struct", reflect.TypeFor[node](), true},
		{"map of slices", reflect.TypeFor[withMap](), true},
		{"any", reflect.TypeFor[any](), false},
		{"slice of any", reflect.TypeFor[[]any](), false},
		{"unexported interface field", reflect.TypeFor[hidden](), true},
	} {
		if got := descriptorClosed(tc.typ); got != tc.want {
			t.Errorf("descriptorClosed(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The typed column path must produce bytes identical to the boxed path —
// a frame from EncodeColumn decodes via DecodeBatch and vice versa.
func TestGobColumnBoxedInterop(t *testing.T) {
	c := Gob[gobRec]().(BatchCodec)
	recs := []gobRec{{Key: "x", Count: 1}, {Key: "y", Count: 2}}
	boxed := []any{recs[0], recs[1]}

	eCol := NewEncoder(64)
	if !c.EncodeColumn(eCol, recs) {
		t.Fatal("EncodeColumn declined its own type")
	}
	eBox := NewEncoder(64)
	c.(Codec).EncodeBatch(eBox, boxed)
	if !bytes.Equal(eCol.Bytes(), eBox.Bytes()) {
		t.Fatalf("EncodeColumn and EncodeBatch bytes differ: %d vs %d", len(eCol.Bytes()), len(eBox.Bytes()))
	}

	b := c.DecodeBatchCol(NewDecoder(eBox.Bytes()), 2)
	if b == nil {
		t.Fatal("DecodeBatchCol returned nil for its own stream")
	}
	defer b.Release()
	got := b.Col().Slice().([]gobRec)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("DecodeBatchCol = %v", got)
	}
}
