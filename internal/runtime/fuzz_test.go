package runtime

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
)

// FuzzDecodeProgress corrupts progress frames: the decoder must reject
// them by panicking (the transport dispatcher recovers and aborts the
// computation) and must never turn a corrupt count into a huge allocation.
func FuzzDecodeProgress(f *testing.F) {
	valid := encodeProgress(progBroadcast, []update{
		{P: progress.Pointstamp{Time: ts.Root(3), Loc: graph.StageLoc(1)}, D: 1},
		{P: progress.Pointstamp{Time: ts.Root(2).PushLoop().Tick(), Loc: graph.ConnLoc(0)}, D: -1},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{0, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var us []update
		err := codec.Catch(func() { _, us = decodeProgress(data) })
		if err != nil {
			return
		}
		// Accepted frames must have had every update actually present.
		if len(us) > len(data)/21+1 {
			t.Fatalf("decoded %d updates from %d bytes", len(us), len(data))
		}
	})
}

// FuzzDecodeData corrupts data-frame envelopes against a small real
// dataflow: decode must error (panic recovered by the worker loop in
// production, by Catch here), never over-allocate from the count field.
func FuzzDecodeData(f *testing.F) {
	c, err := NewComputation(DefaultConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	src := c.AddStage("src", graph.RoleInput, 0, nil)
	dst := c.AddStage("dst", graph.RoleNormal, 0,
		func(ctx *Context) Vertex { return &forwardVertex{ctx: ctx} })
	c.Connect(src, 0, dst, nil, codec.Int64())
	ci := c.conns[0]

	valid := encodeData(ci, 0, 0, ts.Root(1), []Message{int64(10), int64(20)})
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var records []Message
		err := codec.Catch(func() { _, _, _, _, records = decodeData(c, data) })
		if err != nil {
			return
		}
		if len(records) > len(data) {
			t.Fatalf("decoded %d records from %d bytes", len(records), len(data))
		}
	})
}

// decodeData parses a full data frame into a boxed record slice: the
// reference decoder the batch decode path is checked against.
func decodeData(c *Computation, payload []byte) (ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, records []Message) {
	d := codec.NewDecoder(payload)
	ci = c.conn(graph.ConnectorID(d.Uint32()))
	dstVertex = int(d.Uint32())
	srcVertex = int(d.Uint32())
	t = decodeTime(d)
	n := d.Count(1)
	records = ci.cod.DecodeBatch(d, n)
	return ci, dstVertex, srcVertex, t, records
}

// FuzzBatchDecode corrupts data-frame envelopes against the typed batch
// decode path: decodeDataBatch must error through Catch on damage, never
// over-allocate from the count field, and anything it accepts must agree
// record-for-record with the boxed decoder — the two paths are one wire
// format and may never diverge on the same bytes.
func FuzzBatchDecode(f *testing.F) {
	c, err := NewComputation(DefaultConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	src := c.AddStage("src", graph.RoleInput, 0, nil)
	dst := c.AddStage("dst", graph.RoleNormal, 0,
		func(ctx *Context) Vertex { return &forwardVertex{ctx: ctx} })
	c.Connect(src, 0, dst, nil, codec.Int64())
	// Connectors 1 and 2 carry flat-plan types (codec.Gob's compiled codec,
	// decoding into pooled columns); the frame's first field selects the
	// connector, so the fuzzer reaches all three.
	type strRec struct {
		Key string
		Val int64
	}
	c.Connect(src, 0, dst, nil, codec.Gob[exchRec]())
	c.Connect(src, 0, dst, nil, codec.Gob[strRec]())
	ci := c.conns[0]

	valid := encodeData(ci, 0, 0, ts.Root(1).PushLoop().Tick(), []Message{int64(10), int64(-20), int64(1 << 40)})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flat := encodeData(c.conns[1], 1, 0, ts.Root(3), []Message{exchRec{0, 1}, exchRec{-64, 1 << 40}, exchRec{255, -1}})
	f.Add(flat)
	f.Add(flat[:len(flat)-1])
	strs := encodeData(c.conns[2], 0, 1, ts.Root(2).PushLoop(), []Message{strRec{"", 0}, strRec{"key", -7}})
	f.Add(strs)
	f.Add(strs[:len(strs)-3])
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *batchbuf.Batch
		err := codec.Catch(func() { _, _, _, _, b = decodeDataBatch(c, data) })
		if err != nil {
			return
		}
		defer b.Release()
		if b.Len() > len(data) {
			t.Fatalf("decoded %d records from %d bytes", b.Len(), len(data))
		}
		var records []Message
		if err := codec.Catch(func() { _, _, _, _, records = decodeData(c, data) }); err != nil {
			t.Fatalf("batch path accepted a frame the boxed path rejects: %v", err)
		}
		if len(records) != b.Len() {
			t.Fatalf("batch path decoded %d records, boxed path %d", b.Len(), len(records))
		}
		for i := range records {
			if records[i] != b.Record(i) {
				t.Fatalf("record %d: batch %v != boxed %v", i, b.Record(i), records[i])
			}
		}
	})
}

// FuzzBarrierDecode corrupts barrier-marker frames: markers cross process
// boundaries as KindControl frames, so hostile bytes must come back as an
// error — never a panic, never a bogus marker that could tear a cut. A
// frame that decodes must survive a re-encode round trip unchanged.
func FuzzBarrierDecode(f *testing.F) {
	valid := EncodeBarrierMarker(BarrierMarker{
		Cut: 7, Epoch: 3, Conn: 2, Src: 1, Dst: 0, Count: 42,
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:markerHeaderSize])
	f.Add(append([]byte(nil), append(valid, 0)...))
	f.Add([]byte{0x4b, 0x52, 0x42, 0x4e, 2, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m BarrierMarker
		var derr error
		if err := codec.Catch(func() { m, derr = DecodeBarrierMarker(data) }); err != nil {
			t.Fatalf("DecodeBarrierMarker panicked: %v", err)
		}
		if derr != nil {
			return
		}
		// Anything accepted must round-trip exactly: the barrier protocol's
		// torn-cut detection rides on these fields.
		if got, err := DecodeBarrierMarker(EncodeBarrierMarker(m)); err != nil || got != m {
			t.Fatalf("marker round trip: %+v -> %+v (%v)", m, got, err)
		}
	})
}

// mixedCut is a cut whose obligations section holds one entry of every
// shape: a plain held capability, a NotifyAt, a NotifyAtCap with guarantee ≠
// capability, and a purge notification.
func mixedCut() *CutSnapshot {
	cut := newCutSnapshot(3, 2)
	cut.Vertices[1] = map[int][]byte{0: []byte("counter-state")}
	cut.InputEpochs[0] = 2
	inner := ts.Root(2).PushLoop()
	cut.Caps[1] = map[int][]HeldCapability{0: {
		{Seq: 4, HasCap: true, Time: ts.Root(1)},
		{Seq: 7, HasCap: true, Time: ts.Root(2), Notify: true, Guarantee: ts.Root(2)},
		{Seq: 8, HasCap: true, Time: inner.WithInner(3), Notify: true, Guarantee: inner},
		{Seq: 11, Notify: true, Guarantee: ts.Root(3)},
	}}
	cut.Caps[2] = map[int][]HeldCapability{1: {{Seq: 0, Notify: true, Guarantee: ts.Root(2)}}}
	cut.Channels = [][]byte{{1, 2, 3, 4}, {5}}
	return cut
}

// withCutVersion re-stamps encoded cut bytes with another format version.
func withCutVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[4:8], v)
	return out
}

// TestCutRoundTripMixedObligations pins the v5 cut layout: every entry shape
// of the one obligations section survives encode/decode, and bytes stamped
// with an older version are refused with ErrCutVersion.
func TestCutRoundTripMixedObligations(t *testing.T) {
	cut := mixedCut()
	data := EncodeCut(cut)
	got, err := UnmarshalCut(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cut) {
		t.Fatalf("cut round trip:\n got %+v\nwant %+v", got, cut)
	}
	for _, v := range []uint32{1, 2, 3, 4, 5, 7} {
		if _, err := UnmarshalCut(withCutVersion(data, v)); !errors.Is(err, ErrCutVersion) {
			t.Errorf("version %d: got %v, want ErrCutVersion", v, err)
		}
	}
	// A well-formed header of the retired stop-the-world format (version 1)
	// over its empty body: no vertices, no input epochs.
	v1 := make([]byte, snapshotHeaderSize+8)
	binary.LittleEndian.PutUint32(v1[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	binary.LittleEndian.PutUint32(v1[8:12], crc32.Checksum(v1[snapshotHeaderSize:], snapshotCRC))
	if _, err := UnmarshalCut(v1); !errors.Is(err, ErrCutVersion) {
		t.Errorf("stop-the-world snapshot bytes: got %v, want ErrCutVersion", err)
	}
}

// FuzzUnmarshalCut corrupts serialized cut snapshots (the v5 NSNP format):
// bytes come off disk, so damage must surface as an error, never a panic,
// accepted cuts must not have over-allocated from count fields, and whatever
// is accepted must survive a re-encode round trip — revival trusts the
// obligations section's flags and sequence order.
func FuzzUnmarshalCut(f *testing.F) {
	valid := EncodeCut(mixedCut())
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:snapshotHeaderSize])
	f.Add(withCutVersion(valid, 4))
	f.Add(EncodeCut(newCutSnapshot(1, 1)))
	f.Add([]byte{0x50, 0x4e, 0x53, 0x4e, 5, 0, 0, 0, 0, 0, 0, 0, 255, 255})
	f.Add([]byte{})
	drained, _, _ := drainedCheckpoint(f) // Cut 0, no Channels, non-empty Caps
	f.Add(EncodeCut(drained))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *CutSnapshot
		var derr error
		if err := codec.Catch(func() { s, derr = UnmarshalCut(data) }); err != nil {
			t.Fatalf("UnmarshalCut panicked: %v", err)
		}
		if derr != nil {
			return
		}
		total := 0
		for _, m := range s.Vertices {
			for _, b := range m {
				total += len(b)
			}
		}
		for _, ch := range s.Channels {
			total += len(ch)
		}
		if total > len(data) {
			t.Fatalf("cut claims %d payload bytes from %d input bytes", total, len(data))
		}
		if again, err := UnmarshalCut(EncodeCut(s)); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted cut does not round-trip: %v", err)
		}
	})
}
