package runtime

import (
	"fmt"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// Data frames carry one batch of records for a single (connector, source
// vertex, destination vertex, timestamp) tuple:
//
//	connector u32 | dstVertex u32 | srcVertex u32 | epoch i64 | depth u8 |
//	counters 8·d | count u32 | records (connector codec)
//
// The source vertex identifies the logical channel (connector, srcVertex)
// the batch travelled on — the unit of barrier alignment: a cut snapshot
// logs in-flight batches per channel and a barrier marker retires exactly
// one channel.

// encodeDataInto serializes a record batch into enc. A typed column encodes
// through the connector codec's BatchCodec fast path when it has one;
// otherwise records are boxed one by one into scratch (returned for reuse)
// and encoded through the boxed interface. The frame bytes are identical
// either way.
func encodeDataInto(enc *codec.Encoder, ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch, scratch []Message) []Message {
	enc.PutUint32(uint32(ci.id))
	enc.PutUint32(uint32(dstVertex))
	enc.PutUint32(uint32(srcVertex))
	enc.PutInt64(t.Epoch)
	enc.PutUint8(t.Depth)
	for i := uint8(0); i < t.Depth; i++ {
		enc.PutInt64(t.Counters[i])
	}
	n := b.Len()
	enc.PutUint32(uint32(n))
	if bc, ok := ci.cod.(codec.BatchCodec); ok {
		if bc.EncodeColumn(enc, b.Col().Slice()) {
			return scratch
		}
	}
	if boxed, ok := b.Col().Slice().([]Message); ok {
		ci.cod.EncodeBatch(enc, boxed)
		return scratch
	}
	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, b.Record(i))
	}
	ci.cod.EncodeBatch(enc, scratch)
	clear(scratch)
	return scratch
}

// encodeData serializes a record batch into a fresh buffer the caller owns.
// Hot paths use the worker's pooled frame encoder (worker.encodeFrame)
// instead; this remains for cold callers and tests.
func encodeData(ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, records []Message) []byte {
	e := codec.NewEncoder(64)
	// The wrapper is dropped, not released: Release would reset (clear) the
	// caller's record slice, which the batch merely borrows here.
	encodeDataInto(e, ci, dstVertex, srcVertex, t, batchbuf.Wrap(records), nil)
	return e.Bytes()
}

// peekDataHeader reads only the routing fields of a data frame.
func peekDataHeader(payload []byte) (graph.ConnectorID, int) {
	d := codec.NewDecoder(payload)
	conn := graph.ConnectorID(d.Uint32())
	dstVertex := int(d.Uint32())
	return conn, dstVertex
}

// decodeDataBatch parses a full data frame into a pooled batch using the
// connector's codec: typed when the codec has a BatchCodec fast path, boxed
// otherwise. The batch is self-contained (the Codec contract forbids
// aliasing the payload), so the caller may recycle payload immediately
// after the call. The caller owns the returned batch's single reference.
func decodeDataBatch(c *Computation, payload []byte) (ci *connInfo, dstVertex, srcVertex int, t ts.Timestamp, b *batchbuf.Batch) {
	d := codec.NewDecoder(payload)
	ci = c.conn(graph.ConnectorID(d.Uint32()))
	dstVertex = int(d.Uint32())
	srcVertex = int(d.Uint32())
	t = decodeTime(d)
	n := d.Count(1)
	if bc, ok := ci.cod.(codec.BatchCodec); ok {
		if b = bc.DecodeBatchCol(d, n); b != nil {
			return ci, dstVertex, srcVertex, t, b
		}
	}
	return ci, dstVertex, srcVertex, t, batchbuf.Wrap(ci.cod.DecodeBatch(d, n))
}

// decodeTime reads the wire form of a timestamp (epoch, depth, counters)
// and rebuilds it through the constructor, so the counters-beyond-Depth-
// are-zero invariant holds even for corrupt input.
func decodeTime(d *codec.Decoder) ts.Timestamp {
	epoch := d.Int64()
	depth := d.Uint8()
	if depth > ts.MaxLoopDepth {
		panic(fmt.Sprintf("runtime: corrupt frame: timestamp depth %d", depth))
	}
	var counters [ts.MaxLoopDepth]int64
	for i := uint8(0); i < depth; i++ {
		counters[i] = d.Int64()
	}
	return ts.Make(epoch, counters[:depth]...)
}
