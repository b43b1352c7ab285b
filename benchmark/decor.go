package main

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/lib"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// The decorators in this file are how the benchmark sees inside the program
// without touching it: each wraps an interface the program already accepts
// (lib.SinkStore, codec.Codec + codec.BatchCodec, transport.Transport) and
// forwards every call unchanged. Untraced runs install only the checking
// sink (it is the correctness oracle's tap); the timing decorators exist
// only in traced runs, so end-to-end numbers carry no timing calls.

var processStart = time.Now()

// now is the benchmark's single clock: nanoseconds since process start.
func now() int64 { return int64(time.Since(processStart)) }

// epochMarks are the boundary instants of one epoch's journey, the raw
// material of the epoch span tree. Zero means "not observed".
type epochMarks struct {
	due, fed, commitIn, commitOut, done int64
}

// epochLog collects epochMarks from the goroutines that observe them: the
// driver (due, fed), the sink's commit goroutine (commitIn, commitOut) and
// the probe waiter (done).
type epochLog struct {
	mu    sync.Mutex
	marks []epochMarks
}

func (l *epochLog) at(e int64) *epochMarks {
	for int64(len(l.marks)) <= e {
		l.marks = append(l.marks, epochMarks{})
	}
	return &l.marks[e]
}

func (l *epochLog) set(e int64, f func(m *epochMarks)) {
	l.mu.Lock()
	f(l.at(e))
	l.mu.Unlock()
}

func (l *epochLog) snapshot() []epochMarks {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]epochMarks(nil), l.marks...)
}

// checkSink is the benchmark-owned lib.SinkStore for the keycount dataflow:
// it is both where "durably committed" happens and the tap the oracle reads.
// Inputs cycle through a ring of distinct epochs, so every committed batch
// must equal (by checksum) the first batch committed for its ring slot; one
// batch per slot is retained and decoded against the closed-form counts
// after the run. Keeping a checksum per commit rather than the bytes keeps
// the oracle out of the memory metric.
type checkSink struct {
	ring int64

	mu       sync.Mutex
	first    map[int64]lib.SinkBatch // ring slot → first batch seen
	sums     map[int64]uint32
	seen     map[int64]bool // epoch → committed
	mismatch int64          // batches whose bytes differ from their slot's first
	badStamp int64          // batches whose frontier stamp is not Root(epoch+1)
	bytes    int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newCheckSink(ring int) *checkSink {
	return &checkSink{
		ring:  int64(ring),
		first: make(map[int64]lib.SinkBatch), sums: make(map[int64]uint32), seen: make(map[int64]bool),
	}
}

// Commit implements lib.SinkStore.
func (s *checkSink) Commit(b lib.SinkBatch) error {
	sum := crc32.Checksum(b.Data, castagnoli)
	slot := b.Epoch % s.ring
	s.mu.Lock()
	if !s.seen[b.Epoch] { // a crash's re-driven commit is counted once
		s.seen[b.Epoch] = true
		s.bytes += int64(len(b.Data))
	}
	if want, ok := s.sums[slot]; !ok {
		s.sums[slot] = sum
		s.first[slot] = lib.SinkBatch{Epoch: b.Epoch, Frontier: b.Frontier, Data: append([]byte(nil), b.Data...)}
	} else if want != sum {
		s.mismatch++
	}
	if b.Frontier != ts.Root(b.Epoch+1) {
		s.badStamp++
	}
	s.mu.Unlock()
	return nil
}

// committed returns the number of distinct epochs committed.
func (s *checkSink) committed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.seen))
}

// verify is the keycount oracle: epochs [0, fed) all committed exactly,
// every batch byte-identical to its ring slot's first, correct frontier
// stamps, and each slot's batch decoding to the closed-form counts of the
// input ring. cod must be the codec the sink's stream used.
func (s *checkSink) verify(fed int64, ring [][]int64, cod codec.Codec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(len(s.seen)) != fed {
		return fmt.Errorf("sink committed %d epochs, fed %d", len(s.seen), fed)
	}
	for e := int64(0); e < fed; e++ {
		if !s.seen[e] {
			return fmt.Errorf("epoch %d never committed", e)
		}
	}
	if s.mismatch != 0 || s.badStamp != 0 {
		return fmt.Errorf("%d batches differ from their ring slot's bytes, %d carry a wrong frontier stamp", s.mismatch, s.badStamp)
	}
	for slot, b := range s.first {
		want := keyCounts(ring[slot])
		got := lib.DecodeSinkBatch[lib.Pair[int64, int64]](cod, b)
		if len(got) != len(want) {
			return fmt.Errorf("epoch %d: %d keys counted, want %d", b.Epoch, len(got), len(want))
		}
		for _, p := range got {
			if want[p.Key] != p.Val {
				return fmt.Errorf("epoch %d: key %d counted %d, want %d", b.Epoch, p.Key, p.Val, want[p.Key])
			}
		}
	}
	return nil
}

// timedStore wraps a lib.SinkStore (the checking store, the door's
// TableSink) in traced runs and marks when each epoch's Commit was entered
// and when it returned.
type timedStore struct {
	inner lib.SinkStore
	log   *epochLog
	bytes atomic.Int64
	n     atomic.Int64
}

func (s *timedStore) Commit(b lib.SinkBatch) error {
	t0 := now()
	err := s.inner.Commit(b)
	t1 := now()
	s.bytes.Add(int64(len(b.Data)))
	s.n.Add(1)
	s.log.set(b.Epoch, func(m *epochMarks) {
		if m.commitIn == 0 { // a replay's re-driven commit keeps the first timing
			m.commitIn, m.commitOut = t0, t1
		}
	})
	return err
}

// timedCodec wraps a record codec. The column methods are the wire path
// (exchange frames, delivery-log frames); the boxed methods are what the
// sink's canonical encoding and checkpoints call. Only the wire path is
// timed and spanned: it is per batch, the boxed path is per record.
type timedCodec struct {
	inner codec.Codec
	spans *spanLog

	encCalls, encNanos, encRecs, encBytes atomic.Int64
	decCalls, decNanos, decRecs           atomic.Int64
}

func newTimedCodec(inner codec.Codec, spans *spanLog) *timedCodec {
	return &timedCodec{inner: inner, spans: spans}
}

func (c *timedCodec) EncodeBatch(enc *codec.Encoder, records []any) {
	c.inner.EncodeBatch(enc, records)
}

func (c *timedCodec) DecodeBatch(dec *codec.Decoder, n int) []any {
	return c.inner.DecodeBatch(dec, n)
}

func (c *timedCodec) EncodeColumn(enc *codec.Encoder, col any) bool {
	bc, ok := c.inner.(codec.BatchCodec)
	if !ok {
		return false
	}
	before := len(enc.Bytes())
	t0 := now()
	ok = bc.EncodeColumn(enc, col)
	t1 := now()
	if ok {
		c.encCalls.Add(1)
		c.encNanos.Add(t1 - t0)
		c.encRecs.Add(int64(reflect.ValueOf(col).Len()))
		c.encBytes.Add(int64(len(enc.Bytes()) - before))
		c.spans.add("codec", t0, t1)
	}
	return ok
}

func (c *timedCodec) DecodeBatchCol(dec *codec.Decoder, n int) *batchbuf.Batch {
	bc, ok := c.inner.(codec.BatchCodec)
	if !ok {
		return nil
	}
	t0 := now()
	b := bc.DecodeBatchCol(dec, n)
	t1 := now()
	if b != nil {
		c.decCalls.Add(1)
		c.decNanos.Add(t1 - t0)
		c.decRecs.Add(int64(n))
		c.spans.add("codec", t0, t1)
	}
	return b
}

// wireCalls is the number of wire-path codec calls.
func (c *timedCodec) wireCalls() int64 { return c.encCalls.Load() + c.decCalls.Load() }

// wireTap observes frames through transport.Observed. Send and receive
// callbacks of one directed link and kind are FIFO-matched (the transport
// guarantees per-link order), giving each frame's send→dispatch latency
// without reading a byte of it.
type wireTap struct {
	spans *spanLog

	mu      sync.Mutex
	pending map[wireKey][]int64 // send instants awaiting their receive
	wireNS  []float64           // matched send→recv latencies, data and progress
	small   []float64           // the subset with payloads under 256 bytes
}

type wireKey struct {
	from, to int
	kind     transport.Kind
}

func newWireTap(spans *spanLog) *wireTap {
	return &wireTap{spans: spans, pending: make(map[wireKey][]int64)}
}

func (w *wireTap) onSend(from, to int, kind transport.Kind, _ int) {
	if from == to {
		return
	}
	t := now()
	k := wireKey{from, to, kind}
	w.mu.Lock()
	w.pending[k] = append(w.pending[k], t)
	w.mu.Unlock()
}

func (w *wireTap) onRecv(from, to int, kind transport.Kind, n int) {
	if from == to {
		return
	}
	t := now()
	k := wireKey{from, to, kind}
	w.mu.Lock()
	q := w.pending[k]
	if len(q) == 0 {
		w.mu.Unlock()
		return
	}
	t0 := q[0]
	w.pending[k] = q[1:]
	if kind == transport.KindData || kind == transport.KindProgress {
		w.wireNS = append(w.wireNS, float64(t-t0))
		if n < 256 {
			w.small = append(w.small, float64(t-t0))
		}
	}
	w.mu.Unlock()
	if kind == transport.KindData {
		w.spans.add("wire", t0, t)
	}
}

// observe wraps a transport with the tap.
func (w *wireTap) observe(inner transport.Transport) transport.Transport {
	return transport.NewObserved(inner, w.onSend, w.onRecv)
}
