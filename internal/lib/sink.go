package lib

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Sink is the exactly-once egress operator: each completed epoch's records
// are sealed into one frontier-stamped batch and committed to an external
// store through asynchronous I/O, with a held capability (§2.3 timestamp
// token) standing in for the in-flight commit. The capability keeps the
// epoch's pointstamp occupied at the sink stage, so probes on the sink do
// not report the epoch complete — and downstream frontiers do not advance
// past it — until the store has acknowledged the batch. Epoch completion at
// the sink therefore means *committed*, not merely delivered.
//
// Exactly-once across failure: the batch bytes are canonical (per-record
// encodings sorted, so worker interleaving cannot perturb them), the store
// deduplicates by epoch, and the capability's (stage, seq) identity survives
// crash/revive — a commit acknowledged before a crash retires the re-minted
// token after replay, while an unacknowledged one is re-driven from the
// snapshot. Every schedule yields byte-identical, duplicate-free output.

// SinkBatch is one sealed epoch of sink output. Frontier is the stamp the
// rest of the system is guaranteed to have passed once the batch is visible:
// no record with timestamp < Frontier will ever be appended to this or any
// later batch. It is derived from the epoch's guarantee (ts.Root(epoch+1))
// rather than read from the live frontier, so the stamp — like Data — is
// a pure function of the epoch and identical across replays.
type SinkBatch struct {
	Epoch    int64
	Frontier ts.Timestamp
	// Data is the canonical encoding of the epoch's records: each record's
	// codec encoding, sorted lexicographically, concatenated with uint32
	// length prefixes.
	Data []byte
}

// SinkStore is the external system a Sink commits to. Commit must be
// idempotent per epoch — replay and restart may re-drive a batch — and safe
// for concurrent use: within one sink incarnation commits are chained in
// epoch order with at most one in flight, but a goroutine stranded by a
// crash may race the re-driven commit of the same (byte-identical) batch.
// A nil return acknowledges durability and releases the epoch's capability;
// an error leaves the capability held and stalls the chain, visibly pinning
// the sink's frontier until a restore re-drives the sealed batches.
type SinkStore interface {
	Commit(b SinkBatch) error
}

// Sink attaches an exactly-once frontier-stamped sink to a stream. All
// records converge on one vertex (worker 0), epochs seal in notification
// order, and each sealed batch is committed to store off-thread under a held
// capability. It returns the sink stage's id; a probe on it reports an epoch
// done only once its batch is durably committed. The stream must be outside
// any loop.
func Sink[T any](s *Stream[T], store SinkStore) runtime.StageID {
	if s.depth != 0 {
		panic("lib: Sink requires a stream outside any loop context")
	}
	c := s.scope.C
	cod := s.cod
	st := c.AddStage("Sink", graph.RoleNormal, 0, func(ctx *runtime.Context) runtime.Vertex {
		buf := make(map[int64][]T)       // open epochs: records so far
		capSeq := make(map[int64]uint64) // open epochs: held-capability seq
		sealed := make(map[int64]sealedBatch)
		// Commits are chained: each goroutine waits for its predecessor's
		// *successful* commit before calling the store, so the store observes
		// batches in seal (epoch) order with at most one Commit in flight per
		// sink incarnation. A consumer that sees epoch e committed can
		// therefore trust every earlier non-empty epoch is already durable —
		// the invariant the serve layer's frontier-stamped reads ride. On
		// error the chain deliberately stalls: the held capabilities pin the
		// frontier until a restore re-drives the sealed batches in order.
		var prevOK chan struct{}
		commit := func(b SinkBatch, hc *runtime.Capability) {
			wait := prevOK
			done := make(chan struct{})
			prevOK = done
			go func() {
				if wait != nil {
					<-wait
				}
				if store.Commit(b) != nil {
					return
				}
				close(done)
				if hc != nil {
					hc.DropAsync()
				}
			}()
		}
		return &checkpointableVertex[T]{
			vertexOf: vertexOf[T]{
				recv: func(_ int, rec T, t ts.Timestamp) {
					e := t.Epoch
					if _, open := capSeq[e]; !open {
						// First record of the epoch: hold a capability at
						// its pointstamp for the eventual commit, and ask
						// for a bare (purge) notification at seal time —
						// the capability carries the token, so a second
						// token from NotifyAt would be redundant.
						capSeq[e] = ctx.HoldCapability(t).Seq()
						ctx.NotifyAtPurge(t)
					}
					buf[e] = append(buf[e], rec)
				},
				notify: func(t ts.Timestamp) {
					e := t.Epoch
					// Retire sealed entries whose commit has been
					// acknowledged (their capability is gone).
					for se, sb := range sealed {
						if ctx.HeldCap(sb.seq) == nil {
							delete(sealed, se)
						}
					}
					b := SinkBatch{
						Epoch:    e,
						Frontier: ts.Root(e + 1),
						Data:     canonicalBytes(cod, buf[e]),
					}
					seq := capSeq[e]
					delete(buf, e)
					delete(capSeq, e)
					sealed[e] = sealedBatch{seq: seq, batch: b}
					commit(b, ctx.HeldCap(seq))
				},
			},
			checkpoint: func(enc *codec.Encoder) {
				opens := make([]int64, 0, len(buf))
				for e := range buf {
					opens = append(opens, e)
				}
				sort.Slice(opens, func(i, j int) bool { return opens[i] < opens[j] })
				enc.PutUint32(uint32(len(opens)))
				for _, e := range opens {
					enc.PutInt64(e)
					enc.PutUint64(capSeq[e])
					recs := buf[e]
					enc.PutUint32(uint32(len(recs)))
					boxed := make([]any, len(recs))
					for i, r := range recs {
						boxed[i] = r
					}
					cod.EncodeBatch(enc, boxed)
				}
				seals := make([]int64, 0, len(sealed))
				for e := range sealed {
					seals = append(seals, e)
				}
				sort.Slice(seals, func(i, j int) bool { return seals[i] < seals[j] })
				enc.PutUint32(uint32(len(seals)))
				for _, e := range seals {
					enc.PutInt64(e)
					enc.PutUint64(sealed[e].seq)
					enc.PutBytes(sealed[e].batch.Data)
				}
			},
			restore: func(dec *codec.Decoder) {
				buf = make(map[int64][]T)
				capSeq = make(map[int64]uint64)
				sealed = make(map[int64]sealedBatch)
				for n := int(dec.Uint32()); n > 0; n-- {
					e := dec.Int64()
					seq := dec.Uint64()
					cnt := int(dec.Uint32())
					recs := make([]T, 0, cnt)
					for _, r := range cod.DecodeBatch(dec, cnt) {
						recs = append(recs, r.(T))
					}
					// A selective rollback re-mints the capability before
					// this restore runs, so the token is found by seq and
					// the open epoch resumes where it was. A full restart
					// holds no tokens: the epoch will be re-fed from the
					// input replay, so the stale buffer is discarded and
					// the fresh first record re-holds.
					if ctx.HeldCap(seq) != nil {
						buf[e] = recs
						capSeq[e] = seq
					}
				}
				for n := int(dec.Uint32()); n > 0; n-- {
					e := dec.Int64()
					seq := dec.Uint64()
					data := dec.Bytes()
					b := SinkBatch{Epoch: e, Frontier: ts.Root(e + 1), Data: data}
					sealed[e] = sealedBatch{seq: seq, batch: b}
					// Re-drive the unacknowledged commit. The store's
					// per-epoch idempotence absorbs the case where the
					// pre-crash goroutine's commit did land.
					commit(b, ctx.HeldCap(seq))
				}
			},
		}
	}, runtime.Pinned(0))
	connect(c, s.stage, s.port, st, func(T) uint64 { return 0 }, s.cod)
	return st
}

// sealedBatch is a sealed epoch whose commit has not yet been acknowledged.
type sealedBatch struct {
	seq   uint64
	batch SinkBatch
}

// canonicalBytes builds the canonical byte form of an epoch's records:
// records arrive at the pinned vertex in a nondeterministic interleaving
// across workers, so each record is encoded alone and the encodings are
// sorted before concatenation. Two runs that deliver the same multiset of
// records produce identical bytes. The encodings share one arena and the
// sort moves only their spans, ordered by bytes.Compare: each span carries
// its first eight bytes as a big-endian key (zero-padded), which orders two
// encodings exactly as bytes.Compare does whenever the keys differ, so the
// full comparison runs only on equal keys.
func canonicalBytes[T any](cod codec.Codec, recs []T) []byte {
	type span struct {
		key    uint64
		lo, hi int
	}
	se, _ := cod.(codec.SliceEncoder[T])
	encode := func(enc *codec.Encoder, i int) {
		if se != nil {
			se.EncodeSlice(enc, recs[i:i+1]) // typed: nothing is boxed
		} else {
			cod.EncodeBatch(enc, []any{recs[i]})
		}
	}
	// Records of one type mostly share one encoded width: the arena is
	// sized once, from the first record's, not grown record by record.
	var first codec.Encoder
	if len(recs) > 0 {
		encode(&first, 0)
	}
	arena := codec.NewEncoder(len(first.Bytes()) * len(recs))
	spans := make([]span, len(recs))
	for i := range recs {
		lo := len(arena.Bytes())
		encode(arena, i)
		spans[i] = span{lo: lo, hi: len(arena.Bytes())}
	}
	buf := arena.Bytes()
	for i := range spans {
		var k [8]byte
		copy(k[:], buf[spans[i].lo:spans[i].hi])
		spans[i].key = binary.BigEndian.Uint64(k[:])
	}
	slices.SortFunc(spans, func(a, b span) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi])
	})
	out := codec.NewEncoder(len(buf) + 4*len(recs))
	for _, sp := range spans {
		out.PutBytes(buf[sp.lo:sp.hi])
	}
	return out.Bytes()
}

// DecodeSinkBatch decodes a canonical sink batch back into records — the
// read side of the sink's byte format, used by consumers of a SinkStore
// (and the serve layer's frontier-stamped reads).
func DecodeSinkBatch[T any](cod codec.Codec, b SinkBatch) []T {
	var out []T
	dec := codec.NewDecoder(b.Data)
	for dec.Remaining() > 0 {
		rec := dec.Bytes()
		rdec := codec.NewDecoder(rec)
		for _, r := range cod.DecodeBatch(rdec, 1) {
			out = append(out, r.(T))
		}
	}
	return out
}

// MemSink is an in-memory SinkStore for tests and examples. It deduplicates
// commits by epoch and records a conflict if two commits for the same epoch
// disagree on bytes or frontier — the differential signal the exactly-once
// battery uses to catch nondeterministic replay. FailFirst, when positive,
// makes that many leading Commit calls fail, exercising the stalled-frontier
// path.
type MemSink struct {
	mu        sync.Mutex
	batches   map[int64]SinkBatch
	commits   map[int64]int
	conflicts []int64
	failLeft  int
}

// NewMemSink returns an empty MemSink whose first failFirst commits fail.
func NewMemSink(failFirst int) *MemSink {
	return &MemSink{
		batches:  make(map[int64]SinkBatch),
		commits:  make(map[int64]int),
		failLeft: failFirst,
	}
}

// errCommitFail is the injected failure for MemSink's failFirst commits.
type errCommitFail struct{}

func (errCommitFail) Error() string { return "memsink: injected commit failure" }

// Commit implements SinkStore.
func (m *MemSink) Commit(b SinkBatch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failLeft > 0 {
		m.failLeft--
		return errCommitFail{}
	}
	m.commits[b.Epoch]++
	if old, ok := m.batches[b.Epoch]; ok {
		if !bytes.Equal(old.Data, b.Data) || old.Frontier != b.Frontier {
			m.conflicts = append(m.conflicts, b.Epoch)
		}
		return nil
	}
	m.batches[b.Epoch] = SinkBatch{Epoch: b.Epoch, Frontier: b.Frontier, Data: append([]byte(nil), b.Data...)}
	return nil
}

// Batch returns the committed batch for an epoch.
func (m *MemSink) Batch(e int64) (SinkBatch, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.batches[e]
	return b, ok
}

// Epochs returns the committed epochs, sorted.
func (m *MemSink) Epochs() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.batches))
	for e := range m.batches {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Commits returns how many acknowledged Commit calls the epoch received —
// ≥ 1 once committed; values > 1 are deduplicated replays.
func (m *MemSink) Commits(e int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits[e]
}

// Conflicts returns the epochs whose recommits disagreed with the first
// committed bytes. Any entry is an exactly-once violation.
func (m *MemSink) Conflicts() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int64(nil), m.conflicts...)
}
