package lib

import (
	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// UnaryBuffer is the generic buffering operator most synchronous library
// operators build on (§4.2): OnRecv appends records to a list indexed by
// timestamp; once the time completes, f transforms the list and emits.
// part, when non-nil, exchanges the input first. Typed input batches are
// bulk-appended; the notify-time emission leaves as one pooled batch.
func UnaryBuffer[A, B any](s *Stream[A], name string, part func(A) uint64,
	f func(t ts.Timestamp, recs []A, emit func(B)), cod codec.Codec) *Stream[B] {
	return UnaryBufferStateful[A, B](s, name, part,
		func() func(ts.Timestamp, []A, func(B)) { return f }, cod)
}

// UnaryBufferStateful is UnaryBuffer for operators with cross-epoch
// per-vertex state: mk runs once per vertex (on its owning worker) and
// returns that vertex's transformation, so captured state is never shared
// between workers.
func UnaryBufferStateful[A, B any](s *Stream[A], name string, part func(A) uint64,
	mk func() func(t ts.Timestamp, recs []A, emit func(B)), cod codec.Codec) *Stream[B] {
	c := s.scope.C
	st := c.AddStage(name, graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		f := mk()
		buf := make(map[ts.Timestamp][]A)
		pool := batchbuf.PoolFor[B]()
		note := func(t ts.Timestamp) {
			if _, ok := buf[t]; !ok {
				ctx.NotifyAt(t)
				buf[t] = []A{}
			}
		}
		return &batchVertexOf[A]{
			vertexOf: vertexOf[A]{
				recv: func(_ int, rec A, t ts.Timestamp) {
					note(t)
					buf[t] = append(buf[t], rec)
				},
				notify: func(t ts.Timestamp) {
					recs := buf[t]
					delete(buf, t)
					out, col := pool.Get(len(recs))
					f(t, recs, func(b B) { col.Data = append(col.Data, b) })
					ctx.SendBatchBy(0, out, t)
				},
			},
			recvBatch: func(_ int, data []A, _ *runtime.Batch, t ts.Timestamp) {
				note(t)
				buf[t] = append(buf[t], data...)
			},
		}
	})
	connect(c, s.stage, s.port, st, part, s.cod)
	return &Stream[B]{scope: s.scope, stage: st, port: 0, cod: orGob[B](cod), depth: s.depth}
}

// GroupBy collates records by key and applies the reduction once all
// records for a time have arrived — the paper's GroupBy (§4.1). cod may be
// nil to use gob for R.
func GroupBy[A any, K comparable, R any](s *Stream[A], key func(A) K,
	reduce func(K, []A) []R, cod codec.Codec) *Stream[R] {
	hk := hasherFor[K]()
	part := func(a A) uint64 { return hk(key(a)) }
	return UnaryBuffer[A, R](s, "GroupBy", part, func(_ ts.Timestamp, recs []A, emit func(R)) {
		groups := make(map[K][]A)
		var order []K
		for _, r := range recs {
			k := key(r)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
		}
		for _, k := range order {
			for _, out := range reduce(k, groups[k]) {
				emit(out)
			}
		}
	}, cod)
}

// FoldByKey folds each key's values at each time into a single state,
// emitting one (key, state) pair when the time completes.
func FoldByKey[K comparable, V any, S any](s *Stream[Pair[K, V]],
	init func(K) S, fold func(S, V) S, cod codec.Codec) *Stream[Pair[K, S]] {
	c := s.scope.C
	st := c.AddStage("FoldByKey", graph.RoleNormal, s.depth, func(ctx *runtime.Context) runtime.Vertex {
		// Per time: the folded pairs, dense and in first-seen order, and each
		// key's index into them — so a key already seen costs one probe.
		// A completed time's state is emptied and reused by the next.
		type epochState struct {
			idx *keyIndex[K]
			out []Pair[K, S]
		}
		states := make(map[ts.Timestamp]*epochState)
		var free []*epochState
		pool := batchbuf.PoolFor[Pair[K, S]]()
		hash := nativeHasher[K]() // chosen once: the index's backing
		get := func(t ts.Timestamp) *epochState {
			es := states[t]
			if es == nil {
				if n := len(free); n > 0 {
					es, free = free[n-1], free[:n-1]
				} else {
					es = &epochState{idx: newKeyIndex(hash)}
				}
				states[t] = es
				ctx.NotifyAt(t)
			}
			return es
		}
		return &batchVertexOf[Pair[K, V]]{
			vertexOf: vertexOf[Pair[K, V]]{
				recv: func(_ int, rec Pair[K, V], t ts.Timestamp) {
					es := get(t)
					es.out = foldInto(es.idx, es.out, []Pair[K, V]{rec}, init, fold)
				},
				notify: func(t ts.Timestamp) {
					es := states[t]
					delete(states, t)
					out, col := pool.Get(len(es.out))
					col.Data = append(col.Data, es.out...)
					ctx.SendBatchBy(0, out, t)
					es.idx.reset()
					clear(es.out)
					es.out = es.out[:0]
					free = append(free, es)
				},
			},
			recvBatch: func(_ int, data []Pair[K, V], _ *runtime.Batch, t ts.Timestamp) {
				es := get(t)
				es.out = foldInto(es.idx, es.out, data, init, fold)
			},
		}
	})
	connect(c, s.stage, s.port, st, pairHasher[K, V](), s.cod)
	return &Stream[Pair[K, S]]{scope: s.scope, stage: st, port: 0, cod: orGob[Pair[K, S]](cod), depth: s.depth}
}

// keyIndex maps each key of one time to its index in FoldByKey's folded
// pairs. A key type with a native hash (nativeHasher) probes an
// open-addressing table: a power-of-two slot array, linear probing from the
// hash's top bits, grown at half load. (The exchange placed the records by
// the same hash's low bits, so a table indexed by those would use one slot
// in peers.) Any other key keeps a Go map, because the gob fallback hash
// would make every probe far slower than the map's.
type keyIndex[K comparable] struct {
	hash  func(K) uint64 // nil: m backs the index
	slots []keySlot[K]
	shift uint // 64 - log2(len(slots))
	m     map[K]int32
}

// keySlot holds a key beside its index, so a probe compares keys without a
// dependent load from the folded pairs.
type keySlot[K comparable] struct {
	key K
	pos int32 // index + 1; 0 marks an empty slot
}

const keySlotsLog = 6 // a new table's 64 slots

func newKeyIndex[K comparable](hash func(K) uint64) *keyIndex[K] {
	if hash == nil {
		return &keyIndex[K]{m: make(map[K]int32)}
	}
	return &keyIndex[K]{hash: hash, slots: make([]keySlot[K], 1<<keySlotsLog), shift: 64 - keySlotsLog}
}

// foldInto folds data into out — a time's folded pairs, dense, in
// first-seen key order and indexed by ix — and returns out; init runs once
// per new key. The table probe is written into the loop, so a key already
// seen costs its hash, its probe and the fold, with no call into the index.
func foldInto[K comparable, V, S any](ix *keyIndex[K], out []Pair[K, S], data []Pair[K, V],
	init func(K) S, fold func(S, V) S) []Pair[K, S] {
	for _, rec := range data {
		i, found := int32(0), false
		if ix.m != nil {
			i, found = ix.m[rec.Key]
		} else {
			mask := uint64(len(ix.slots) - 1)
			for j := ix.hash(rec.Key) >> ix.shift; ix.slots[j].pos != 0; j = (j + 1) & mask {
				if s := &ix.slots[j]; s.key == rec.Key {
					i, found = s.pos-1, true
					break
				}
			}
		}
		if !found {
			i = int32(len(out))
			ix.add(rec.Key, i)
			out = append(out, Pair[K, S]{Key: rec.Key, Val: init(rec.Key)})
		}
		out[i].Val = fold(out[i].Val, rec.Val)
	}
	return out
}

// add records that k, absent, is at index i — the number of keys the index
// already holds — growing the table first when it would pass half load.
func (ix *keyIndex[K]) add(k K, i int32) {
	if ix.m != nil {
		ix.m[k] = i
		return
	}
	if 2*int(i+1) > len(ix.slots) {
		ix.grow()
	}
	ix.put(keySlot[K]{key: k, pos: i + 1})
}

// grow doubles the table and re-inserts every key.
func (ix *keyIndex[K]) grow() {
	old := ix.slots
	ix.slots, ix.shift = make([]keySlot[K], 2*len(old)), ix.shift-1
	for _, s := range old {
		if s.pos != 0 {
			ix.put(s)
		}
	}
}

// put stores s in the first free slot of its key's probe sequence.
func (ix *keyIndex[K]) put(s keySlot[K]) {
	mask := uint64(len(ix.slots) - 1)
	j := ix.hash(s.key) >> ix.shift
	for ix.slots[j].pos != 0 {
		j = (j + 1) & mask
	}
	ix.slots[j] = s
}

// reset empties the index for the next time, keeping its table's size.
func (ix *keyIndex[K]) reset() {
	clear(ix.m)
	clear(ix.slots)
}

// Count counts occurrences of each record at each time (Figure 4's
// output2).
func Count[A comparable](s *Stream[A], cod codec.Codec) *Stream[Pair[A, int64]] {
	keyed := Select(s, func(a A) Pair[A, int64] { return Pair[A, int64]{Key: a, Val: 1} }, nil)
	return FoldByKey(keyed, func(A) int64 { return 0 },
		func(acc, v int64) int64 { return acc + v }, cod)
}

// minState tracks a running extremum; OK distinguishes "no value yet" from
// a genuine zero value.
type minState[V any] struct {
	V  V
	OK bool
}

// MinByKey keeps each key's minimum value per time, by the given less.
func MinByKey[K comparable, V any](s *Stream[Pair[K, V]], less func(a, b V) bool,
	cod codec.Codec) *Stream[Pair[K, V]] {
	folded := FoldByKey(s,
		func(K) minState[V] { return minState[V]{} },
		func(acc minState[V], v V) minState[V] {
			if !acc.OK || less(v, acc.V) {
				return minState[V]{V: v, OK: true}
			}
			return acc
		}, nil)
	return Select(folded, func(p Pair[K, minState[V]]) Pair[K, V] {
		return KV(p.Key, p.Val.V)
	}, cod)
}

// MaxByKey keeps each key's maximum value per time, by the given less.
func MaxByKey[K comparable, V any](s *Stream[Pair[K, V]], less func(a, b V) bool,
	cod codec.Codec) *Stream[Pair[K, V]] {
	return MinByKey(s, func(a, b V) bool { return less(b, a) }, cod)
}

// Barrier forwards nothing and notifies per time; it exists to create pure
// synchronization points (the Figure 6b microbenchmark). Records are
// consumed and dropped; one zero-valued record is emitted per completed
// time so downstream stages can observe the barrier.
func Barrier[A any](s *Stream[A]) *Stream[A] {
	return UnaryBuffer[A, A](s, "Barrier", nil, func(_ ts.Timestamp, _ []A, emit func(A)) {
		var zero A
		emit(zero)
	}, s.cod)
}
