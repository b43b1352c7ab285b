package lib

import (
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/runtime"
	ts "naiad/internal/timestamp"
)

// Diff is a weighted record: the unit of incremental collections, after
// the paper's "library for incremental computation" (§4.1, McSherry et
// al.'s differential dataflow). A collection at epoch e is the
// accumulation of all diffs at epochs ≤ e: Delta +1 inserts a record,
// -1 deletes one, and operators emit only *changes* to their outputs.
//
// The Diff operators here are the epoch-incremental core of that library:
// deterministic, synchronized per epoch via notifications, and composable
// with every other operator in the package. (Full differential dataflow
// also indexes changes by loop counter; these operators incrementalize
// across epochs only.)
type Diff[T any] struct {
	Rec   T
	Delta int64
}

// Add is shorthand for an insertion diff.
func Add[T any](rec T) Diff[T] { return Diff[T]{Rec: rec, Delta: 1} }

// Del is shorthand for a deletion diff.
func Del[T any](rec T) Diff[T] { return Diff[T]{Rec: rec, Delta: -1} }

// DiffSelect transforms the records of an incremental collection,
// preserving weights. f must be a function (equal inputs give equal
// outputs) or deletions will not line up with their insertions. cod, when
// non-nil, must encode Diff[B] records (not bare B); nil uses gob.
func DiffSelect[A, B any](s *Stream[Diff[A]], f func(A) B, cod codec.Codec) *Stream[Diff[B]] {
	return Select(s, func(d Diff[A]) Diff[B] {
		return Diff[B]{Rec: f(d.Rec), Delta: d.Delta}
	}, cod)
}

// DiffWhere filters an incremental collection.
func DiffWhere[A any](s *Stream[Diff[A]], pred func(A) bool) *Stream[Diff[A]] {
	return Where(s, func(d Diff[A]) bool { return pred(d.Rec) })
}

// DiffSelectMany expands each record, preserving weights.
func DiffSelectMany[A, B any](s *Stream[Diff[A]], f func(A) []B, cod codec.Codec) *Stream[Diff[B]] {
	return SelectMany(s, func(d Diff[A]) []Diff[B] {
		outs := f(d.Rec)
		res := make([]Diff[B], len(outs))
		for i, o := range outs {
			res[i] = Diff[B]{Rec: o, Delta: d.Delta}
		}
		return res
	}, cod)
}

// Consolidate combines same-record diffs within each epoch and drops
// cancelled ones, reducing downstream work.
func Consolidate[A comparable](s *Stream[Diff[A]]) *Stream[Diff[A]] {
	hk := hasherFor[A]()
	part := func(d Diff[A]) uint64 { return hk(d.Rec) }
	return UnaryBuffer[Diff[A], Diff[A]](s, "Consolidate", part,
		func(_ ts.Timestamp, recs []Diff[A], emit func(Diff[A])) {
			sums := make(map[A]int64, len(recs))
			var order []A
			for _, d := range recs {
				if _, ok := sums[d.Rec]; !ok {
					order = append(order, d.Rec)
				}
				sums[d.Rec] += d.Delta
			}
			for _, r := range order {
				if sums[r] != 0 {
					emit(Diff[A]{Rec: r, Delta: sums[r]})
				}
			}
		}, s.cod)
}

// DiffDistinct maintains the set of records with positive multiplicity:
// it emits +1 when a record's accumulated multiplicity becomes positive
// and -1 when it returns to zero — the incremental Distinct. State
// persists across epochs; epochs are processed in order.
func DiffDistinct[A comparable](s *Stream[Diff[A]]) *Stream[Diff[A]] {
	hk := hasherFor[A]()
	part := func(d Diff[A]) uint64 { return hk(d.Rec) }
	return UnaryBufferStateful[Diff[A], Diff[A]](s, "DiffDistinct", part, func() func(ts.Timestamp, []Diff[A], func(Diff[A])) {
		mult := make(map[A]int64)
		return func(_ ts.Timestamp, recs []Diff[A], emit func(Diff[A])) {
			// Net the epoch's changes per record first, then compare the
			// set membership before and after.
			changed := make(map[A]int64, len(recs))
			var order []A
			for _, d := range recs {
				if _, ok := changed[d.Rec]; !ok {
					order = append(order, d.Rec)
				}
				changed[d.Rec] += d.Delta
			}
			for _, r := range order {
				before := mult[r] > 0
				mult[r] += changed[r]
				if mult[r] < 0 {
					panic("lib: DiffDistinct multiplicity went negative (deletion of absent record)")
				}
				after := mult[r] > 0
				switch {
				case !before && after:
					emit(Diff[A]{Rec: r, Delta: 1})
				case before && !after:
					emit(Diff[A]{Rec: r, Delta: -1})
				}
				if mult[r] == 0 {
					delete(mult, r)
				}
			}
		}
	}, s.cod)
}

// DiffCount maintains a count per key and emits count *corrections* per
// epoch: a deletion of the old (key, count) pair and an insertion of the
// new one — §4.1's incrementally updatable reduction.
func DiffCount[K comparable](s *Stream[Diff[K]], cod codec.Codec) *Stream[Diff[Pair[K, int64]]] {
	hk := hasherFor[K]()
	part := func(d Diff[K]) uint64 { return hk(d.Rec) }
	return UnaryBufferStateful[Diff[K], Diff[Pair[K, int64]]](s, "DiffCount", part, func() func(ts.Timestamp, []Diff[K], func(Diff[Pair[K, int64]])) {
		counts := make(map[K]int64)
		return func(_ ts.Timestamp, recs []Diff[K], emit func(Diff[Pair[K, int64]])) {
			changed := make(map[K]int64, len(recs))
			var order []K
			for _, d := range recs {
				if _, ok := changed[d.Rec]; !ok {
					order = append(order, d.Rec)
				}
				changed[d.Rec] += d.Delta
			}
			for _, k := range order {
				if changed[k] == 0 {
					continue
				}
				old := counts[k]
				next := old + changed[k]
				if next < 0 {
					panic("lib: DiffCount went negative (deletion of absent record)")
				}
				if old > 0 {
					emit(Diff[Pair[K, int64]]{Rec: KV(k, old), Delta: -1})
				}
				if next > 0 {
					emit(Diff[Pair[K, int64]]{Rec: KV(k, next), Delta: 1})
				}
				if next == 0 {
					delete(counts, k)
				} else {
					counts[k] = next
				}
			}
		}
	}, cod)
}

// DiffJoin incrementally joins two keyed collections: per epoch it emits
// the bilinear update dA⋈B + (A+dA)⋈dB with multiplied weights, so the
// accumulated output always equals the join of the accumulated inputs.
// Indexes of both sides persist across epochs; values need not be
// comparable, so per-value weight consolidation is left to a downstream
// Consolidate when R is comparable.
func DiffJoin[K comparable, A, B, R any](a *Stream[Diff[Pair[K, A]]], b *Stream[Diff[Pair[K, B]]],
	f func(K, A, B) R, cod codec.Codec) *Stream[Diff[R]] {
	if a.depth != b.depth {
		panic("lib: DiffJoin requires streams at the same loop depth")
	}
	c := a.scope.C
	st := c.AddStage("DiffJoin", graph.RoleNormal, a.depth, func(ctx *runtime.Context) runtime.Vertex {
		return &diffJoinVertex[K, A, B, R]{
			ctx: ctx, f: f,
			left:  make(map[K][]weighted[A]),
			right: make(map[K][]weighted[B]),
			buf:   make(map[ts.Timestamp]*diffJoinPending[K, A, B]),
		}
	})
	hk := hasherFor[K]()
	connect(c, a.stage, a.port, st, func(m Diff[Pair[K, A]]) uint64 {
		return hk(m.Rec.Key)
	}, a.cod)
	connect(c, b.stage, b.port, st, func(m Diff[Pair[K, B]]) uint64 {
		return hk(m.Rec.Key)
	}, b.cod)
	return &Stream[Diff[R]]{scope: a.scope, stage: st, port: 0, cod: orGob[Diff[R]](cod), depth: a.depth}
}

// weighted is one indexed value with its accumulated multiplicity.
type weighted[V any] struct {
	val V
	w   int64
}

type diffJoinPending[K comparable, A, B any] struct {
	dl []Diff[Pair[K, A]]
	dr []Diff[Pair[K, B]]
}

// diffJoinVertex buffers each epoch's input diffs, then applies the
// bilinear update rule on notification.
type diffJoinVertex[K comparable, A, B, R any] struct {
	ctx   *runtime.Context
	f     func(K, A, B) R
	left  map[K][]weighted[A]
	right map[K][]weighted[B]
	buf   map[ts.Timestamp]*diffJoinPending[K, A, B]
}

func (v *diffJoinVertex[K, A, B, R]) pending(t ts.Timestamp) *diffJoinPending[K, A, B] {
	p := v.buf[t]
	if p == nil {
		p = &diffJoinPending[K, A, B]{}
		v.buf[t] = p
		v.ctx.NotifyAt(t)
	}
	return p
}

func (v *diffJoinVertex[K, A, B, R]) OnRecv(input int, msg runtime.Message, t ts.Timestamp) {
	p := v.pending(t)
	if input == 0 {
		p.dl = append(p.dl, msg.(Diff[Pair[K, A]]))
	} else {
		p.dr = append(p.dr, msg.(Diff[Pair[K, B]]))
	}
}

func (v *diffJoinVertex[K, A, B, R]) OnNotify(t ts.Timestamp) {
	p := v.buf[t]
	delete(v.buf, t)
	// dA ⋈ B (the right index before this epoch's changes).
	for _, d := range p.dl {
		k := d.Rec.Key
		for _, e := range v.right[k] {
			if w := d.Delta * e.w; w != 0 {
				v.ctx.SendBy(0, Diff[R]{Rec: v.f(k, d.Rec.Val, e.val), Delta: w}, t)
			}
		}
	}
	// Apply dA to the left index.
	for _, d := range p.dl {
		k := d.Rec.Key
		v.left[k] = append(v.left[k], weighted[A]{val: d.Rec.Val, w: d.Delta})
	}
	// (A + dA) ⋈ dB.
	for _, d := range p.dr {
		k := d.Rec.Key
		for _, e := range v.left[k] {
			if w := e.w * d.Delta; w != 0 {
				v.ctx.SendBy(0, Diff[R]{Rec: v.f(k, e.val, d.Rec.Val), Delta: w}, t)
			}
		}
	}
	// Apply dB to the right index.
	for _, d := range p.dr {
		k := d.Rec.Key
		v.right[k] = append(v.right[k], weighted[B]{val: d.Rec.Val, w: d.Delta})
	}
}
