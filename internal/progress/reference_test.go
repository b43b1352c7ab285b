package progress

import (
	"fmt"
	"sort"

	"naiad/internal/graph"
)

// ReferenceTracker is the original scan-based progress tracker, kept as
// the correctness oracle for the indexed Tracker: activation, deactivation,
// and SomePrecursorOf do full passes over every tracked pointstamp, which
// makes the implementation small enough to audit by eye. The differential
// property and fuzz tests drive it in lockstep with Tracker and assert
// identical frontiers. It lives in a _test.go file so that the product has
// exactly one frontier structure: nothing outside this package's tests and
// benchmarks can reach it.
type ReferenceTracker struct {
	g       *graph.Graph
	entries map[Pointstamp]*entry
	active  int
}

// NewReferenceTracker returns a reference tracker over the frozen graph.
func NewReferenceTracker(g *graph.Graph) *ReferenceTracker {
	if !g.Frozen() {
		panic("progress: tracker requires a frozen graph")
	}
	return &ReferenceTracker{g: g, entries: make(map[Pointstamp]*entry)}
}

// couldResultIn reports the strict precedence used for precursor counts.
func (t *ReferenceTracker) couldResultIn(p, q Pointstamp) bool {
	if p == q {
		return false
	}
	return t.g.CouldResultIn(p.Time, p.Loc, q.Time, q.Loc)
}

// Update adds delta to the occurrence count of p.
func (t *ReferenceTracker) Update(p Pointstamp, delta int64) {
	if delta == 0 {
		return
	}
	e := t.entries[p]
	if e == nil {
		e = &entry{}
		t.entries[p] = e
	}
	wasActive := e.occ > 0
	e.occ += delta
	isActive := e.occ > 0
	switch {
	case !wasActive && isActive:
		t.activate(p, e)
	case wasActive && !isActive:
		t.deactivate(p, e)
	}
	if e.occ == 0 && e.prec == 0 {
		delete(t.entries, p)
	}
}

// Apply applies a batch positives-first.
func (t *ReferenceTracker) Apply(us []Update) {
	for _, u := range us {
		if u.D > 0 {
			t.Update(u.P, u.D)
		}
	}
	for _, u := range us {
		if u.D < 0 {
			t.Update(u.P, u.D)
		}
	}
}

func (t *ReferenceTracker) activate(p Pointstamp, e *entry) {
	t.active++
	e.prec = 0
	for q, qe := range t.entries {
		if qe.occ <= 0 || q == p {
			continue
		}
		if t.couldResultIn(q, p) {
			e.prec++
		}
		if t.couldResultIn(p, q) {
			qe.prec++
		}
	}
}

func (t *ReferenceTracker) deactivate(p Pointstamp, e *entry) {
	t.active--
	for q, qe := range t.entries {
		if qe.occ <= 0 || q == p {
			continue
		}
		if t.couldResultIn(p, q) {
			qe.prec--
			if qe.prec < 0 {
				panic(fmt.Sprintf("progress: precursor count of %v went negative", q))
			}
		}
	}
	e.prec = 0
}

// InFrontier reports whether p is active with no active precursors.
func (t *ReferenceTracker) InFrontier(p Pointstamp) bool {
	e := t.entries[p]
	return e != nil && e.occ > 0 && e.prec == 0
}

// Frontier returns the active pointstamps with zero precursor count, in
// deterministic order.
func (t *ReferenceTracker) Frontier() []Pointstamp {
	var out []Pointstamp
	for p, e := range t.entries {
		if e.occ > 0 && e.prec == 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Active returns the number of active pointstamps.
func (t *ReferenceTracker) Active() int { return t.active }

// Empty reports whether no pointstamp is active.
func (t *ReferenceTracker) Empty() bool { return t.active == 0 }

// Occurrence returns the net occurrence count of p.
func (t *ReferenceTracker) Occurrence(p Pointstamp) int64 {
	if e := t.entries[p]; e != nil {
		return e.occ
	}
	return 0
}

// SomePrecursorOf reports whether any active pointstamp other than p
// could-result-in p.
func (t *ReferenceTracker) SomePrecursorOf(p Pointstamp) bool {
	for q, qe := range t.entries {
		if qe.occ > 0 && q != p && t.couldResultIn(q, p) {
			return true
		}
	}
	return false
}

// CheckInvariants recomputes every precursor count from scratch and panics
// on divergence.
func (t *ReferenceTracker) CheckInvariants() {
	for p, e := range t.entries {
		if e.occ <= 0 {
			continue
		}
		var want int64
		for q, qe := range t.entries {
			if qe.occ > 0 && q != p && t.couldResultIn(q, p) {
				want++
			}
		}
		if e.prec != want {
			panic(fmt.Sprintf("progress: %v precursor count %d, recomputed %d", p, e.prec, want))
		}
	}
}
