// Package progress implements Naiad's progress tracking (§2.3, §3.3): the
// could-result-in order over pointstamps, occurrence and precursor counts,
// frontier maintenance, and the building blocks of the distributed protocol
// (combining buffers, accumulators, and traffic statistics).
//
// The Tracker here is the "local view" each worker maintains: occurrence
// counts are updated only by applying broadcast (pointstamp, δ) updates, so
// counts can be transiently negative when a retirement from one worker
// overtakes the corresponding creation from another. A pointstamp is active
// while its net count is positive; the FIFO-per-link, positives-first
// discipline of the protocol guarantees that treating non-positive counts
// as inactive never lets a local frontier advance past the global frontier.
package progress

import (
	"fmt"
	"sort"

	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

// Pointstamp pairs a timestamp with a location (stage or connector) in the
// logical graph, as §2.3 defines. Naiad projects physical pointstamps onto
// the logical graph (§3.1); all tracking here is in logical terms.
type Pointstamp struct {
	Time ts.Timestamp
	Loc  graph.Location
}

// String renders the pointstamp.
func (p Pointstamp) String() string {
	return fmt.Sprintf("%v@loc%d", p.Time, p.Loc)
}

// Less orders pointstamps deterministically (time-major), for stable
// iteration and for the positives-first flush ordering.
func (p Pointstamp) Less(q Pointstamp) bool {
	if c := p.Time.Compare(q.Time); c != 0 {
		return c < 0
	}
	return p.Loc < q.Loc
}

// Update is one entry of the progress protocol: add D to the occurrence
// count of P.
type Update struct {
	P Pointstamp
	D int64
}

// SortUpdates orders a batch positives-first (the safety requirement of
// §3.3: "positive values must be sent before negative values"), with a
// deterministic pointstamp order within each sign class.
func SortUpdates(us []Update) {
	sort.Slice(us, func(i, j int) bool {
		pi, pj := us[i].D > 0, us[j].D > 0
		if pi != pj {
			return pi
		}
		return us[i].P.Less(us[j].P)
	})
}

// Buffer accumulates progress updates, combining entries with the same
// pointstamp by summing their deltas (§3.3). Fully cancelled entries
// vanish. Buffers are the unit of accumulation at every protocol tier:
// worker-local, process-level, and cluster-level.
type Buffer struct {
	m map[Pointstamp]int64
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer {
	return &Buffer{m: make(map[Pointstamp]int64)}
}

// Add accumulates delta onto p's pending update.
func (b *Buffer) Add(p Pointstamp, delta int64) {
	if delta == 0 {
		return
	}
	next := b.m[p] + delta
	if next == 0 {
		delete(b.m, p)
	} else {
		b.m[p] = next
	}
}

// AddAll accumulates a batch of updates.
func (b *Buffer) AddAll(us []Update) {
	for _, u := range us {
		b.Add(u.P, u.D)
	}
}

// Empty reports whether nothing is pending.
func (b *Buffer) Empty() bool { return len(b.m) == 0 }

// Len returns the number of distinct pending pointstamps.
func (b *Buffer) Len() int { return len(b.m) }

// Drain removes and returns all pending updates, positives first.
func (b *Buffer) Drain() []Update {
	if len(b.m) == 0 {
		return nil
	}
	us := make([]Update, 0, len(b.m))
	for p, d := range b.m {
		us = append(us, Update{P: p, D: d})
	}
	clear(b.m)
	SortUpdates(us)
	return us
}
