package progress

import (
	"fmt"
	"sort"
	"sync"

	ts "naiad/internal/timestamp"
)

// This file implements the capability layer of the progress protocol: the
// explicit timestamp tokens that PAPERS.md's "Timestamp tokens" design
// (Lattuada & McSherry) converged on, layered over the occurrence-count
// protocol of §3.3. A Capability is the right to produce events — messages
// or notifications — at or after a pointstamp. Holding one keeps the
// pointstamp occupied in every tracker; the frontier falls out of token
// accounting:
//
//	Mint      +1 at p          (a new token comes into existence)
//	Clone     +1 at p          (two holders, two tokens)
//	Downgrade +1 at t, -1 at p (the token moves forward in time)
//	Drop      -1 at p          (the token is retired)
//
// Every mint is eventually matched by exactly one drop (possibly after any
// number of downgrades), so the net occurrence contribution of a token's
// lifetime is zero. A token that is neither dropped nor downgraded away is
// a permanent frontier stall — the leak AuditCaps exists to catch.
//
// A CapSet is one holder's book of live tokens. It posts its occurrence
// deltas through a sink callback (the runtime wires this to the worker's
// progress-broadcast path). It is a book of ±1 deltas over the one
// frontier structure, the indexed Tracker, not a second frontier: the
// antichain its live tokens imply is computed only test-side, where the
// differential battery compares it against the Tracker and the scan oracle.

// Capability is one live timestamp token. Capabilities are created through
// a CapSet and are not safe for concurrent use; the runtime confines each
// to its owning worker's loop.
type Capability struct {
	set     *CapSet
	p       Pointstamp
	dropped bool
}

// Pointstamp returns the token's current pointstamp.
func (c *Capability) Pointstamp() Pointstamp { return c.p }

// Time returns the token's current timestamp.
func (c *Capability) Time() ts.Timestamp { return c.p.Time }

// Dropped reports whether the token has been retired.
func (c *Capability) Dropped() bool { return c.dropped }

// Clone mints a second token at the same pointstamp (+1).
func (c *Capability) Clone() *Capability {
	if c.dropped {
		panic(fmt.Sprintf("progress: Clone of dropped capability %v", c.p))
	}
	return c.set.Mint(c.p)
}

// Downgrade moves the token forward to time t at the same location,
// posting +1 at the new pointstamp before -1 at the old one so no tracker
// ever observes a transient frontier advance. t must be at or after the
// current time (and at the same loop depth); downgrading a token is how a
// holder relinquishes the right to act at earlier times without giving up
// the later ones.
func (c *Capability) Downgrade(t ts.Timestamp) {
	if c.dropped {
		panic(fmt.Sprintf("progress: Downgrade of dropped capability %v", c.p))
	}
	if t == c.p.Time {
		return
	}
	if t.Depth != c.p.Time.Depth || !c.p.Time.LessEq(t) {
		panic(fmt.Sprintf("progress: cannot downgrade capability at %v to %v (not at-or-after)", c.p.Time, t))
	}
	old := c.p
	c.p.Time = t
	c.set.post(c.p, 1)
	c.set.post(old, -1)
}

// Drop retires the token (-1). Dropping twice is a bookkeeping bug and
// panics; asynchronous paths that may race a replayed drop use TryDrop.
func (c *Capability) Drop() {
	if !c.TryDrop() {
		panic(fmt.Sprintf("progress: double Drop of capability %v", c.p))
	}
}

// TryDrop retires the token if it is still live, reporting whether this
// call retired it. Idempotent: the runtime's replayed and asynchronous
// drop paths both funnel here, and exactly one of them wins.
func (c *Capability) TryDrop() bool {
	if c.dropped {
		return false
	}
	c.dropped = true
	delete(c.set.live, c)
	c.set.post(c.p, -1)
	return true
}

// CapSet is one holder's set of live capabilities. Occurrence deltas are
// posted through the sink. A CapSet is not safe for concurrent use.
type CapSet struct {
	label string
	sink  func(Pointstamp, int64)
	live  map[*Capability]struct{}
	audit *auditState
}

// NewCapSet returns an empty capability set. label names the holder in
// leak reports; sink receives every occurrence delta the set's tokens
// generate (it must not be nil). If a leak audit is installed (AuditCaps),
// the set binds to it now.
func NewCapSet(label string, sink func(Pointstamp, int64)) *CapSet {
	if sink == nil {
		panic("progress: NewCapSet requires a sink")
	}
	cs := &CapSet{label: label, sink: sink, live: make(map[*Capability]struct{})}
	auditMu.Lock()
	cs.audit = auditCur
	auditMu.Unlock()
	return cs
}

func (cs *CapSet) post(p Pointstamp, d int64) { cs.sink(p, d) }

// Mint creates a live token at p and posts its +1.
func (cs *CapSet) Mint(p Pointstamp) *Capability {
	c := &Capability{set: cs, p: p}
	cs.live[c] = struct{}{}
	cs.post(p, 1)
	return c
}

// MintSeeded creates a live token at p without posting: the occurrence it
// stands for was already established out of band (input seeding at
// construction, re-minting held tokens during replay, where the pre-crash
// +1 already reached every tracker). The token's eventual Drop or
// Downgrade posts normally.
func (cs *CapSet) MintSeeded(p Pointstamp) *Capability {
	c := &Capability{set: cs, p: p}
	cs.live[c] = struct{}{}
	return c
}

// Reset discards every live token without posting. The runtime uses it
// when rebuilding a crashed worker's state: the replacement trackers are
// rebuilt from a snapshot, so the dead incarnation's book is void.
func (cs *CapSet) Reset() {
	clear(cs.live)
}

// LiveCount returns the number of live tokens.
func (cs *CapSet) LiveCount() int { return len(cs.live) }

// Live returns the live tokens' pointstamps in deterministic order
// (duplicates preserved).
func (cs *CapSet) Live() []Pointstamp {
	out := make([]Pointstamp, 0, len(cs.live))
	for c := range cs.live {
		out = append(out, c.p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ReportLeaks records any still-live tokens with the installed leak audit.
// The runtime calls it at *clean* shutdown only — a computation torn down
// mid-flight (crash injection, abandoned test) legitimately holds tokens,
// so aborted runs never produce false positives. Without an installed
// audit this is a no-op.
func (cs *CapSet) ReportLeaks() {
	if cs.audit == nil || len(cs.live) == 0 {
		return
	}
	cs.audit.record(cs.label, cs.Live())
}

// --- leak audit -----------------------------------------------------------

// TB is the subset of testing.TB the audit hook needs, declared locally so
// the package does not import testing.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

type auditState struct {
	mu    sync.Mutex
	leaks []string
}

func (a *auditState) record(label string, ps []Pointstamp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.leaks = append(a.leaks, fmt.Sprintf("%s: %d live capability(ies) at clean shutdown: %v", label, len(ps), ps))
}

var (
	auditMu  sync.Mutex
	auditCur *auditState
)

// AuditCaps installs the capability-leak audit for the duration of a test:
// every CapSet created while it is installed binds to it, and any such set
// that still holds live tokens when its owner shuts down cleanly fails the
// test. A leaked capability is a permanent frontier stall — the class of
// bug that otherwise only shows up as a hung probe. Audited tests must not
// run in parallel with each other (the hook is installed globally).
func AuditCaps(tb TB) {
	tb.Helper()
	st := &auditState{}
	auditMu.Lock()
	prev := auditCur
	auditCur = st
	auditMu.Unlock()
	tb.Cleanup(func() {
		auditMu.Lock()
		auditCur = prev
		auditMu.Unlock()
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, l := range st.leaks {
			tb.Errorf("capability leak: %s", l)
		}
	})
}
