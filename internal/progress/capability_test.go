package progress

import (
	"math/rand"
	"testing"

	"naiad/internal/graph"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
)

// capHarness drives a CapSet whose deltas feed both the indexed tracker
// and the reference oracle, giving three independent frontier views: the
// token book's own antichain (capFrontier), the indexed tracker, and the
// scan oracle. The tracker is the product's one frontier structure; the
// other two are oracles only this package's tests can see.
type capHarness struct {
	t    testing.TB
	g    *graph.Graph
	cs   *CapSet
	idx  *Tracker
	ref  *ReferenceTracker
	live []*Capability
}

func newCapHarness(t testing.TB, g *graph.Graph) *capHarness {
	h := &capHarness{t: t, g: g, idx: NewTracker(g), ref: NewReferenceTracker(g)}
	h.cs = NewCapSet("test", func(p Pointstamp, d int64) {
		h.idx.Update(p, d)
		h.ref.Update(p, d)
	})
	return h
}

// capFrontier returns the minimal antichain of the live tokens'
// pointstamps under could-result-in: the frontier the token book alone
// implies. When every tracker update is token-derived it must agree with
// Tracker.Frontier and ReferenceTracker.Frontier. O(n²) in live tokens.
func capFrontier(g *graph.Graph, cs *CapSet) []Pointstamp {
	live := cs.Live() // sorted, duplicates preserved
	var out []Pointstamp
	for i, p := range live {
		if i > 0 && live[i-1] == p {
			continue
		}
		minimal := true
		for _, q := range live {
			if q != p && g.CouldResultIn(q.Time, q.Loc, p.Time, p.Loc) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, p)
		}
	}
	return out
}

// check asserts the three frontier views agree.
func (h *capHarness) check(ctx string) {
	h.t.Helper()
	cap_, idx, ref := capFrontier(h.g, h.cs), h.idx.Frontier(), h.ref.Frontier()
	equal := func(a, b []Pointstamp) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !equal(cap_, idx) || !equal(idx, ref) {
		h.t.Fatalf("%s: frontier divergence\ncapability: %v\nindexed:    %v\nreference:  %v",
			ctx, cap_, idx, ref)
	}
	if h.cs.LiveCount() != h.idx.Active() || h.idx.Active() != h.ref.Active() {
		// Live tokens at the same pointstamp merge into one tracker entry,
		// so compare distinct pointstamps, not raw token counts.
		distinct := map[Pointstamp]bool{}
		for _, p := range h.cs.Live() {
			distinct[p] = true
		}
		if len(distinct) != h.idx.Active() || h.idx.Active() != h.ref.Active() {
			h.t.Fatalf("%s: %d distinct live pointstamps, indexed active %d, reference active %d",
				ctx, len(distinct), h.idx.Active(), h.ref.Active())
		}
	}
}

// step applies one schedule operation drawn from (opByte, pickByte):
// mint, clone, downgrade, or drop. universe supplies mint pointstamps and
// downgrade targets.
func (h *capHarness) step(opByte, pickByte byte, universe []Pointstamp) {
	switch {
	case len(h.live) == 0 || opByte%4 == 0:
		p := universe[int(pickByte)%len(universe)]
		h.live = append(h.live, h.cs.Mint(p))
	case opByte%4 == 1:
		c := h.live[int(pickByte)%len(h.live)]
		h.live = append(h.live, c.Clone())
	case opByte%4 == 2:
		c := h.live[int(pickByte)%len(h.live)]
		// Downgrade to a random at-or-after time at the token's location.
		var targets []ts.Timestamp
		for _, q := range universe {
			if q.Loc == c.Pointstamp().Loc && c.Time().LessEq(q.Time) {
				targets = append(targets, q.Time)
			}
		}
		if len(targets) > 0 {
			c.Downgrade(targets[int(opByte/4)%len(targets)])
		}
	default:
		i := int(pickByte) % len(h.live)
		h.live[i].Drop()
		h.live = append(h.live[:i], h.live[i+1:]...)
	}
}

func (h *capHarness) drain() {
	h.t.Helper()
	for _, c := range h.live {
		c.Drop()
	}
	h.live = nil
	if h.cs.LiveCount() != 0 || !h.idx.Empty() || !h.ref.Empty() {
		h.t.Fatalf("after dropping every capability: %d live, indexed active %d, reference active %d",
			h.cs.LiveCount(), h.idx.Active(), h.ref.Active())
	}
}

// TestCapabilityAccounting pins the delta semantics of each token
// operation against a recording sink.
func TestCapabilityAccounting(t *testing.T) {
	var got []Update
	cs := NewCapSet("acct", func(p Pointstamp, d int64) {
		got = append(got, Update{P: p, D: d})
	})
	loc := graph.StageLoc(1)
	p0 := Pointstamp{Time: ts.Root(0), Loc: loc}
	p1 := Pointstamp{Time: ts.Root(1), Loc: loc}

	c := cs.Mint(p0)
	c2 := c.Clone()
	c.Downgrade(ts.Root(1))
	c.Downgrade(ts.Root(1)) // no-op: same time posts nothing
	c2.Drop()
	c.Drop()

	want := []Update{
		{P: p0, D: 1},  // mint
		{P: p0, D: 1},  // clone
		{P: p1, D: 1},  // downgrade: +new first...
		{P: p0, D: -1}, // ...then -old
		{P: p0, D: -1}, // drop clone
		{P: p1, D: -1}, // drop original
	}
	if len(got) != len(want) {
		t.Fatalf("posted %d updates, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("update[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if cs.LiveCount() != 0 {
		t.Fatalf("LiveCount = %d after dropping everything", cs.LiveCount())
	}
	if !c.Dropped() || c.TryDrop() {
		t.Fatal("TryDrop after Drop must report false")
	}
}

// TestCapabilityMisuse pins the panics: double drop, use after drop, and
// downgrading backwards in time.
func TestCapabilityMisuse(t *testing.T) {
	sink := func(Pointstamp, int64) {}
	loc := graph.StageLoc(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	cs := NewCapSet("misuse", sink)
	c := cs.Mint(Pointstamp{Time: ts.Root(1), Loc: loc})
	mustPanic("downgrade backwards", func() { c.Downgrade(ts.Root(0)) })
	mustPanic("downgrade depth mismatch", func() { c.Downgrade(ts.Make(1, 0)) })
	c.Drop()
	mustPanic("double drop", func() { c.Drop() })
	mustPanic("clone after drop", func() { c.Clone() })
	mustPanic("downgrade after drop", func() { c.Downgrade(ts.Root(2)) })
	mustPanic("nil sink", func() { NewCapSet("nil", nil) })
}

// TestCapabilitySeededMint pins MintSeeded: no +1 is posted (the
// occurrence exists out of band), but the drop posts its -1 normally.
func TestCapabilitySeededMint(t *testing.T) {
	var got []Update
	cs := NewCapSet("seeded", func(p Pointstamp, d int64) {
		got = append(got, Update{P: p, D: d})
	})
	p := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)}
	c := cs.MintSeeded(p)
	if len(got) != 0 {
		t.Fatalf("MintSeeded posted %v", got)
	}
	if cs.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d", cs.LiveCount())
	}
	c.Drop()
	if len(got) != 1 || got[0] != (Update{P: p, D: -1}) {
		t.Fatalf("drop of seeded capability posted %v", got)
	}
}

// TestCapSetReset pins Reset: live tokens vanish without posting.
func TestCapSetReset(t *testing.T) {
	posts := 0
	cs := NewCapSet("reset", func(Pointstamp, int64) { posts++ })
	cs.Mint(Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)})
	cs.Mint(Pointstamp{Time: ts.Root(1), Loc: graph.StageLoc(1)})
	posts = 0
	cs.Reset()
	if cs.LiveCount() != 0 || posts != 0 {
		t.Fatalf("Reset left %d live tokens, posted %d updates", cs.LiveCount(), posts)
	}
}

// TestCapabilityDifferential drives randomized capability schedules —
// mint, clone, downgrade, drop — over the three graph shapes and asserts
// the capability set's own frontier, the indexed tracker, and the
// reference oracle stay in lockstep throughout.
func TestCapabilityDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(testutil.Seed(t)))
	for _, shape := range []string{"linear", "loop", "nested"} {
		t.Run(shape, func(t *testing.T) {
			g := shapeGraph(t, shape)
			universe := pointstampUniverse(g)
			for trial := 0; trial < 4; trial++ {
				h := newCapHarness(t, g)
				for step := 0; step < 600; step++ {
					h.step(byte(r.Intn(256)), byte(r.Intn(256)), universe)
					if step%25 == 0 {
						h.check(shape)
					}
				}
				h.check(shape + "-final")
				h.idx.CheckInvariants()
				h.ref.CheckInvariants()
				h.drain()
			}
		})
	}
}

// TestAuditCapsReportsLeaks exercises the leak-audit hook through a fake
// TB: a CapSet created under the audit that shuts down with live tokens
// must fail the test; one that drops everything must not.
func TestAuditCapsReportsLeaks(t *testing.T) {
	sink := func(Pointstamp, int64) {}

	run := func(leak bool) *fakeTB {
		ftb := &fakeTB{}
		AuditCaps(ftb)
		cs := NewCapSet("worker-0", sink)
		c := cs.Mint(Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)})
		if !leak {
			c.Drop()
		}
		cs.ReportLeaks()
		ftb.runCleanups()
		return ftb
	}

	if ftb := run(true); len(ftb.errors) != 1 {
		t.Fatalf("leaked capability produced %d audit errors, want 1: %v", len(ftb.errors), ftb.errors)
	}
	if ftb := run(false); len(ftb.errors) != 0 {
		t.Fatalf("clean shutdown produced audit errors: %v", ftb.errors)
	}

	// Without an installed audit, ReportLeaks is a no-op even with leaks.
	cs := NewCapSet("unaudited", sink)
	cs.Mint(Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)})
	cs.ReportLeaks()
}

type fakeTB struct {
	errors   []string
	cleanups []func()
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, format)
}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) runCleanups() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// FuzzCapabilityDifferential feeds byte-derived capability schedules to
// the three frontier views over the nested-loop graph and asserts they
// never diverge. Each byte pair is one (op, pick) schedule step.
func FuzzCapabilityDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 10, 1, 10, 2, 40, 3, 0})
	f.Add([]byte{255, 254, 0, 252, 1, 1, 2, 1, 128, 64, 3, 3})
	g := shapeGraph(f, "nested")
	universe := pointstampUniverse(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newCapHarness(t, g)
		for i := 0; i+1 < len(data); i += 2 {
			h.step(data[i], data[i+1], universe)
			if i%16 == 0 {
				h.check("fuzz")
			}
		}
		h.check("fuzz-final")
		h.idx.CheckInvariants()
		h.drain()
	})
}
