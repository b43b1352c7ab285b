package transport

import (
	"testing"

	"naiad/internal/testutil"
)

// TestTCPDeadLinkDropCounted pins the rule that a lost frame is a failure,
// never a silent drop: a send on a dead link counts the frame in the
// per-kind drop stats and fails the link 0→1 through SetOnFail, once. The
// link is never repaired, so nothing sent after the failure arrives.
func TestTCPDeadLinkDropCounted(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, col, rec := newTCPPair(t)
	tr.Send(0, 1, KindData, []byte("before"))
	col.waitFor(t, 1)

	killLink(tr, 0, 1)
	tr.Send(0, 1, KindData, []byte("lost-1"))     // write fails, marks broken
	tr.Send(0, 1, KindProgress, []byte("lost-2")) // broken link, dropped directly
	rec.waitLink(t, 0, 1)

	if got := tr.Stats().TotalDrops(); got != 2 {
		t.Fatalf("TotalDrops = %d, want 2", got)
	}
	if d, p := tr.Stats().Drops(KindData), tr.Stats().Drops(KindProgress); d != 1 || p != 1 {
		t.Fatalf("per-kind drops data=%d progress=%d, want 1/1", d, p)
	}
	tr.Close()
	if n := rec.calls.Load(); n != 1 {
		t.Fatalf("SetOnFail fired %d times, want once", n)
	}
	col.mu.Lock()
	n := len(col.frames)
	col.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d frames delivered, want only the one sent before the link died", n)
	}
}

func TestStatsDropCounters(t *testing.T) {
	var s Stats
	s.CountDrops(KindData, 3)
	s.CountDrops(KindControl, 2)
	if s.Drops(KindData) != 3 || s.Drops(KindControl) != 2 || s.TotalDrops() != 5 {
		t.Fatalf("drops data=%d control=%d total=%d", s.Drops(KindData), s.Drops(KindControl), s.TotalDrops())
	}
	s.Reset()
	if s.TotalDrops() != 0 {
		t.Fatalf("TotalDrops after Reset = %d", s.TotalDrops())
	}
}
