package progress

import (
	"testing"

	"naiad/internal/graph"
	ts "naiad/internal/timestamp"
)

func TestPointstampLessDeterministic(t *testing.T) {
	a := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(1)}
	b := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(2)}
	c := Pointstamp{Time: ts.Root(1), Loc: graph.StageLoc(0)}
	if !a.Less(b) || b.Less(a) {
		t.Error("location tiebreak")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("time major")
	}
	if a.Less(a) {
		t.Error("irreflexive")
	}
}

func TestBufferCombinesAndCancels(t *testing.T) {
	b := NewBuffer()
	p := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)}
	q := Pointstamp{Time: ts.Root(1), Loc: graph.StageLoc(0)}
	b.Add(p, 1)
	b.Add(p, 2)
	b.Add(q, -1)
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
	b.Add(p, -3) // cancels entirely
	if b.Len() != 1 || b.Empty() {
		t.Fatalf("len = %d", b.Len())
	}
	b.Add(p, 0) // no-op
	us := b.Drain()
	if len(us) != 1 || us[0] != (Update{P: q, D: -1}) {
		t.Fatalf("drain = %v", us)
	}
	if !b.Empty() || b.Drain() != nil {
		t.Fatal("drain should empty the buffer")
	}
}

func TestDrainPositivesFirst(t *testing.T) {
	b := NewBuffer()
	p := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)}
	q := Pointstamp{Time: ts.Root(1), Loc: graph.StageLoc(0)}
	r := Pointstamp{Time: ts.Root(2), Loc: graph.StageLoc(0)}
	b.Add(p, -1)
	b.Add(q, 1)
	b.Add(r, -2)
	us := b.Drain()
	if len(us) != 3 || us[0].D <= 0 {
		t.Fatalf("positives must come first: %v", us)
	}
	if us[1].D > 0 || us[2].D > 0 {
		t.Fatalf("negatives after positives: %v", us)
	}
	if !us[1].P.Less(us[2].P) {
		t.Fatalf("deterministic order within sign class: %v", us)
	}
}

func TestAddAll(t *testing.T) {
	b := NewBuffer()
	p := Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(0)}
	b.AddAll([]Update{{P: p, D: 1}, {P: p, D: 1}})
	if got := b.Drain(); len(got) != 1 || got[0].D != 2 {
		t.Fatalf("AddAll combined = %v", got)
	}
}
