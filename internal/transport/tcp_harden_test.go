package transport

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"naiad/internal/testutil"
)

// killLink closes the socket behind one directed link, simulating a
// network failure from the sender's point of view.
func killLink(tr *TCP, from, to int) {
	l := tr.conns[from][to]
	l.mu.Lock()
	c := l.c
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// failRecorder counts SetOnFail calls and keeps the first error.
type failRecorder struct {
	calls atomic.Int64
	first chan error
}

func newFailRecorder(tr FailReporter) *failRecorder {
	r := &failRecorder{first: make(chan error, 1)}
	tr.SetOnFail(func(err error) {
		if r.calls.Add(1) == 1 {
			r.first <- err
		}
	})
	return r
}

// waitLink waits for the first failure and checks that it is a
// *LinkError naming from→to.
func (r *failRecorder) waitLink(t *testing.T, from, to int) *LinkError {
	t.Helper()
	select {
	case err := <-r.first:
		var le *LinkError
		if !errors.As(err, &le) {
			t.Fatalf("failure %v is not a *LinkError", err)
		}
		if le.From != from || le.To != to {
			t.Fatalf("failure names link %d→%d, want %d→%d: %v", le.From, le.To, from, to, err)
		}
		return le
	case <-time.After(5 * time.Second):
		t.Fatal("SetOnFail never fired")
		return nil
	}
}

// newTCPPair builds a 2-process loopback mesh whose process 1 delivers into
// the returned collector.
func newTCPPair(t *testing.T) (*TCP, *collector, *failRecorder) {
	t.Helper()
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	return tr, col, newFailRecorder(tr)
}

// TestTCPSocketDeathFailsLink kills the socket under a link without
// sending on it: the peer's reader sees the stream end and fails the link
// 0→1 it was reading, once.
func TestTCPSocketDeathFailsLink(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, col, rec := newTCPPair(t)
	tr.Send(0, 1, KindData, []byte("before"))
	col.waitFor(t, 1)

	killLink(tr, 0, 1)
	rec.waitLink(t, 0, 1)
	tr.Close()
	if n := rec.calls.Load(); n != 1 {
		t.Fatalf("SetOnFail fired %d times, want once", n)
	}
	if got := tr.Stats().TotalDrops(); got != 0 {
		t.Fatalf("TotalDrops = %d with nothing sent on the dead link", got)
	}
}

// TestTCPNoReconnectByDefault pins that NewTCPLoopback never repairs a
// link: after its socket dies the link stays broken on the same closed
// socket, and every later send is dropped rather than queued for a redial.
func TestTCPNoReconnectByDefault(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, col, rec := newTCPPair(t)
	defer tr.Close()
	tr.Send(0, 1, KindData, []byte("before"))
	col.waitFor(t, 1)

	l := tr.conns[0][1]
	l.mu.Lock()
	dead := l.c
	l.mu.Unlock()
	killLink(tr, 0, 1)
	tr.Send(0, 1, KindData, []byte("lost")) // must not panic or block
	rec.waitLink(t, 0, 1)
	for i := 0; i < 3; i++ {
		tr.Send(0, 1, KindData, []byte("lost"))
	}

	l.mu.Lock()
	broken, c := l.broken, l.c
	l.mu.Unlock()
	if !broken || c != dead {
		t.Fatalf("link 0→1 broken=%v, socket replaced=%v: the dead link was repaired", broken, c != dead)
	}
	if got := tr.Stats().Drops(KindData); got != 4 {
		t.Fatalf("data drops = %d, want 4: frames on a dead link must be dropped, not queued", got)
	}
	col.mu.Lock()
	n := len(col.frames)
	col.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d frames delivered, want only the one sent before the link died", n)
	}
}

// TestTCPCorruptHeaderFailsLink writes raw headers onto a link's socket
// that the reader must refuse rather than misparse: an unknown kind, a
// length past MaxFrameSize, and a source that is not the link's peer.
func TestTCPCorruptHeaderFailsLink(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	cases := []struct {
		name      string
		kind, src uint32
		size      uint32
		want      string
	}{
		{"unknown kind", 200, 0, 4, "unknown frame kind"},
		{"oversized", uint32(KindData), 0, MaxFrameSize + 1, "exceeds limit"},
		{"foreign source", uint32(KindData), 1, 4, "names source 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, col, rec := newTCPPair(t)
			defer tr.Close()
			var hdr [FrameOverhead]byte
			hdr[0] = byte(tc.kind)
			binary.LittleEndian.PutUint32(hdr[1:5], tc.src)
			binary.LittleEndian.PutUint32(hdr[5:9], tc.size)
			l := tr.conns[0][1]
			l.mu.Lock()
			_, err := l.c.Write(hdr[:])
			l.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			le := rec.waitLink(t, 0, 1)
			if !strings.Contains(le.Error(), tc.want) {
				t.Fatalf("failure %q does not say %q", le, tc.want)
			}
			col.mu.Lock()
			n := len(col.frames)
			col.mu.Unlock()
			if n != 0 {
				t.Fatalf("corrupt stream delivered %d frames", n)
			}
		})
	}
}

// TestTCPSendNeverBlocksOnBrokenLink pins the Transport contract that Send
// never blocks indefinitely: on a link whose socket is gone every send
// returns at once, counted as a drop.
func TestTCPSendNeverBlocksOnBrokenLink(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, _, rec := newTCPPair(t)
	defer tr.Close()

	killLink(tr, 0, 1)
	start := time.Now()
	for _, p := range []string{"a", "b", "c"} {
		tr.Send(0, 1, KindData, []byte(p))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Send blocked %v on a broken link", elapsed)
	}
	if got := tr.Stats().Drops(KindData); got != 3 {
		t.Fatalf("data drops = %d, want 3", got)
	}
	rec.waitLink(t, 0, 1)
}
