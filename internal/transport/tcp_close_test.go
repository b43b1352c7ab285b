package transport

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naiad/internal/testutil"
)

// TestTCPCloseDuringConcurrentSend closes the transport while senders on
// every link are mid-Send. Nothing may panic, Close must return (it waits
// for the reader goroutines), late Sends must be no-ops, no goroutine may
// leak, and the sockets Close tears down must not be reported as failures.
func TestTCPCloseDuringConcurrentSend(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, err := NewTCPLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := newFailRecorder(tr)
	var delivered atomic.Int64
	for i := 0; i < 3; i++ {
		tr.SetHandler(i, func(int, Kind, []byte) { delivered.Add(1) })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			wg.Add(1)
			go func(from, to int) {
				defer wg.Done()
				payload := make([]byte, 512)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tr.Send(from, to, KindData, payload)
				}
			}(from, to)
		}
	}
	// Let traffic flow, then yank the transport out from under the senders.
	deadline := time.After(2 * time.Second)
	for delivered.Load() < 100 {
		select {
		case <-deadline:
			t.Fatal("no traffic before close")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	tr.Close()
	close(stop)
	wg.Wait()
	tr.Send(0, 1, KindData, []byte("late")) // after Close: dropped, no panic
	tr.Close()                              // idempotent
	if n := rec.calls.Load(); n != 0 {
		t.Fatalf("Close fired SetOnFail %d times: %v", n, <-rec.first)
	}
}

// TestTCPLargeFramePartialRead pushes frames well past the kernel socket
// buffer, so the reader's io.ReadFull necessarily observes partial reads
// and must reassemble the payload across them.
func TestTCPLargeFramePartialRead(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	big := make([]byte, 4<<20) // 4 MiB: far beyond any default socket buffer
	for i := range big {
		big[i] = byte(i * 31)
	}
	tr.Send(0, 1, KindData, big)
	tr.Send(0, 1, KindProgress, []byte("after")) // framing must stay aligned
	frames := col.waitFor(t, 2)
	if !bytes.Equal(frames[0].payload, big) {
		t.Fatal("large payload corrupted across partial reads")
	}
	if frames[1].kind != KindProgress || string(frames[1].payload) != "after" {
		t.Fatalf("frame after the large one misparsed: %+v", frames[1])
	}
}

// TestTCPManySmallFramesBoundary floods one link with odd-sized frames so
// header/payload boundaries land at arbitrary offsets within kernel
// buffers; every frame must come out intact and in order.
func TestTCPManySmallFramesBoundary(t *testing.T) {
	defer testutil.CheckNoLeaks(t)()
	tr, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	col := newCollector()
	tr.SetHandler(0, func(int, Kind, []byte) {})
	tr.SetHandler(1, col.handler)
	const n = 2000
	for i := 0; i < n; i++ {
		payload := make([]byte, 4+i%257) // 257 is co-prime with buffer sizes
		binary.LittleEndian.PutUint32(payload, uint32(i))
		tr.Send(0, 1, KindData, payload)
	}
	frames := col.waitFor(t, n)
	for i, f := range frames[:n] {
		if got := binary.LittleEndian.Uint32(f.payload); got != uint32(i) {
			t.Fatalf("frame %d out of order or corrupt: index %d", i, got)
		}
		if want := 4 + i%257; len(f.payload) != want {
			t.Fatalf("frame %d length %d, want %d", i, len(f.payload), want)
		}
	}
}

func TestParseFrameHeader(t *testing.T) {
	var hdr [FrameOverhead]byte
	hdr[0] = byte(KindProgress)
	binary.LittleEndian.PutUint32(hdr[1:5], 7)
	binary.LittleEndian.PutUint32(hdr[5:9], 1234)
	kind, src, size, err := ParseFrameHeader(hdr[:])
	if err != nil || kind != KindProgress || src != 7 || size != 1234 {
		t.Fatalf("got %v %d %d %v", kind, src, size, err)
	}
	if _, _, _, err := ParseFrameHeader(hdr[:5]); err == nil {
		t.Fatal("short header accepted")
	}
	hdr[0] = 9
	if _, _, _, err := ParseFrameHeader(hdr[:]); err == nil {
		t.Fatal("unknown kind accepted")
	}
	hdr[0] = byte(KindData)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(MaxFrameSize+1))
	if _, _, _, err := ParseFrameHeader(hdr[:]); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzParseFrameHeader feeds arbitrary bytes to the header parser: it must
// either error or return a bounded, in-range result — never panic.
func FuzzParseFrameHeader(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 16, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, _, size, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if kind >= numKinds {
			t.Fatalf("accepted unknown kind %d", kind)
		}
		if size < 0 || size > MaxFrameSize {
			t.Fatalf("accepted out-of-range size %d", size)
		}
	})
}
