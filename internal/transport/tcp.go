package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
)

// dialTimeout bounds each connection attempt and the handshake that
// follows it while the mesh is built.
const dialTimeout = 5 * time.Second

// TCP is a transport over real stdlib TCP sockets. Every ordered pair of
// processes communicates over the connection dialed by the lower-indexed
// endpoint; frames are length-prefixed and writes are serialized per
// directed link, so per-link FIFO order holds. Naiad disables Nagle's
// algorithm to avoid small-message delays (§3.5); Go's net.TCPConn does so
// by default (TCP_NODELAY on), which we keep.
//
// Links are never repaired. The progress protocol and the barrier
// snapshots assume reliable FIFO channels, so a frame the transport
// accepted but cannot deliver, or a stream it cannot parse, is a failure
// of the whole computation: it is reported once, as a *LinkError, to the
// callback installed with SetOnFail, and recovery is a restart from the
// last checkpoint (§3.4).
type TCP struct {
	n        int
	handlers []Handler
	conns    [][]*tcpLink // [owner][peer], nil on diagonal

	failMu  sync.Mutex
	onFail  func(error)
	failErr error // the first link failure, reported once

	stats  Stats
	closed atomic.Bool
	wg     sync.WaitGroup
}

// tcpLink is one directed link's write endpoint. Its mutex serializes
// writes, so frames leave in Send order.
type tcpLink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      net.Conn
	broken bool
}

// LinkError is a link failure: the directed link From→To lost a frame (a
// TCP write failed, or Chaos lost a marker) or its TCP stream broke (a
// short read or a corrupt header).
type LinkError struct {
	From, To int
	Err      error
}

func (e *LinkError) Error() string {
	return fmt.Sprintf("transport: link %d→%d failed: %v", e.From, e.To, e.Err)
}

func (e *LinkError) Unwrap() error { return e.Err }

// MaxFrameSize caps the payload length the TCP framing accepts. A frame
// header claiming more is treated as corruption: without the cap a single
// flipped length byte would make the reader allocate gigabytes and then
// misparse the rest of the stream.
const MaxFrameSize = 64 << 20

// ParseFrameHeader validates and decodes a FrameOverhead-byte frame header
// into (kind, source process, payload size). It rejects short headers,
// unknown kinds, and sizes beyond MaxFrameSize, so callers never allocate
// from an unvalidated length field.
func ParseFrameHeader(hdr []byte) (Kind, int, int, error) {
	if len(hdr) < FrameOverhead {
		return 0, 0, 0, fmt.Errorf("transport: short frame header: %d bytes", len(hdr))
	}
	kind := Kind(hdr[0])
	if kind >= numKinds {
		return 0, 0, 0, fmt.Errorf("transport: unknown frame kind %d", hdr[0])
	}
	src := int(binary.LittleEndian.Uint32(hdr[1:5]))
	size := int(binary.LittleEndian.Uint32(hdr[5:9]))
	if size > MaxFrameSize {
		return 0, 0, 0, fmt.Errorf("transport: frame size %d exceeds limit %d", size, MaxFrameSize)
	}
	return kind, src, size, nil
}

// NewTCPLoopback constructs a transport for n processes all inside this OS
// process, connected through real loopback TCP sockets. It exists to
// exercise genuine socket behaviour (kernel buffering, framing, partial
// reads) in tests and benchmarks; every process lives in this OS process,
// so one Close tears the whole mesh down.
func NewTCPLoopback(n int) (*TCP, error) {
	t := &TCP{n: n, handlers: make([]Handler, n)}
	t.conns = make([][]*tcpLink, n)
	for i := range t.conns {
		t.conns[i] = make([]*tcpLink, n)
		for j := 0; j < n; j++ {
			if i != j {
				t.conns[i][j] = &tcpLink{}
			}
		}
	}
	if err := t.connect(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// connect builds the mesh once: process i dials every j > i and both
// directions share the socket (i writes on its end; j's listener accepts
// the other end and learns i from a 4-byte handshake). Each listener
// accepts exactly its expected peers and then closes.
func (t *TCP) connect() error {
	listeners := make([]net.Listener, t.n)
	defer func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	}()
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("transport: listen: %w", err)
		}
		listeners[i] = l
	}
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			c, err := net.DialTimeout("tcp", listeners[j].Addr().String(), dialTimeout)
			if err != nil {
				return fmt.Errorf("transport: dial: %w", err)
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(i))
			if _, err := c.Write(hdr[:]); err != nil { // fits the fresh socket's buffer
				c.Close()
				return fmt.Errorf("transport: handshake: %w", err)
			}
			t.install(i, j, c)
		}
	}
	// The dials above completed in the kernel's accept backlog; process j
	// now admits its j lower-indexed peers.
	deadline := time.Now().Add(dialTimeout)
	for j := 1; j < t.n; j++ {
		listeners[j].(*net.TCPListener).SetDeadline(deadline)
		for k := 0; k < j; k++ {
			c, err := listeners[j].Accept()
			if err != nil {
				return fmt.Errorf("transport: accept: %w", err)
			}
			var hdr [4]byte
			c.SetReadDeadline(deadline)
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				c.Close()
				return fmt.Errorf("transport: handshake: %w", err)
			}
			c.SetReadDeadline(time.Time{})
			peer := int(binary.LittleEndian.Uint32(hdr[:]))
			if peer < 0 || peer >= j || t.conns[j][peer].c != nil {
				c.Close()
				return fmt.Errorf("transport: process %d got a handshake from unexpected peer %d", j, peer)
			}
			t.install(j, peer, c)
		}
	}
	return nil
}

// install binds a socket to the owner's link to peer and starts the
// owner-side reader. It runs only while the mesh is built, before any Send.
func (t *TCP) install(owner, peer int, c net.Conn) {
	l := t.conns[owner][peer]
	l.c = c
	l.w = bufio.NewWriter(c)
	t.wg.Add(1)
	go t.readLoop(owner, peer, c)
}

// Processes returns the process count.
func (t *TCP) Processes() int { return t.n }

// SetHandler installs the consumer for proc. Reader goroutines dispatch
// through t.handlers at delivery time, so installation order does not
// matter; frames arriving before installation are dropped.
func (t *TCP) SetHandler(proc int, h Handler) {
	if t.handlers[proc] != nil {
		panic("transport: handler already set")
	}
	t.handlers[proc] = h
}

// SetOnFail installs the callback told of the first link failure, at once
// if that failure has already happened. It fires at most once per
// transport, and never for a socket Close tears down: Close marks the
// transport closed before it closes any socket.
func (t *TCP) SetOnFail(f func(error)) {
	t.failMu.Lock()
	t.onFail = f
	err := t.failErr
	t.failMu.Unlock()
	if err != nil {
		f(err)
	}
}

// fail reports the link from→to as failed.
func (t *TCP) fail(from, to int, err error) {
	if t.closed.Load() {
		return
	}
	t.failMu.Lock()
	if t.failErr != nil {
		t.failMu.Unlock()
		return
	}
	le := &LinkError{From: from, To: to, Err: err}
	t.failErr = le
	f := t.onFail
	t.failMu.Unlock()
	if f != nil {
		f(le)
	}
}

// readLoop delivers the frames proc receives from peer over c. A stream
// that ends or cannot be parsed fails the link. A socket this side closed
// itself is not reported here: either Close did it, or a failed write,
// which has reported already.
func (t *TCP) readLoop(proc, peer int, c net.Conn) {
	defer t.wg.Done()
	r := bufio.NewReader(c)
	for {
		var hdr [FrameOverhead]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				t.fail(peer, proc, err)
			}
			return
		}
		kind, src, size, err := ParseFrameHeader(hdr[:])
		if err == nil && src != peer {
			err = fmt.Errorf("transport: frame names source %d", src)
		}
		if err != nil {
			t.fail(peer, proc, err)
			return
		}
		// Frames come from the pooled receive arena; the final consumer
		// recycles them (or leaks them to GC, which is also safe).
		payload := batchbuf.GetBytes(size)
		if _, err := io.ReadFull(r, payload); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				t.fail(peer, proc, err)
			}
			return
		}
		if h := t.handlers[proc]; h != nil {
			h(src, kind, payload)
		}
	}
}

// errLinkBroken is the cause reported for a Send on a link whose socket
// an earlier write already lost.
var errLinkBroken = errors.New("link broken by an earlier write error")

// Send frames and writes the payload on the directed link. A frame that
// cannot be written is counted as a drop and fails the link; the link
// stays broken. Same-process sends dispatch directly to the handler.
func (t *TCP) Send(from, to int, kind Kind, payload []byte) {
	if t.closed.Load() {
		return
	}
	if from == to {
		cp := batchbuf.GetBytes(len(payload))
		copy(cp, payload)
		if h := t.handlers[to]; h != nil {
			h(from, kind, cp)
		}
		return
	}
	l := t.conns[from][to]
	l.mu.Lock()
	err := errLinkBroken
	if !l.broken {
		err = writeFrameLocked(l, frameHeader(from, kind, payload), payload)
	}
	if err == nil {
		t.stats.Count(kind, len(payload))
	}
	l.mu.Unlock()
	if err != nil {
		t.stats.CountDrops(kind, 1)
		t.fail(from, to, err)
	}
}

// frameHeader builds the wire header for one frame.
func frameHeader(from int, kind Kind, payload []byte) []byte {
	var hdr [FrameOverhead]byte
	hdr[0] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(from))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	return hdr[:]
}

// writeFrameLocked writes one frame, marking the link broken (and closing
// its socket) on failure. Callers hold l.mu.
func writeFrameLocked(l *tcpLink, hdr, payload []byte) error {
	_, err := l.w.Write(hdr)
	if err == nil {
		_, err = l.w.Write(payload)
	}
	if err == nil {
		err = l.w.Flush()
	}
	if err != nil {
		l.broken = true
		l.c.Close()
	}
	return err
}

// Stats returns the traffic counters.
func (t *TCP) Stats() *Stats { return &t.stats }

// Close shuts down all sockets and waits for the reader goroutines.
func (t *TCP) Close() {
	if t.closed.Swap(true) {
		return
	}
	for i := range t.conns {
		for _, l := range t.conns[i] {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if l.c != nil {
				l.c.Close()
			}
			l.broken = true
			l.mu.Unlock()
		}
	}
	t.wg.Wait()
}
