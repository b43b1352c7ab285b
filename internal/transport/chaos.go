package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos wraps another Transport and injects configurable, seeded-
// deterministic faults on every inter-process link: latency and jitter,
// slow-link stragglers (§3.5), bandwidth throttling, network partitions
// that heal, lost barrier markers, and process crashes at a chosen frame
// count. A frame it accepts and then loses is a reported failure, as on
// TCP: a crash reports a *CrashError, a lost marker a *LinkError. All fault
// decisions are drawn from per-link PRNGs derived from ChaosConfig.Seed,
// so a fault schedule is reproducible from its seed.
//
// Per-link FIFO order — the delivery discipline the progress protocol's
// safety proof depends on (§3.3) — is preserved through every fault except
// the deliberate ReorderProb violation, which exists so tests can attack
// the protocol's assumptions and verify the safety monitor catches the
// breach. Same-process sends bypass fault injection entirely, matching the
// runtime's shared-memory fast path.
type Chaos struct {
	inner  Transport
	cfg    ChaosConfig
	n      int
	links  [][]*chaosLink // [from][to], nil on diagonal
	group  []int          // partition group per process, -1 when ungrouped
	dead   []atomic.Bool
	frames []atomic.Int64 // frames sent or received per process
	crash  []int64        // crash threshold per process, 0 = never

	failMu  sync.Mutex
	onFail  func(error)
	pending []error     // failures before SetOnFail, handed to it
	lost    atomic.Bool // a marker loss has been reported

	start  time.Time
	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Link names one directed process pair.
type Link struct {
	From, To int
}

// Fault configures the faults injected on one link.
type Fault struct {
	// Latency delays every frame by this base amount.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// BytesPerSecond throttles the link's bandwidth; 0 means unlimited.
	// Frame transmission occupies the link for payload/BytesPerSecond.
	BytesPerSecond int64
	// ReorderProb deliberately violates per-link FIFO: with this
	// probability a frame is enqueued ahead of the previously queued
	// frame. Only for negative tests of the progress protocol's safety
	// assumptions; real networks with TCP framing never do this.
	ReorderProb float64
	// DropControlProb loses KindControl frames (barrier markers) with this
	// probability and reports the first loss through SetOnFail as a
	// *LinkError, the way TCP reports a dead link: the computation fails
	// and restarts from its last complete cut, which is never torn.
	DropControlProb float64
	// DupControlProb enqueues KindControl frames twice with this
	// probability — a duplicate barrier marker must poison the cut, never
	// produce a torn snapshot.
	DupControlProb float64
	// ReorderControlProb lets a KindControl frame jump ahead of the
	// previously queued frame with this probability, without disturbing
	// the relative order of data frames. A marker overtaking the records
	// it counted (or lagging behind later ones) must be detected by the
	// receiver's channel counters and poison the cut, never tear it.
	ReorderControlProb float64
}

// Partition disconnects process groups for a window of wall-clock time:
// frames crossing a group boundary sent (or still queued) during
// [Start, Start+Duration) after the transport's creation are held and
// released, in order, when the partition heals. Nothing is dropped — a
// partition stalls the protocol, it does not lose frames.
type Partition struct {
	// Groups lists the mutually disconnected sides. Processes not listed
	// in any group communicate freely with everyone.
	Groups [][]int
	// Start is when the partition begins, measured from NewChaos.
	Start time.Duration
	// Duration is how long the partition lasts before healing.
	Duration time.Duration
}

// ChaosConfig parameterizes a Chaos transport.
type ChaosConfig struct {
	// Seed drives every per-link PRNG. Schedules are deterministic given
	// the seed and the per-link frame order.
	Seed int64
	// Default is the fault applied to links with no per-link override.
	Default Fault
	// Links overrides faults per directed link — how stragglers are
	// modeled: give one link (or all links of one process) a much larger
	// Latency or smaller BytesPerSecond than the rest (§3.5).
	Links map[Link]Fault
	// CrashAfterFrames kills a process after it has sent plus received
	// the given number of chaos-routed frames: all of its subsequent and
	// queued traffic is dropped and the SetOnFail callback fires once.
	// Zero means never.
	CrashAfterFrames map[int]int64
	// Partition, when non-nil, schedules one partition/heal cycle.
	Partition *Partition
}

type chaosFrame struct {
	from, to int
	kind     Kind
	payload  []byte
	at       time.Time // earliest delivery instant
}

// chaosLink is one directed link's delay queue: a single delivery
// goroutine pops frames in queue order and forwards them to the inner
// transport, so queue order is delivery order.
type chaosLink struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []chaosFrame
	rng       *rand.Rand
	fault     Fault
	lastAt    time.Time // monotone delivery horizon (FIFO)
	busyUntil time.Time // bandwidth-throttle virtual clock
	closed    bool
}

// NewChaos wraps inner with fault injection. The inner transport is owned
// by the wrapper: Close closes it.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	n := inner.Processes()
	c := &Chaos{
		inner:  inner,
		cfg:    cfg,
		n:      n,
		group:  make([]int, n),
		dead:   make([]atomic.Bool, n),
		frames: make([]atomic.Int64, n),
		crash:  make([]int64, n),
		start:  time.Now(),
		stop:   make(chan struct{}),
	}
	for p := range c.group {
		c.group[p] = -1
	}
	if cfg.Partition != nil {
		for g, procs := range cfg.Partition.Groups {
			for _, p := range procs {
				c.group[p] = g
			}
		}
	}
	for p, limit := range cfg.CrashAfterFrames {
		c.crash[p] = limit
	}
	c.links = make([][]*chaosLink, n)
	for from := range c.links {
		c.links[from] = make([]*chaosLink, n)
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			f := cfg.Default
			if o, ok := cfg.Links[Link{From: from, To: to}]; ok {
				f = o
			}
			l := &chaosLink{
				fault: f,
				rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(from*2654435761+to+1))),
			}
			l.cond = sync.NewCond(&l.mu)
			c.links[from][to] = l
			c.wg.Add(1)
			go c.deliverLoop(l)
		}
	}
	return c
}

// CrashError reports a process killed by fault injection.
type CrashError struct{ Proc int }

func (e *CrashError) Error() string {
	return fmt.Sprintf("transport: process %d crashed (chaos fault injection)", e.Proc)
}

// SetOnFail installs the callback fired with a *CrashError (once per
// process, from its own goroutine) when a process crashes, and with a
// *LinkError (once per transport, from the sender) when a marker is lost.
// The runtime uses it to abort the computation instead of hanging on lost
// frames. Failures that happened before SetOnFail are reported to f at once.
func (c *Chaos) SetOnFail(f func(error)) {
	c.failMu.Lock()
	c.onFail = f
	pending := c.pending
	c.pending = nil
	c.failMu.Unlock()
	for _, err := range pending {
		f(err)
	}
}

// failure returns the callback to report err to, or keeps err for the
// callback SetOnFail installs later.
func (c *Chaos) failure(err error) func(error) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.onFail == nil {
		c.pending = append(c.pending, err)
	}
	return c.onFail
}

// Processes returns the process count.
func (c *Chaos) Processes() int { return c.n }

// SetHandler installs the frame consumer on the inner transport.
func (c *Chaos) SetHandler(proc int, h Handler) { c.inner.SetHandler(proc, h) }

// Stats returns the inner transport's counters. Frames dropped by a crash
// are never counted, a lost marker is counted as a drop, and delayed frames
// are counted at actual delivery.
func (c *Chaos) Stats() *Stats { return c.inner.Stats() }

// Alive reports whether the process has not crashed.
func (c *Chaos) Alive(proc int) bool { return !c.dead[proc].Load() }

// Crash kills a process immediately (in addition to any CrashAfterFrames
// schedule): its queued and future traffic is dropped and the SetOnFail
// callback fires.
func (c *Chaos) Crash(proc int) { c.kill(proc) }

func (c *Chaos) kill(proc int) {
	if c.dead[proc].Swap(true) {
		return
	}
	err := &CrashError{Proc: proc}
	if f := c.failure(err); f != nil {
		go f(err)
	}
}

// countFrame charges one frame against a process's crash budget and
// reports whether the process is (now) dead.
func (c *Chaos) countFrame(proc int) bool {
	n := c.frames[proc].Add(1)
	if limit := c.crash[proc]; limit > 0 && n >= limit {
		c.kill(proc)
	}
	return c.dead[proc].Load()
}

// partitioned reports whether a frame on the link is blocked at instant
// now, and when the partition heals.
func (c *Chaos) partitioned(from, to int, now time.Time) (bool, time.Time) {
	p := c.cfg.Partition
	if p == nil {
		return false, time.Time{}
	}
	gf, gt := c.group[from], c.group[to]
	if gf < 0 || gt < 0 || gf == gt {
		return false, time.Time{}
	}
	begin := c.start.Add(p.Start)
	heal := begin.Add(p.Duration)
	if now.Before(begin) || !now.Before(heal) {
		return false, time.Time{}
	}
	return true, heal
}

// Send injects faults and enqueues the frame for delayed delivery.
// Same-process sends pass straight through; sends touching a crashed
// process are dropped, that crash already reported. Send never blocks on
// receiver progress.
func (c *Chaos) Send(from, to int, kind Kind, payload []byte) {
	if c.closed.Load() {
		return
	}
	if from == to {
		c.inner.Send(from, to, kind, payload)
		return
	}
	deadFrom := c.countFrame(from)
	deadTo := c.countFrame(to)
	if deadFrom || deadTo {
		return
	}
	// Copy the payload: delivery is delayed, so the wrapper must own its
	// bytes — the same no-sharing discipline Mem imposes at send time.
	payload = append([]byte(nil), payload...)
	l := c.links[from][to]
	now := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	dup := false
	if kind == KindControl {
		if p := l.fault.DropControlProb; p > 0 && l.rng.Float64() < p {
			l.mu.Unlock()
			c.loseMarker(from, to)
			return
		}
		if p := l.fault.DupControlProb; p > 0 && l.rng.Float64() < p {
			dup = true
		}
	}
	delay := l.fault.Latency
	if l.fault.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(l.fault.Jitter)))
	}
	at := now.Add(delay)
	if bps := l.fault.BytesPerSecond; bps > 0 {
		if l.busyUntil.Before(now) {
			l.busyUntil = now
		}
		l.busyUntil = l.busyUntil.Add(time.Duration(int64(len(payload)+FrameOverhead) * int64(time.Second) / bps))
		if l.busyUntil.After(at) {
			at = l.busyUntil
		}
	}
	if blocked, heal := c.partitioned(from, to, now); blocked && heal.After(at) {
		at = heal
	}
	if at.After(l.lastAt) {
		l.lastAt = at
	} else {
		at = l.lastAt // FIFO: never deliver before an earlier frame
	}
	f := chaosFrame{from: from, to: to, kind: kind, payload: payload, at: at}
	reorder := l.fault.ReorderProb
	if kind == KindControl && l.fault.ReorderControlProb > 0 {
		reorder = l.fault.ReorderControlProb
	}
	if reorder > 0 && len(l.queue) > 0 && l.rng.Float64() < reorder {
		// Deliberate FIFO violation: jump ahead of the queue tail.
		l.queue = append(l.queue, chaosFrame{})
		copy(l.queue[len(l.queue)-1:], l.queue[len(l.queue)-2:])
		l.queue[len(l.queue)-2] = f
	} else {
		l.queue = append(l.queue, f)
	}
	if dup {
		d := f
		d.payload = append([]byte(nil), f.payload...)
		l.queue = append(l.queue, d)
	}
	l.mu.Unlock()
	l.cond.Signal()
}

// loseMarker reports a marker lost on the link from→to, at most once per
// transport: the first loss already fails the computation.
func (c *Chaos) loseMarker(from, to int) {
	c.inner.Stats().CountDrops(KindControl, 1)
	if c.lost.Swap(true) {
		return
	}
	err := &LinkError{From: from, To: to, Err: errMarkerLost}
	if f := c.failure(err); f != nil {
		f(err)
	}
}

var errMarkerLost = errors.New("barrier marker lost (chaos fault injection)")

// deliverLoop forwards one link's frames in queue order, sleeping until
// each frame's delivery instant.
func (c *Chaos) deliverLoop(l *chaosLink) {
	defer c.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		f := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		if d := time.Until(f.at); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-c.stop:
				t.Stop()
				return
			}
		}
		// A partition that began after the frame was scheduled still holds
		// it: recheck at delivery time, so the window is airtight. Later
		// frames on this link queue behind it, preserving FIFO.
		if blocked, heal := c.partitioned(f.from, f.to, time.Now()); blocked {
			t := time.NewTimer(time.Until(heal))
			select {
			case <-t.C:
			case <-c.stop:
				t.Stop()
				return
			}
		}
		if c.dead[f.from].Load() || c.dead[f.to].Load() {
			continue // lost with the crashed process
		}
		c.inner.Send(f.from, f.to, f.kind, f.payload)
	}
}

// Close stops all delivery goroutines (dropping undelivered frames) and
// closes the inner transport. In a drained computation the queues are
// empty; after a crash or abort, dropping is the point.
func (c *Chaos) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	for _, row := range c.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			l.mu.Lock()
			l.closed = true
			l.mu.Unlock()
			l.cond.Broadcast()
		}
	}
	c.wg.Wait()
	c.inner.Close()
}
