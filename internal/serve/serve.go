// Package serve is the multi-tenant serving front door: a stdlib-net/http
// ingress/egress layer through which many concurrent tenants stream records
// into shared dataflows and read probe/output state at a consistent
// frontier (the "high-throughput updates + low-latency interactive
// results" goal of Naiad §1, §6, made network-facing).
//
// The robustness core is end-to-end flow control. Every admitted record
// holds one credit from a bounded global pool and one from its tenant's
// pool; credits return only when the record's epoch completes at the
// flow's probe. A dataflow that falls behind therefore starves the door of
// credits, ingest requests delay (bounded) and then shed with typed
// retry-after rejections, and well-behaved clients back off — the worker
// is never the place where unbounded producer memory accumulates.
//
// Overload is explicit, not silent: a degradation controller samples the
// oldest unacknowledged epoch's age (and the runtime's frontier-lag gauges
// when a tracer is attached) and walks a ladder of modes — accept-and-
// delay, shed-new-tenants, shed-all — that the admission path consults on
// every request. See docs/serving.md for the protocol and the tuning
// knobs.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"naiad/internal/runtime"
	"naiad/internal/trace"
)

// Config sizes and parameterizes a Server. The zero value is unusable; use
// DefaultConfig and override.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" by default: loopback,
	// kernel-assigned port).
	Addr string

	// GlobalCredits bounds records admitted but not yet completed by their
	// flow's probe, across all tenants — the server's total admission
	// queue, and therefore its ingest memory bound.
	GlobalCredits int
	// TenantCredits bounds one tenant's share of GlobalCredits: a flooding
	// tenant exhausts its own pool and sheds while others keep flowing.
	TenantCredits int
	// MaxSessions caps concurrently open sessions; MaxSessionsPerTenant
	// caps one tenant's share.
	MaxSessions          int
	MaxSessionsPerTenant int
	// MaxBatchRecords caps records per ingest request; MaxBodyBytes caps
	// the request body read.
	MaxBatchRecords int
	MaxBodyBytes    int64

	// EpochInterval is the edge batching cadence: the longest an open
	// epoch with records dwells when no read is waiting on it (one that a
	// read is parked on seals as soon as its predecessor completes).
	// EpochMaxRecords seals it early.
	EpochInterval   time.Duration
	EpochMaxRecords int

	// AdmitWait bounds how long an ingest request may hold in admission
	// waiting for credits before it is shed (the accept-and-delay budget).
	AdmitWait time.Duration
	// RequestTimeout bounds a read request's frontier wait.
	RequestTimeout time.Duration
	// SessionIdleTimeout reaps sessions with no traffic for this long.
	SessionIdleTimeout time.Duration

	// DelayLag, ShedNewLag, and ShedAllLag are the degradation ladder's
	// escalation thresholds on the backlog signal (age of the oldest
	// sealed-but-incomplete epoch, or the tracer's worst frontier lag,
	// whichever is older). De-escalation requires the signal to fall below
	// half the threshold for DegradeHold consecutive samples.
	DelayLag   time.Duration
	ShedNewLag time.Duration
	ShedAllLag time.Duration
	// DegradeInterval is the controller's sampling period; DegradeHold the
	// consecutive calm samples required to step down.
	DegradeInterval time.Duration
	DegradeHold     int

	// RetryAfterBase seeds the retry-after hint on rejections; the hint
	// scales with ladder depth and carries ±25% jitter.
	RetryAfterBase time.Duration

	// Tracer, when non-nil, contributes the runtime's frontier-lag gauges
	// to the degradation signal.
	Tracer *trace.Tracer
	// Seed drives the retry-after jitter PRNG (default 1).
	Seed int64
}

// DefaultConfig returns a serving configuration with conservative bounds:
// a few thousand records in flight, 5ms edge epochs, and a ladder that
// starts delaying at 100ms of backlog.
func DefaultConfig() Config {
	return Config{
		Addr:                 "127.0.0.1:0",
		GlobalCredits:        1 << 14,
		TenantCredits:        1 << 12,
		MaxSessions:          1024,
		MaxSessionsPerTenant: 64,
		MaxBatchRecords:      4096,
		MaxBodyBytes:         4 << 20,
		EpochInterval:        5 * time.Millisecond,
		EpochMaxRecords:      1 << 13,
		AdmitWait:            250 * time.Millisecond,
		RequestTimeout:       30 * time.Second,
		SessionIdleTimeout:   2 * time.Minute,
		DelayLag:             100 * time.Millisecond,
		ShedNewLag:           500 * time.Millisecond,
		ShedAllLag:           2 * time.Second,
		DegradeInterval:      20 * time.Millisecond,
		DegradeHold:          5,
		RetryAfterBase:       50 * time.Millisecond,
		Seed:                 1,
	}
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	d := DefaultConfig()
	if c.GlobalCredits <= 0 {
		c.GlobalCredits = d.GlobalCredits
	}
	if c.TenantCredits <= 0 || c.TenantCredits > c.GlobalCredits {
		c.TenantCredits = min(d.TenantCredits, c.GlobalCredits)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = d.MaxSessions
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = d.MaxSessionsPerTenant
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = d.MaxBatchRecords
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = d.EpochInterval
	}
	if c.EpochMaxRecords <= 0 {
		c.EpochMaxRecords = d.EpochMaxRecords
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = d.AdmitWait
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = d.SessionIdleTimeout
	}
	if c.DelayLag <= 0 {
		c.DelayLag = d.DelayLag
	}
	if c.ShedNewLag <= c.DelayLag {
		c.ShedNewLag = max(d.ShedNewLag, 2*c.DelayLag)
	}
	if c.ShedAllLag <= c.ShedNewLag {
		c.ShedAllLag = max(d.ShedAllLag, 2*c.ShedNewLag)
	}
	if c.DegradeInterval <= 0 {
		c.DegradeInterval = d.DegradeInterval
	}
	if c.DegradeHold <= 0 {
		c.DegradeHold = d.DegradeHold
	}
	if c.RetryAfterBase <= 0 {
		c.RetryAfterBase = d.RetryAfterBase
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// View is a flow's queryable output state: a key's current value and the
// epoch through which that value is complete. Implementations must be safe
// for concurrent use; Table is the built-in one.
type View interface {
	Lookup(key string) (value []byte, epoch int64, ok bool)
}

// Flow registers one dataflow input behind the front door. The server
// becomes the input's single producer: epochs are batched at the edge
// across all tenants, and the server closes the input at Shutdown.
type Flow struct {
	// Name routes requests ("/v1/flows/{name}/...").
	Name string
	// Input is the shared dataflow input the edge batcher feeds.
	Input *runtime.Input
	// Probe observes epoch completion downstream; its advancement is what
	// releases admission credits (the end-to-end backpressure edge).
	Probe *runtime.Probe
	// Decode turns one wire record (one NDJSON line) into a dataflow
	// message. Nil passes the raw bytes through as a string record.
	Decode func([]byte) (runtime.Message, error)
	// View, when non-nil, serves frontier-stamped reads.
	View View
}

// Server is the front door: an HTTP listener multiplexing tenant sessions
// onto registered flows.
type Server struct {
	cfg     Config
	metrics Metrics

	mu       sync.Mutex
	flows    map[string]*flowState
	sessions *sessionTable
	global   *creditPool
	tenants  map[string]*tenantState
	degrade  *degrader
	http     *http.Server
	ln       net.Listener
	started  bool
	stopped  bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	name     string
	pool     *creditPool
	sessions int
}

// NewServer builds an unstarted server.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		flows:   make(map[string]*flowState),
		tenants: make(map[string]*tenantState),
		global:  newCreditPool(cfg.GlobalCredits),
		done:    make(chan struct{}),
	}
	s.sessions = newSessionTable(&s.metrics)
	s.degrade = newDegrader(s, cfg)
	return s
}

// Register adds a flow. All flows must be registered before Start, and
// their computation must already be started (runtime.Input panics on use
// before Start).
func (s *Server) Register(f Flow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("serve: Register after Start")
	}
	if f.Name == "" || f.Input == nil || f.Probe == nil {
		return errors.New("serve: flow needs a name, an input, and a probe")
	}
	if _, dup := s.flows[f.Name]; dup {
		return fmt.Errorf("serve: duplicate flow %q", f.Name)
	}
	s.flows[f.Name] = newFlowState(s, f)
	return nil
}

// Start binds the listener and launches the edge batchers, ack releasers,
// degradation controller, session reaper, and HTTP serving goroutine.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("serve: already started")
	}
	if len(s.flows) == 0 {
		return errors.New("serve: no flows registered")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	s.started = true
	s.http = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	for _, f := range s.flows {
		f.start()
	}
	s.wg.Add(3)
	go s.degrade.run(s.done, &s.wg)
	go s.sessions.reap(s.done, &s.wg, s.cfg.SessionIdleTimeout)
	go func() {
		defer s.wg.Done()
		// Serve returns ErrServerClosed on Shutdown; any other error means
		// the listener died under us, which Shutdown will surface.
		_ = s.http.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Metrics returns the server's counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Mode returns the current degradation mode.
func (s *Server) Mode() Mode { return s.degrade.mode() }

// Shutdown wakes parked reads (they answer 503 closing, so a read waiting
// on an epoch that will never complete cannot hold the HTTP drain for its
// whole timeout), stops accepting traffic, stops the background
// goroutines, seals and closes every flow's input (the server is the
// single producer), and waits for the ack releasers to drain. The owning
// computation can then Join.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	srv := s.http
	s.mu.Unlock()
	close(s.done)
	err := srv.Shutdown(ctx)
	for _, f := range s.snapshotFlows() {
		f.stop()
	}
	s.wg.Wait()
	return err
}

// snapshotFlows copies the flow list under the lock.
func (s *Server) snapshotFlows() []*flowState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*flowState, 0, len(s.flows))
	for _, f := range s.flows {
		out = append(out, f)
	}
	return out
}

// flow resolves a flow by name.
func (s *Server) flow(name string) *flowState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flows[name]
}

// tenant returns (creating on demand) a tenant's admission state.
// Creation is what the shed-new-tenants mode refuses: see admitSession.
func (s *Server) tenant(name string, create bool) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil && create {
		t = &tenantState{name: name, pool: newCreditPool(s.cfg.TenantCredits)}
		s.tenants[name] = t
		s.metrics.TenantsSeen.Add(1)
	}
	return t
}
