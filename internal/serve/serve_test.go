package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/testutil"
)

// env is a running front door over a tiny word-count dataflow: "k=v"
// records update a Table keyed by k. When gated, the Subscribe callback
// blocks until release() — the controllable "slow dataflow" every
// backpressure and degradation test needs, since a blocked subscriber
// stops the probe and therefore stops credits from returning. seen carries
// each epoch the subscriber is handed (before any gate), so a test can wait
// for "the edge sealed epoch e" as an event instead of sleeping.
type env struct {
	t     *testing.T
	scope *lib.Scope
	srv   *Server
	table *Table
	gate  chan struct{}
	seen  chan int64
	once  sync.Once
	stop  sync.Once
	// joinErr, when set, is the error Join must return (a test that aborts
	// the computation on purpose).
	joinErr error
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.EpochInterval = time.Millisecond
	cfg.AdmitWait = 50 * time.Millisecond
	cfg.DegradeInterval = 2 * time.Millisecond
	// Small retry-after hints: they floor the client's backoff, and tests
	// assume retried operations complete in a few milliseconds.
	cfg.RetryAfterBase = time.Millisecond
	return cfg
}

func startEnv(t *testing.T, cfg Config, gated bool) *env {
	t.Helper()
	// Registered before e.close below, so (LIFO) the leak check runs after
	// the server and computation have shut down.
	t.Cleanup(testutil.CheckNoLeaks(t))
	cfg.Seed = testutil.Seed(t)
	e := &env{t: t, table: NewTable(), seen: make(chan int64, 1024)}
	if gated {
		e.gate = make(chan struct{})
	}
	scope, err := lib.NewScope(runtime.Config{Processes: 1, WorkersPerProcess: 2})
	if err != nil {
		t.Fatalf("NewScope: %v", err)
	}
	e.scope = scope
	in, stream := lib.NewInput[string](scope, "events", nil)
	sub := lib.Subscribe(stream, func(epoch int64, recs []string) {
		select {
		case e.seen <- epoch:
		default: // nobody is draining: the test does not use it
		}
		if e.gate != nil {
			<-e.gate
		}
		entries := make(map[string][]byte)
		for _, r := range recs {
			if k, v, ok := strings.Cut(r, "="); ok {
				entries[k] = []byte(v)
			}
		}
		e.table.Update(epoch, entries)
	})
	probe := scope.C.NewProbe(sub)
	if err := scope.C.Start(); err != nil {
		t.Fatalf("Start computation: %v", err)
	}
	e.srv = NewServer(cfg)
	err = e.srv.Register(Flow{
		Name:  "wc",
		Input: in.Raw(),
		Probe: probe,
		Decode: func(b []byte) (runtime.Message, error) {
			s := string(b)
			if !strings.Contains(s, "=") {
				return nil, fmt.Errorf("record %q is not k=v", s)
			}
			return s, nil
		},
		View: e.table,
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.srv.Start(); err != nil {
		t.Fatalf("Start server: %v", err)
	}
	t.Cleanup(e.close)
	return e
}

// release unblocks the gated subscriber (idempotent).
func (e *env) release() {
	if e.gate != nil {
		e.once.Do(func() { close(e.gate) })
	}
}

func (e *env) close() {
	e.stop.Do(func() {
		e.release()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Shutdown(ctx); err != nil {
			e.t.Errorf("Shutdown: %v", err)
		}
		if err := e.scope.C.Join(); !errors.Is(err, e.joinErr) {
			e.t.Errorf("Join: %v, want %v", err, e.joinErr)
		}
	})
}

// dial opens a session with few retries so sheds surface as errors fast.
func (e *env) dial(tenant string, retries int) (*Client, error) {
	return Dial(e.srv.Addr(), tenant, "wc", ClientOptions{
		MaxRetries: retries,
		Backoff:    time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       testutil.Seed(e.t),
	})
}

func (e *env) mustDial(tenant string) *Client {
	e.t.Helper()
	c, err := e.dial(tenant, 8)
	if err != nil {
		e.t.Fatalf("Dial(%s): %v", tenant, err)
	}
	return c
}

// wantRejected asserts err wraps a RejectedError with the given status and
// code.
func wantRejected(t *testing.T, err error, status int, code string) {
	t.Helper()
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError, got %v", err)
	}
	if rej.Status != status || rej.Code != code {
		t.Fatalf("want %d/%s, got %d/%s (%s)", status, code, rej.Status, rej.Code, rej.Msg)
	}
}

func TestServeEndToEnd(t *testing.T) {
	e := startEnv(t, testConfig(), false)
	c := e.mustDial("acme")

	ack, err := c.SendStrings("a=1", "b=2")
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if ack.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", ack.Accepted)
	}

	// Read-your-writes: min_epoch = the ack's epoch must observe the write.
	v, epoch, err := c.Read("a", ack.Epoch)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != "1" || epoch < ack.Epoch {
		t.Fatalf("Read a = %q@%d, want 1@>=%d", v, epoch, ack.Epoch)
	}

	// Updates win: a later epoch overwrites.
	ack2, err := c.SendStrings("a=3")
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if ack2.Epoch < ack.Epoch {
		t.Fatalf("epoch went backwards: %d then %d", ack.Epoch, ack2.Epoch)
	}
	if v, _, err = c.Read("a", ack2.Epoch); err != nil || v != "3" {
		t.Fatalf("Read a after update = %q, %v; want 3", v, err)
	}

	completed, open, mode, err := c.Frontier()
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if completed < ack2.Epoch || open <= completed {
		t.Fatalf("frontier completed=%d open=%d, want completed>=%d < open", completed, open, ack2.Epoch)
	}
	if mode != "healthy" {
		t.Fatalf("mode %q, want healthy", mode)
	}

	// Missing key is a clean 404, stamped with the frontier.
	_, _, err = c.Read("zzz", -1)
	wantRejected(t, err, http.StatusNotFound, codeNotFound)

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m := e.srv.Metrics().Snapshot()
	if m.RecordsAccepted != 3 || m.RecordsShed != 0 {
		t.Fatalf("accepted=%d shed=%d, want 3/0", m.RecordsAccepted, m.RecordsShed)
	}
	if m.SessionsOpened != 1 || m.SessionsClosed != 1 || m.OpenSessions != 0 {
		t.Fatalf("sessions opened=%d closed=%d open=%d", m.SessionsOpened, m.SessionsClosed, m.OpenSessions)
	}
	if m.EpochsSealed == 0 || m.EpochsCompleted != m.EpochsSealed {
		t.Fatalf("epochs sealed=%d completed=%d", m.EpochsSealed, m.EpochsCompleted)
	}
}

func TestTenantQuotaShedsAndRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalCredits = 64
	cfg.TenantCredits = 8
	cfg.AdmitWait = 20 * time.Millisecond
	// Keep the ladder far away: this test is about quotas, not modes.
	cfg.DelayLag = time.Hour
	e := startEnv(t, cfg, true)
	c := e.mustDial("flooder")

	recs := make([]string, 8)
	for i := range recs {
		recs[i] = fmt.Sprintf("k%d=%d", i, i)
	}
	if _, err := c.SendStrings(recs...); err != nil {
		t.Fatalf("first batch should admit: %v", err)
	}

	// The dataflow is gated, so those 8 credits never come back; the next
	// batch must shed on the tenant quota with a typed 429.
	fast, err := e.dial("flooder", 1)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	_, err = fast.SendStrings(recs...)
	wantRejected(t, err, http.StatusTooManyRequests, codeQuota)
	if retries, _, shed := fast.Stats(); retries == 0 || shed != 1 {
		t.Fatalf("client stats retries=%d shed=%d, want >0 and 1", retries, shed)
	}

	m := e.srv.Metrics()
	if m.ShedQuota.Load() == 0 || m.RecordsShed.Load() == 0 {
		t.Fatalf("quota shed not accounted: quota=%d shed=%d", m.ShedQuota.Load(), m.RecordsShed.Load())
	}

	// Backpressure relaxes end to end: release the dataflow, credits
	// return, and the same tenant is admitted again.
	e.release()
	if _, err := c.SendStrings("after=1"); err != nil {
		t.Fatalf("send after release: %v", err)
	}
}

func TestGlobalOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalCredits = 8
	cfg.TenantCredits = 8
	cfg.AdmitWait = 20 * time.Millisecond
	cfg.DelayLag = time.Hour
	e := startEnv(t, cfg, true)

	a := e.mustDial("tenant-a")
	recs := make([]string, 8)
	for i := range recs {
		recs[i] = fmt.Sprintf("k%d=%d", i, i)
	}
	if _, err := a.SendStrings(recs...); err != nil {
		t.Fatalf("tenant-a batch: %v", err)
	}

	// Tenant B has its own full quota, but the shared pool is empty: the
	// rejection must be typed overload, not quota.
	b, err := e.dial("tenant-b", 1)
	if err != nil {
		t.Fatalf("Dial b: %v", err)
	}
	_, err = b.SendStrings("x=1", "y=2")
	wantRejected(t, err, http.StatusServiceUnavailable, codeOverload)
	if e.srv.Metrics().ShedOverload.Load() == 0 {
		t.Fatal("overload shed not accounted")
	}
	// Tenant B's own credits were refunded when the global acquire failed.
	if got := e.srv.tenant("tenant-b", false).pool.available(); got != cfg.TenantCredits {
		t.Fatalf("tenant-b credits %d, want %d refunded", got, cfg.TenantCredits)
	}
}

func TestDegradationShedNewTenants(t *testing.T) {
	cfg := testConfig()
	cfg.DelayLag = 5 * time.Millisecond
	cfg.ShedNewLag = 15 * time.Millisecond
	cfg.ShedAllLag = time.Hour // ladder tops out at shed-new here
	cfg.DegradeHold = 2
	e := startEnv(t, cfg, true)

	old := e.mustDial("established")
	if _, err := old.SendStrings("a=1"); err != nil {
		t.Fatalf("send: %v", err)
	}

	waitMode(t, e.srv, ModeShedNew, 5*time.Second)

	// A tenant the server has never seen is refused…
	if _, err := e.dial("newcomer", 1); err == nil {
		t.Fatal("new tenant admitted during shed-new")
	} else {
		wantRejected(t, err, http.StatusServiceUnavailable, codeShed)
	}
	// …while the established tenant still opens sessions.
	if _, err := e.dial("established", 1); err != nil {
		t.Fatalf("established tenant refused during shed-new: %v", err)
	}
	m := e.srv.Metrics()
	if m.TenantsShed.Load() == 0 || m.Escalations.Load() == 0 {
		t.Fatalf("shed-new not accounted: tenants_shed=%d escalations=%d",
			m.TenantsShed.Load(), m.Escalations.Load())
	}

	// Drain: release the dataflow and the ladder must walk back down.
	e.release()
	waitMode(t, e.srv, ModeHealthy, 5*time.Second)
	if _, err := e.dial("newcomer", 8); err != nil {
		t.Fatalf("new tenant refused after recovery: %v", err)
	}
}

func TestDegradationShedAll(t *testing.T) {
	cfg := testConfig()
	cfg.DelayLag = 5 * time.Millisecond
	cfg.ShedNewLag = 10 * time.Millisecond
	cfg.ShedAllLag = 20 * time.Millisecond
	e := startEnv(t, cfg, true)

	c := e.mustDial("acme")
	if _, err := c.SendStrings("a=1"); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitMode(t, e.srv, ModeShedAll, 5*time.Second)

	// All ingest sheds, session creation sheds, health reports unready…
	fast, err := e.dial("acme", 1)
	if err == nil {
		_, err = fast.SendStrings("b=2")
		wantRejected(t, err, http.StatusServiceUnavailable, codeShed)
	} else {
		wantRejected(t, err, http.StatusServiceUnavailable, codeShed)
	}
	resp, err := http.Get("http://" + e.srv.Addr() + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d during shed-all, want 503", resp.StatusCode)
	}

	// …but reads still serve (degradation favors queries over ingest).
	if _, _, err := c.Read("a", -1); err != nil {
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Status != http.StatusNotFound {
			t.Fatalf("read during shed-all: %v", err)
		}
	}

	e.release()
	waitMode(t, e.srv, ModeHealthy, 5*time.Second)
}

func waitMode(t *testing.T, s *Server, want Mode, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.Mode() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("mode %v not reached (now %v)", want, s.Mode())
}

func TestSessionLimitsAndReaping(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 3
	cfg.MaxSessionsPerTenant = 2
	cfg.SessionIdleTimeout = 40 * time.Millisecond
	e := startEnv(t, cfg, false)

	e.mustDial("a")
	e.mustDial("a")
	_, err := e.dial("a", 1)
	wantRejected(t, err, http.StatusTooManyRequests, codeSessions)
	e.mustDial("b")
	_, err = e.dial("c", 1)
	wantRejected(t, err, http.StatusTooManyRequests, codeSessions)

	// The reaper collects idle sessions, freeing the slots.
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.Metrics().SessionsReaped.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := e.srv.Metrics().SessionsReaped.Load(); got < 3 {
		t.Fatalf("reaped %d sessions, want 3", got)
	}
	c := e.mustDial("c") // slot is free again
	if _, err := c.SendStrings("x=1"); err != nil {
		t.Fatalf("send on fresh session: %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatchRecords = 4
	e := startEnv(t, cfg, false)
	c := e.mustDial("acme")

	// Malformed records fail decode with a 400 and are not fed.
	_, err := c.SendStrings("this has no equals sign")
	wantRejected(t, err, http.StatusBadRequest, codeBadRequest)

	// Oversized batches are typed 413.
	_, err = c.SendStrings("a=1", "b=2", "c=3", "d=4", "e=5")
	wantRejected(t, err, http.StatusRequestEntityTooLarge, codeTooLarge)

	// Unknown session and unknown flow are 404s.
	bad := &Client{base: "http://" + e.srv.Addr(), session: "s-999", flow: "wc",
		opts: ClientOptions{}.withDefaults(), hc: http.DefaultClient}
	err = bad.do("POST", bad.base+"/v1/sessions/s-999/records", []byte("a=1\n"), http.StatusOK, nil)
	wantRejected(t, err, http.StatusNotFound, codeNotFound)
	if _, err := Dial(e.srv.Addr(), "t", "nosuchflow", ClientOptions{MaxRetries: 1}); err == nil {
		t.Fatal("dial to unknown flow succeeded")
	}

	// A min_epoch that is not an integer is a 400, not a silent read at
	// whatever prefix happened to parse.
	err = bad.do("GET", bad.base+"/v1/flows/wc/read?key=a&min_epoch=12abc", nil, http.StatusOK, nil)
	wantRejected(t, err, http.StatusBadRequest, codeBadRequest)

	// All-or-nothing accounting: nothing from the failed batches was fed.
	if got := e.srv.Metrics().RecordsAccepted.Load(); got != 0 {
		t.Fatalf("accepted %d records from failed batches, want 0", got)
	}
	if got := e.srv.Metrics().BadRequests.Load(); got < 3 {
		t.Fatalf("bad requests %d, want >= 3", got)
	}
}

func TestReadMinEpochTimesOut(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 50 * time.Millisecond
	cfg.DelayLag = time.Hour
	e := startEnv(t, cfg, true)
	c := e.mustDial("acme")

	ack, err := c.SendStrings("a=1")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	// The gated dataflow never completes the epoch: the consistent read
	// must time out with a 504 rather than return stale state.
	_, _, err = c.Read("a", ack.Epoch)
	wantRejected(t, err, http.StatusGatewayTimeout, codeOverload)
	if e.srv.Metrics().ReadTimeouts.Load() == 0 {
		t.Fatal("read timeout not accounted")
	}

	e.release()
	if v, _, err := c.Read("a", ack.Epoch); err != nil || v != "1" {
		t.Fatalf("read after release = %q, %v; want 1", v, err)
	}
}

func TestAdvanceSealsEpoch(t *testing.T) {
	cfg := testConfig()
	cfg.EpochInterval = time.Hour // only explicit advance seals
	e := startEnv(t, cfg, false)
	c := e.mustDial("acme")

	ack, err := c.SendStrings("a=1")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	sealed, err := c.Advance()
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	if sealed != ack.Epoch {
		t.Fatalf("sealed epoch %d, want %d", sealed, ack.Epoch)
	}
	if v, _, err := c.Read("a", ack.Epoch); err != nil || v != "1" {
		t.Fatalf("read after explicit advance = %q, %v; want 1", v, err)
	}
}

func TestShutdownClosesInputAndDrains(t *testing.T) {
	e := startEnv(t, testConfig(), false)
	c := e.mustDial("acme")
	for i := 0; i < 5; i++ {
		if _, err := c.SendStrings(fmt.Sprintf("k%d=%d", i, i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// close() (via Cleanup) shuts the server down, which must close the
	// flow input so Join returns; CheckNoLeaks asserts every goroutine —
	// batchers, releasers, controller, reaper, HTTP — exits.
	e.close()
	m := e.srv.Metrics().Snapshot()
	if m.EpochsCompleted != m.EpochsSealed {
		t.Fatalf("drain incomplete: sealed=%d completed=%d", m.EpochsSealed, m.EpochsCompleted)
	}
	// All credits returned: nothing leaked on the way down.
	if free := e.srv.global.available(); free != e.srv.cfg.GlobalCredits {
		t.Fatalf("global credits %d after shutdown, want %d", free, e.srv.cfg.GlobalCredits)
	}
}
