package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"naiad/internal/lib"
)

// These tests pin demand-driven sealing and event-driven read wake-up. None
// of them sleeps: EpochInterval is an hour, so only the mechanism under
// test can seal an epoch, and every "then" is a channel event from the
// dataflow or a protocol acknowledgement.

func demandConfig() Config {
	cfg := testConfig()
	cfg.EpochInterval = time.Hour
	cfg.DelayLag = time.Hour // the ladder is not under test
	// Long enough for a loaded -race run, short enough that a read nobody
	// wakes fails the test instead of hanging it.
	cfg.RequestTimeout = 10 * time.Second
	return cfg
}

// readResult is one Client.Read outcome, carried back from a goroutine.
type readResult struct {
	val   string
	epoch int64
	err   error
}

func goRead(c *Client, key string, minEpoch int64) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		v, e, err := c.Read(key, minEpoch)
		out <- readResult{v, e, err}
	}()
	return out
}

// A read-your-write is answered in dataflow time: with the cadence out of
// the picture, the parked read itself seals the epoch it waits on.
func TestReadSealsItsEpochOnDemand(t *testing.T) {
	e := startEnv(t, demandConfig(), false)
	c := e.mustDial("acme")
	for i := 1; i <= 3; i++ {
		ack, err := c.SendStrings(fmt.Sprintf("a=%d", i))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		v, epoch, err := c.Read("a", ack.Epoch)
		if err != nil || v != fmt.Sprint(i) || epoch < ack.Epoch {
			t.Fatalf("read %d = %q@%d, %v; want %d@>=%d", i, v, epoch, err, i, ack.Epoch)
		}
	}
	m := e.srv.Metrics().Snapshot()
	if m.EpochsSealed != 3 || m.EpochsSealedOnDemand != 3 || m.EpochsCompleted != 3 {
		t.Fatalf("sealed=%d on demand=%d completed=%d, want 3/3/3", m.EpochsSealed, m.EpochsSealedOnDemand, m.EpochsCompleted)
	}
}

// The bypass case: with nobody parked on an open epoch, epochs seal on the
// size bound and explicit advances exactly as before, and never on demand —
// not for a read that does not wait, nor for one that waits on an epoch
// already sealed.
func TestWriteOnlyTrafficSealsNothingOnDemand(t *testing.T) {
	cfg := demandConfig()
	cfg.EpochMaxRecords = 4
	e := startEnv(t, cfg, false)
	c := e.mustDial("acme")
	for i := 0; i < 3; i++ { // three size seals
		if _, err := c.SendStrings("a=1", "b=2", "c=3", fmt.Sprintf("d=%d", i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if _, err := c.SendStrings("e=5"); err != nil {
		t.Fatalf("send: %v", err)
	}
	sealed, err := c.Advance() // one explicit seal
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	// Parks until the dataflow catches up, with nothing open: no seal.
	if v, _, err := c.Read("e", sealed); err != nil || v != "5" {
		t.Fatalf("read e = %q, %v; want 5", v, err)
	}
	// Does not wait, with an epoch open: no seal either.
	if _, err := c.SendStrings("f=6"); err != nil {
		t.Fatalf("send: %v", err)
	}
	if v, _, err := c.Read("a", -1); err != nil || v != "1" {
		t.Fatalf("unwaited read a = %q, %v; want 1", v, err)
	}
	m := e.srv.Metrics().Snapshot()
	if m.EpochsSealed != 4 || m.EpochsSealedOnDemand != 0 {
		t.Fatalf("sealed=%d on demand=%d, want 4/0", m.EpochsSealed, m.EpochsSealedOnDemand)
	}
}

// holdStore is a SinkStore that parks one epoch's commit until the test lets
// it through: "epoch e is sealed but still incomplete", held for as long as
// the test needs.
type holdStore struct {
	*TableSink
	epoch   int64
	entered chan struct{} // closed when the held epoch's commit arrives
	release chan struct{} // closed by the test
}

func (h *holdStore) Commit(b lib.SinkBatch) error {
	if b.Epoch == h.epoch {
		close(h.entered)
		<-h.release
	}
	return h.TableSink.Commit(b)
}

// Group commit: while a sealed epoch is incomplete the next one stays open
// however many reads are parked, every record that arrives meanwhile joins
// it, and it seals the moment its predecessor completes.
func TestParkedReadWaitsForPredecessorThenGroupCommits(t *testing.T) {
	hold := &holdStore{TableSink: NewTableSink(kvDecode), entered: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(hold.release) }) }
	srv, c := startSinkFlow(t, demandConfig(), hold, hold.TableSink)
	t.Cleanup(release) // a failed assertion must not leave Shutdown waiting on the held commit

	ack, err := c.SendStrings("a=1")
	if err != nil || ack.Epoch != hold.epoch {
		t.Fatalf("send: %+v, %v; want epoch %d", ack, err, hold.epoch)
	}
	r1 := goRead(c, "a", ack.Epoch)
	// Only r1, parked, can have sealed the epoch (the cadence is an hour).
	<-hold.entered

	next := ack.Epoch + 1
	var r2 <-chan readResult
	for i, rec := range []string{"b=2", "c=3", "d=4"} {
		a, err := c.SendStrings(rec)
		if err != nil || a.Epoch != next {
			t.Fatalf("send %s landed in epoch %d (%v), want the still-open epoch %d", rec, a.Epoch, err, next)
		}
		if i == 0 {
			r2 = goRead(c, "d", next) // a second read, parked on the open epoch itself
		}
	}
	if m := srv.Metrics().Snapshot(); m.EpochsSealed != 1 || m.EpochsSealedOnDemand != 1 {
		t.Fatalf("while epoch %d is held: sealed=%d on demand=%d, want 1/1", hold.epoch, m.EpochsSealed, m.EpochsSealedOnDemand)
	}

	release()
	if r := <-r1; r.err != nil || r.val != "1" {
		t.Fatalf("read a = %+v, want 1", r)
	}
	if r := <-r2; r.err != nil || r.val != "4" || r.epoch != next {
		t.Fatalf("read d = %+v, want 4 at epoch %d", r, next)
	}
	for k, want := range map[string]string{"b": "2", "c": "3"} {
		if v, epoch, err := c.Read(k, -1); err != nil || v != want || epoch != next {
			t.Fatalf("read %s = %q@%d, %v; want %s@%d", k, v, epoch, err, want, next)
		}
	}
	if m := srv.Metrics().Snapshot(); m.EpochsSealed != 2 || m.EpochsSealedOnDemand != 2 {
		t.Fatalf("sealed=%d on demand=%d, want 2/2: three sends, one epoch", m.EpochsSealed, m.EpochsSealedOnDemand)
	}
}

// On-demand seals keep their spacing: a read that parks sooner than
// demandSpacing after the last on-demand seal does not seal its epoch, and
// records keep joining it, until the spacing has passed — here never, so an
// explicit advance is what lets the read go.
func TestOnDemandSealsKeepTheirSpacing(t *testing.T) {
	spacing := demandSpacing
	t.Cleanup(func() { demandSpacing = spacing }) // runs after the server's own cleanup
	demandSpacing = time.Hour
	e := startEnv(t, demandConfig(), false)
	c := e.mustDial("acme")
	fs := e.srv.flow("wc")

	ack, err := c.SendStrings("a=1")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if v, _, err := c.Read("a", ack.Epoch); err != nil || v != "1" { // sealed on demand, at once
		t.Fatalf("read a = %q, %v; want 1", v, err)
	}
	next := ack.Epoch + 1
	if a, err := c.SendStrings("b=2"); err != nil || a.Epoch != next {
		t.Fatalf("send b: %+v, %v; want epoch %d", a, err, next)
	}
	r := goRead(c, "d", next)
	for parked := 0; parked == 0; gort.Gosched() {
		select {
		case got := <-r:
			t.Fatalf("read d = %+v inside the spacing; want it parked", got)
		default:
		}
		fs.mu.Lock()
		parked = fs.parked
		fs.mu.Unlock()
	}
	for _, rec := range []string{"c=3", "d=4"} {
		if a, err := c.SendStrings(rec); err != nil || a.Epoch != next {
			t.Fatalf("send %s landed in epoch %d (%v), want the still-open epoch %d", rec, a.Epoch, err, next)
		}
	}
	if sealed, err := c.Advance(); err != nil || sealed != next {
		t.Fatalf("advance sealed %d, %v; want %d", sealed, err, next)
	}
	if got := <-r; got.err != nil || got.val != "4" || got.epoch != next {
		t.Fatalf("read d = %+v, want 4 at epoch %d", got, next)
	}
	if m := e.srv.Metrics().Snapshot(); m.EpochsSealed != 2 || m.EpochsSealedOnDemand != 1 {
		t.Fatalf("sealed=%d on demand=%d, want 2/1", m.EpochsSealed, m.EpochsSealedOnDemand)
	}
}

// A dataflow failure releases a parked read at once, with the same 504 a
// timeout gives.
func TestFlowFailureReleasesParkedRead(t *testing.T) {
	e := startEnv(t, demandConfig(), true)
	c := e.mustDial("acme")
	ack, err := c.SendStrings("a=1")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	r := goRead(c, "a", ack.Epoch)
	<-e.seen // the read is parked: it sealed the epoch, whose callback now sits on the gate
	e.joinErr = errors.New("injected dataflow failure")
	e.scope.C.Abort(e.joinErr)
	wantRejected(t, (<-r).err, http.StatusGatewayTimeout, codeOverload)
	if e.srv.Metrics().FlowFailures.Load() != 1 {
		t.Fatal("flow failure not accounted")
	}
	_, err = c.SendStrings("b=2")
	wantRejected(t, err, http.StatusServiceUnavailable, codeFlowFailed)
}

// One completion wakes every read parked on the epoch; a lost wake-up
// surfaces as a timeout code. Readers call waitCompleted directly so the
// iteration count buys schedules, not HTTP round trips.
func TestConcurrentReadersAllWakeOnOneCompletion(t *testing.T) {
	e := startEnv(t, demandConfig(), false)
	c := e.mustDial("acme")
	fs := e.srv.flow("wc")
	const iterations, readers = 1000, 8
	for i := 0; i < iterations; i++ {
		ack, err := c.SendStrings(fmt.Sprintf("k=%d", i))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		var wg sync.WaitGroup
		var codes [readers]string
		for r := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[r] = fs.waitCompleted(ack.Epoch, 10*time.Second)
			}()
		}
		wg.Wait()
		for r, code := range codes {
			if code != "" {
				t.Fatalf("iteration %d reader %d: %q (completed=%d, want >= %d)", i, r, code, fs.completed(), ack.Epoch)
			}
		}
	}
	fs.mu.Lock()
	parked := fs.parked
	fs.mu.Unlock()
	m := e.srv.Metrics().Snapshot()
	if parked != 0 || m.EpochsSealed != iterations || m.EpochsSealedOnDemand != iterations {
		t.Fatalf("parked=%d sealed=%d on demand=%d, want 0/%d/%d", parked, m.EpochsSealed, m.EpochsSealedOnDemand, iterations, iterations)
	}
}

// A read parked on an epoch that will never complete must not hold Shutdown
// for its whole timeout: it is woken first and told the server is closing.
func TestShutdownWakesParkedRead(t *testing.T) {
	e := startEnv(t, demandConfig(), false)
	c := e.mustDial("acme")
	ack, err := c.SendStrings("a=1")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	type reply struct {
		status int
		body   errorBody
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/flows/wc/read?key=a&min_epoch=%d", e.srv.Addr(), ack.Epoch+1000))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{status: resp.StatusCode}
		r.err = json.NewDecoder(resp.Body).Decode(&r.body)
		got <- r
	}()
	<-e.seen // the read is parked: nothing else could have sealed the epoch

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown held by a parked read: %v", err)
	}
	if r := <-got; r.err != nil || r.status != http.StatusServiceUnavailable || r.body.Code != codeClosing {
		t.Fatalf("parked read got %d %+v, %v; want 503 %s", r.status, r.body, r.err, codeClosing)
	}
}
