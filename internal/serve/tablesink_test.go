package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/testutil"
	ts "naiad/internal/timestamp"
)

// kvDecode maps one canonical sink record ("k=v" encoded with
// codec.String()) to a table entry; a bare "k" (no '=') deletes the key.
func kvDecode(rec []byte) (string, []byte, error) {
	s := codec.NewDecoder(rec).String()
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return s, nil, nil
	}
	return k, []byte(v), nil
}

// kvBatch hand-builds a canonical sink batch: each record string-encoded,
// then length-prefixed into the batch's Data.
func kvBatch(epoch int64, recs ...string) lib.SinkBatch {
	var data codec.Encoder
	for _, r := range recs {
		var enc codec.Encoder
		enc.PutString(r)
		data.PutBytes(enc.Bytes())
	}
	return lib.SinkBatch{
		Epoch:    epoch,
		Frontier: ts.Root(epoch + 1),
		Data:     append([]byte(nil), data.Bytes()...),
	}
}

func TestTableSinkAppliesDedupsAndStamps(t *testing.T) {
	v := NewTableSink(kvDecode)
	if got := v.Frontier(); got != ts.Root(0) {
		t.Fatalf("initial frontier %v, want %v", got, ts.Root(0))
	}

	if err := v.Commit(kvBatch(0, "a=1", "b=2")); err != nil {
		t.Fatalf("Commit epoch 0: %v", err)
	}
	if val, epoch, ok := v.Lookup("a"); !ok || string(val) != "1" || epoch != 0 {
		t.Fatalf("Lookup a = %q@%d,%v; want 1@0", val, epoch, ok)
	}
	if got := v.Frontier(); got != ts.Root(1) {
		t.Fatalf("frontier after epoch 0 = %v, want %v", got, ts.Root(1))
	}

	// Epoch 1 deletes a and writes c; the stamp rides the batch frontier.
	if err := v.Commit(kvBatch(1, "a", "c=3")); err != nil {
		t.Fatalf("Commit epoch 1: %v", err)
	}
	if _, _, ok := v.Lookup("a"); ok {
		t.Fatal("a still present after delete")
	}
	if val, epoch, ok := v.Lookup("c"); !ok || string(val) != "3" || epoch != 1 {
		t.Fatalf("Lookup c = %q@%d,%v; want 3@1", val, epoch, ok)
	}
	if got := v.Frontier(); got != ts.Root(2) {
		t.Fatalf("frontier after epoch 1 = %v, want %v", got, ts.Root(2))
	}

	// A replayed commit (crash re-drive) is acknowledged without
	// reapplying: the deleted key must not resurrect, the stamp must not
	// regress.
	if err := v.Commit(kvBatch(0, "a=1", "b=2")); err != nil {
		t.Fatalf("replayed Commit: %v", err)
	}
	if _, _, ok := v.Lookup("a"); ok {
		t.Fatal("replayed epoch resurrected a deleted key")
	}
	if got := v.Frontier(); got != ts.Root(2) {
		t.Fatalf("frontier after replay = %v, want %v", got, ts.Root(2))
	}
	if v.Table().Len() != 2 { // b, c
		t.Fatalf("table len %d, want 2", v.Table().Len())
	}
}

// TestTableSinkRetainsNothingPerEpoch pins the dedup state to one integer:
// the sink lives as long as the server, so anything it kept per committed
// epoch would be a leak. 100 000 epochs rewriting one key must leave the
// heap where it was.
func TestTableSinkRetainsNothingPerEpoch(t *testing.T) {
	v := NewTableSink(kvDecode)
	b := kvBatch(0, "a=1")
	heap := func() int64 {
		var ms gort.MemStats
		gort.GC()
		gort.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	const epochs = 100_000
	for e := int64(0); e < epochs; e++ {
		b.Epoch, b.Frontier = e, ts.Root(e+1)
		if err := v.Commit(b); err != nil {
			t.Fatalf("Commit epoch %d: %v", e, err)
		}
	}
	// A per-epoch set costs well over 1 MB at this count.
	if grew := heap() - before; grew > 256<<10 {
		t.Fatalf("sink retained %d bytes over %d epochs, want a constant", grew, epochs)
	}
	if _, epoch, ok := v.Lookup("a"); !ok || epoch != epochs-1 || v.Frontier() != ts.Root(epochs) {
		t.Fatalf("after %d epochs: epoch %d ok=%v frontier %v", epochs, epoch, ok, v.Frontier())
	}
	// Dedup still holds at the far end: any epoch at or below the mark is a
	// replay.
	b.Epoch, b.Frontier, b.Data = 7, ts.Root(8), kvBatch(7, "a=stale").Data
	if err := v.Commit(b); err != nil {
		t.Fatalf("replayed Commit: %v", err)
	}
	if val, _, _ := v.Lookup("a"); string(val) != "1" {
		t.Fatalf("replayed epoch overwrote a = %q", val)
	}
}

func TestTableSinkRejectsMalformedBatch(t *testing.T) {
	v := NewTableSink(kvDecode)
	bad := lib.SinkBatch{Epoch: 0, Frontier: ts.Root(1), Data: []byte{0xff, 0xff}}
	if err := v.Commit(bad); err == nil {
		t.Fatal("malformed batch committed without error")
	}
	if got := v.Frontier(); got != ts.Root(0) {
		t.Fatalf("frontier advanced past a failed commit: %v", got)
	}
}

// TestServeReadsRideSinkFrontier runs the full path: records ingested at the
// front door flow through an exactly-once Sink into a TableSink view, and
// frontier-stamped reads report the sink's guarantee-derived timestamp. The
// read-your-writes wait needs no extra machinery: the sink's held capability
// keeps the probe from completing an epoch until the view's commit is
// acknowledged.
func TestServeReadsRideSinkFrontier(t *testing.T) {
	view := NewTableSink(kvDecode)
	srv, c := startSinkFlow(t, testConfig(), view, view)

	ack, err := c.SendStrings("a=1", "b=2")
	if err != nil {
		t.Fatalf("Send: %v", err)
	}

	// Raw GET so the frontier stamp is observable in both header and body.
	url := fmt.Sprintf("http://%s/v1/flows/wc/read?key=a&min_epoch=%d", srv.Addr(), ack.Epoch)
	httpResp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, httpResp.StatusCode)
	}
	var resp readResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.Value != "1" || resp.Epoch < ack.Epoch {
		t.Fatalf("read a = %q@%d, want 1@>=%d", resp.Value, resp.Epoch, ack.Epoch)
	}
	// Both records entered one epoch and nothing later has sealed records,
	// so the view frontier is exactly the batch's stamp: Root(epoch+1).
	want := ts.Root(ack.Epoch + 1).String()
	if resp.Frontier != want {
		t.Fatalf("body frontier %q, want %q", resp.Frontier, want)
	}
	if h := httpResp.Header.Get("X-Naiad-View-Frontier"); h != want {
		t.Fatalf("header frontier %q, want %q", h, want)
	}

	// An update in a later epoch advances both the value and the stamp.
	ack2, err := c.SendStrings("a=3")
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if v, epoch, err := c.Read("a", ack2.Epoch); err != nil || v != "3" || epoch < ack2.Epoch {
		t.Fatalf("read after update = %q@%d, %v; want 3@>=%d", v, epoch, err, ack2.Epoch)
	}
	if got, want := view.Frontier(), ts.Root(ack2.Epoch+1); got != want {
		t.Fatalf("view frontier %v, want %v", got, want)
	}
}

// startSinkFlow runs a front door whose flow "wc" feeds "k=v" records
// through an exactly-once lib.Sink into store, and serves reads from view
// (usually the TableSink inside store). Server, computation and client are
// torn down by t.Cleanup, under the goroutine-leak check.
func startSinkFlow(t *testing.T, cfg Config, store lib.SinkStore, view View) (*Server, *Client) {
	t.Helper()
	t.Cleanup(testutil.CheckNoLeaks(t))
	cfg.Seed = testutil.Seed(t)

	scope, err := lib.NewScope(runtime.Config{Processes: 1, WorkersPerProcess: 2})
	if err != nil {
		t.Fatalf("NewScope: %v", err)
	}
	in, stream := lib.NewInput[string](scope, "events", codec.String())
	st := lib.Sink(stream, store)
	probe := scope.C.NewProbe(st)
	if err := scope.C.Start(); err != nil {
		t.Fatalf("Start computation: %v", err)
	}

	srv := NewServer(cfg)
	err = srv.Register(Flow{
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
		View: view,
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start server: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := scope.C.Join(); err != nil {
			t.Errorf("Join: %v", err)
		}
	})

	c, err := Dial(srv.Addr(), "acme", "wc", ClientOptions{
		MaxRetries: 8,
		Backoff:    time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       testutil.Seed(t),
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}
