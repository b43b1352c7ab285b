package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"naiad/internal/codec"
	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/serve"
)

const (
	doorClients = 2
	// doorLimitMS is the write→read-own-write latency limit: a slower
	// operation counts as failed.
	doorLimitMS = 250.0
)

// doorFlow is the keycount dataflow behind the HTTP front door: a
// serve.Server with DefaultConfig (5 ms edge epochs) feeding the input, a
// serve.TableSink as both the sink's store and the flow's view.
type doorFlow struct {
	scope   *lib.Scope
	srv     *serve.Server
	clients []*serve.Client
	gens    []*doorGen
	tp      *probes
	store   *timedStore
}

// tableDecode turns one canonical sink record — a gob Pair[int64,int64] —
// into a table entry: decimal key → decimal count.
func tableDecode() func(rec []byte) (string, []byte, error) {
	cod := pairGob()
	return func(rec []byte) (string, []byte, error) {
		var p lib.Pair[int64, int64]
		if err := codec.Catch(func() {
			p = cod.DecodeBatch(codec.NewDecoder(rec), 1)[0].(lib.Pair[int64, int64])
		}); err != nil {
			return "", nil, err
		}
		return strconv.FormatInt(p.Key, 10), strconv.AppendInt(nil, p.Val, 10), nil
	}
}

func startDoor(seed int64, traced bool) (*doorFlow, error) {
	f := &doorFlow{}
	cfg := runtime.Config{Processes: 1, WorkersPerProcess: 2, Accumulation: runtime.AccLocalGlobal}
	view := serve.NewTableSink(tableDecode())
	var store lib.SinkStore = view
	wire, sink := pairGob(), pairGob()
	if traced {
		f.tp = newProbes()
		cfg.Tracer = f.tp.tracer
		wire, sink = f.tp.wireCod, f.tp.sinkCod
		f.store = &timedStore{inner: view, log: f.tp.log}
		store = f.store
	}
	s, err := lib.NewScope(cfg)
	if err != nil {
		return nil, err
	}
	f.scope = s
	in, st := keycountGraph(s, store, wire, sink)
	probe := s.C.NewProbe(st)
	if err := s.C.Start(); err != nil {
		return nil, err
	}
	f.srv = serve.NewServer(serve.DefaultConfig())
	err = f.srv.Register(serve.Flow{
		Name: "keys", Input: in.Raw(), Probe: probe, View: view,
		Decode: func(b []byte) (runtime.Message, error) {
			k, err := strconv.ParseInt(string(b), 10, 64)
			return k, err
		},
	})
	if err == nil {
		err = f.srv.Start()
	}
	if err != nil {
		return nil, err
	}
	for c := 0; c < doorClients; c++ {
		cl, err := serve.Dial(f.srv.Addr(), fmt.Sprintf("tenant%d", c), "keys", serve.ClientOptions{Seed: int64(c + 1)})
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, cl)
		f.gens = append(f.gens, newDoorGen(seed, c))
	}
	// First operation through every client: connections, sessions, gob
	// sessions and the table are warm before anything is timed.
	for c := range f.clients {
		if _, err := f.op(c); err != nil {
			return nil, fmt.Errorf("first operation: %w", err)
		}
	}
	return f, nil
}

// doorSample is one operation's timing.
type doorSample struct {
	start, sent, read int64
}

// op performs client c's next operation: send a batch, read one of its keys
// back at the acknowledged epoch, and check the count. A wrong count is an
// error, never a sample.
func (f *doorFlow) op(c int) (doorSample, error) {
	op := f.gens[c].next()
	recs := make([][]byte, len(op.keys))
	for i, k := range op.keys {
		recs[i] = strconv.AppendInt(nil, k, 10)
	}
	var s doorSample
	s.start = now()
	ack, err := f.clients[c].Send(recs)
	s.sent = now()
	if err != nil {
		return s, err
	}
	if ack.Accepted != len(recs) {
		return s, fmt.Errorf("door accepted %d of %d records", ack.Accepted, len(recs))
	}
	val, epoch, err := f.clients[c].Read(strconv.FormatInt(op.read, 10), ack.Epoch)
	s.read = now()
	if err != nil {
		return s, err
	}
	if want := strconv.FormatInt(op.want, 10); val != want || epoch < ack.Epoch {
		return s, &oracleError{fmt.Sprintf("read key %d = %q at epoch %d, want %q at epoch >= %d", op.read, val, epoch, want, ack.Epoch)}
	}
	return s, nil
}

// oracleError marks a wrong answer, as opposed to an operation that failed
// (was shed, timed out): the first aborts the run, the second is counted.
type oracleError struct{ msg string }

func (e *oracleError) Error() string { return "read-your-writes violated: " + e.msg }

func (f *doorFlow) stop() error {
	for _, c := range f.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		return err
	}
	return f.scope.C.Join()
}

// doorLoad is the closed loop's samples.
type doorLoad struct {
	samples   []doorSample // successful operations, in completion order per client
	attempted int64
	failed    int64
	elapsed   time.Duration
}

// load runs every client closed-loop for d: each sends its next batch only
// after reading the previous one back.
func (f *doorFlow) load(d time.Duration) (*doorLoad, error) {
	l := &doorLoad{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var fatal error
	start := now()
	end := start + int64(d)
	for c := range f.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now() < end {
				s, err := f.op(c)
				mu.Lock()
				l.attempted++
				if err == nil {
					l.samples = append(l.samples, s)
				} else if oe, ok := err.(*oracleError); ok && fatal == nil {
					fatal = oe
				}
				if err != nil || ms(s.read-s.start) > doorLimitMS {
					l.failed++
				}
				stop := fatal != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	l.elapsed = time.Duration(now() - start)
	return l, fatal
}

// windowRates turns completion instants into one rate per rateWindow of the
// run: `per` units per completion, over the time from the previous window's
// last completion to this window's last (a measured span, so the rate is not
// quantized to whole completions per fixed window). The ramp window is
// dropped.
func windowRates(done []int64, start int64, elapsed time.Duration, per float64) []float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	n := int(elapsed / rateWindow)
	var rates []float64
	edge, i := start, 0
	for w := 0; w < n; w++ {
		limit := start + int64(w+1)*int64(rateWindow)
		count, last := 0, edge
		for ; i < len(done) && done[i] < limit; i++ {
			count++
			last = done[i]
		}
		if count > 0 && last > edge {
			rates = append(rates, float64(count)*per/(float64(last-edge)/1e9))
		}
		edge = last
	}
	if len(rates) > 1 {
		rates = rates[1:]
	}
	if len(rates) == 0 {
		rates = []float64{float64(len(done)) * per / elapsed.Seconds()}
	}
	return rates
}

func runDoorRW(rc runConfig) (*outcome, error) {
	if rc.traced {
		return traceDoorRW(rc)
	}
	o := newOutcome(endToEnd)
	secs, f, err := timedSetups(
		func() (*doorFlow, error) { return startDoor(rc.seed, false) }, (*doorFlow).stop)
	if err != nil {
		return nil, err
	}
	start := now()
	l, err := f.load(rc.span(1))
	if err != nil {
		return nil, err
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	var lat []float64
	var done []int64
	for _, s := range l.samples {
		lat = append(lat, ms(s.read-s.start))
		done = append(done, s.read)
	}
	o.attempted, o.failed = l.attempted, l.failed
	o.endToEnd(secs, windowRates(done, start, l.elapsed, doorBatch), lat)
	return o, nil
}
