package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/lib"
	"naiad/internal/runtime"
	"naiad/internal/serve"
)

// IngressOptions sizes the serving-front-door load experiment: N server
// processes × M simulated clients per server, mercury-style — the parent
// re-execs its own binary as the servers and drives them over HTTP, so
// every byte crosses a real socket and every process has its own runtime.
type IngressOptions struct {
	// Servers is the number of server processes (or in-process servers when
	// ServerBin is empty — the testable fallback).
	Servers int
	// Streamers, SlowReaders, and Disconnectors are per-server client mixes:
	// well-behaved batch producers, clients that pair every write with a
	// frontier-stamped read and consume slowly, and clients that vanish
	// mid-epoch without closing their session.
	Streamers     int
	SlowReaders   int
	Disconnectors int
	// Batch is records per ingest request.
	Batch int
	// Duration is the steady phase's wall time; OverloadDuration the flood
	// phase's.
	Duration         time.Duration
	OverloadDuration time.Duration
	// ServerBin, when non-empty, is exec'd with -ingress-server for each
	// server (normally os.Executable()); empty runs servers in-process.
	ServerBin string
	Seed      int64
}

// DefaultIngress returns the recorded-run shape: 2 server processes, a
// mixed client population, and a 3s steady phase.
func DefaultIngress() IngressOptions {
	return IngressOptions{
		Servers:          2,
		Streamers:        4,
		SlowReaders:      2,
		Disconnectors:    2,
		Batch:            16,
		Duration:         3 * time.Second,
		OverloadDuration: 1500 * time.Millisecond,
		Seed:             1,
	}
}

// IngressServerOptions parameterizes one server process (the
// -ingress-server child mode).
type IngressServerOptions struct {
	Addr        string
	Credits     int // global credit pool; 0 means the roomy steady default
	SlowEpochMS int // per-epoch subscriber sleep: the overload run's slow dataflow
	Seed        int64
}

// ingressServer is one running front door, in-process or a child process.
type ingressServer struct {
	addr string
	// in-process:
	inner *ingressInstance
	// child process:
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// ingressInstance is the server side shared by the in-process mode and the
// child's IngressServerMain: a word-count table flow behind a front door.
type ingressInstance struct {
	scope *lib.Scope
	srv   *serve.Server
}

func startIngressInstance(o IngressServerOptions) (*ingressInstance, error) {
	cfg := serve.DefaultConfig()
	if o.Addr != "" {
		cfg.Addr = o.Addr
	}
	cfg.Seed = o.Seed
	cfg.MaxSessions = 4096
	cfg.MaxSessionsPerTenant = 256
	cfg.SessionIdleTimeout = time.Second
	if o.Credits > 0 {
		// The overload shape: a tight admission bound, fast epochs, a ladder
		// that reacts in tens of milliseconds, and no shed-all rung (it
		// rejects before counting records, which would weaken the offered ==
		// accepted + shed audit the experiment performs).
		cfg.GlobalCredits = o.Credits
		cfg.TenantCredits = o.Credits
		cfg.EpochInterval = time.Millisecond
		cfg.AdmitWait = 10 * time.Millisecond
		cfg.DegradeInterval = 2 * time.Millisecond
		cfg.RetryAfterBase = time.Millisecond
		cfg.DelayLag = 10 * time.Millisecond
		cfg.ShedNewLag = 50 * time.Millisecond
		cfg.ShedAllLag = time.Hour
	}
	inst := &ingressInstance{}
	scope, err := lib.NewScope(runtime.Config{Processes: 1, WorkersPerProcess: 2})
	if err != nil {
		return nil, err
	}
	inst.scope = scope
	table := serve.NewTable()
	slow := time.Duration(o.SlowEpochMS) * time.Millisecond
	in, stream := lib.NewInput[string](scope, "events", nil)
	sub := lib.Subscribe(stream, func(epoch int64, recs []string) {
		if slow > 0 {
			time.Sleep(slow)
		}
		entries := make(map[string][]byte)
		for _, r := range recs {
			if k, v, ok := strings.Cut(r, "="); ok {
				entries[k] = []byte(v)
			}
		}
		table.Update(epoch, entries)
	})
	probe := scope.C.NewProbe(sub)
	if err := scope.C.Start(); err != nil {
		return nil, err
	}
	inst.srv = serve.NewServer(cfg)
	if err := inst.srv.Register(serve.Flow{Name: "wc", Input: in.Raw(), Probe: probe, View: table}); err != nil {
		return nil, err
	}
	if err := inst.srv.Start(); err != nil {
		return nil, err
	}
	return inst, nil
}

func (i *ingressInstance) stop() (serve.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := i.srv.Shutdown(ctx)
	snap := i.srv.Metrics().Snapshot()
	if jerr := i.scope.C.Join(); err == nil {
		err = jerr
	}
	return snap, err
}

// IngressServerMain is the -ingress-server child-process entry point: it
// starts one front door, prints the bound address, serves until stdin
// closes (the parent's shutdown signal), then prints the final metrics
// snapshot as JSON and returns.
func IngressServerMain(o IngressServerOptions) error {
	inst, err := startIngressInstance(o)
	if err != nil {
		return err
	}
	fmt.Printf("INGRESS_ADDR %s\n", inst.srv.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin) // block until the parent closes the pipe
	snap, err := inst.stop()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	fmt.Printf("INGRESS_FINAL %s\n", data)
	return nil
}

// startIngressServer launches one server, child-process or in-process.
func startIngressServer(o IngressOptions, so IngressServerOptions) (*ingressServer, error) {
	if o.ServerBin == "" {
		inst, err := startIngressInstance(so)
		if err != nil {
			return nil, err
		}
		return &ingressServer{addr: inst.srv.Addr(), inner: inst}, nil
	}
	cmd := exec.Command(o.ServerBin,
		"-ingress-server",
		fmt.Sprintf("-ingress-credits=%d", so.Credits),
		fmt.Sprintf("-ingress-slow-ms=%d", so.SlowEpochMS),
		fmt.Sprintf("-ingress-seed=%d", so.Seed),
	)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	out := bufio.NewReader(stdout)
	s := &ingressServer{cmd: cmd, stdin: stdin, out: out}
	line, err := s.readLine("INGRESS_ADDR ", 30*time.Second)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("ingress server handshake: %w", err)
	}
	s.addr = line
	return s, nil
}

// readLine scans stdout for the next line with the given prefix.
func (s *ingressServer) readLine(prefix string, timeout time.Duration) (string, error) {
	type res struct {
		line string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		for {
			line, err := s.out.ReadString('\n')
			if strings.HasPrefix(line, prefix) {
				ch <- res{line: strings.TrimSpace(strings.TrimPrefix(line, prefix))}
				return
			}
			if err != nil {
				ch <- res{err: fmt.Errorf("server exited without %q line: %w", prefix, err)}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out waiting for %q", prefix)
	}
}

// stop shuts the server down and returns its final metrics snapshot.
func (s *ingressServer) stop() (serve.Snapshot, error) {
	if s.inner != nil {
		return s.inner.stop()
	}
	_ = s.stdin.Close()
	line, err := s.readLine("INGRESS_FINAL ", 60*time.Second)
	if err != nil {
		_ = s.cmd.Process.Kill()
		_ = s.cmd.Wait()
		return serve.Snapshot{}, err
	}
	var snap serve.Snapshot
	if jerr := json.Unmarshal([]byte(line), &snap); jerr != nil {
		err = fmt.Errorf("decoding final snapshot: %w", jerr)
	}
	if werr := s.cmd.Wait(); err == nil {
		err = werr
	}
	return snap, err
}

// ingressRun is one phase's aggregated client-side observations.
type ingressRun struct {
	latencies  []time.Duration // per-request round trips
	mu         sync.Mutex
	offered    int64 // records offered by no-retry producers (overload audit)
	shedSeen   int64 // records in 429/503 responses
	errs       int64 // transport-level failures
	disconnect int64 // sessions abandoned mid-epoch
	heapMax    uint64
}

func (r *ingressRun) record(d time.Duration) {
	r.mu.Lock()
	r.latencies = append(r.latencies, d)
	r.mu.Unlock()
}

// Ingress runs the serving experiment: a steady phase with a mixed client
// population against healthy servers, then an overload phase flooding a
// credit-starved server with producers that never back off. The report
// carries sustained events/sec and round-trip quantiles for both, plus the
// overload audit: sheds engaged, heap bounded, every record accounted.
func Ingress(o IngressOptions) (*Report, error) {
	if o.Servers <= 0 || o.Streamers <= 0 || o.Batch <= 0 {
		return nil, fmt.Errorf("ingress: need servers, streamers, and batch > 0")
	}
	rep := &Report{
		ID:    "ingress",
		Title: "multi-tenant serving front door under load (events/sec, round-trip quantiles)",
		Headers: []string{"phase", "servers", "clients", "secs", "events",
			"events/s", "p50 ms", "p99 ms", "shed", "mode", "heap max MiB"},
	}

	// Steady phase: N servers, M mixed clients each.
	servers := make([]*ingressServer, 0, o.Servers)
	defer func() {
		for _, s := range servers {
			if s != nil {
				_, _ = s.stop()
			}
		}
	}()
	for i := 0; i < o.Servers; i++ {
		s, err := startIngressServer(o, IngressServerOptions{Seed: o.Seed + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("ingress: starting server %d: %w", i, err)
		}
		servers = append(servers, s)
	}

	run := &ingressRun{}
	stopHeap := pollHeap(servers, run)
	var wg sync.WaitGroup
	deadline := time.Now().Add(o.Duration)
	var accepted atomic.Int64
	for si, s := range servers {
		for c := 0; c < o.Streamers; c++ {
			wg.Add(1)
			go func(addr, tenant string, id int) {
				defer wg.Done()
				streamClient(addr, tenant, id, o, deadline, run, &accepted)
			}(s.addr, fmt.Sprintf("stream-%d-%d", si, c), si*o.Streamers+c)
		}
		for c := 0; c < o.SlowReaders; c++ {
			wg.Add(1)
			go func(addr, tenant string) {
				defer wg.Done()
				slowReadClient(addr, tenant, o, deadline, run)
			}(s.addr, fmt.Sprintf("reader-%d-%d", si, c))
		}
		for c := 0; c < o.Disconnectors; c++ {
			wg.Add(1)
			go func(addr, tenant string) {
				defer wg.Done()
				disconnectClient(addr, tenant, o, deadline, run)
			}(s.addr, fmt.Sprintf("chaos-%d-%d", si, c))
		}
	}
	wg.Wait()
	stopHeap()

	var steadyAccepted, steadyShed int64
	steadyMode := "healthy"
	for i, s := range servers {
		snap, err := s.stop()
		servers[i] = nil
		if err != nil {
			return nil, fmt.Errorf("ingress: stopping server %d: %w", i, err)
		}
		steadyAccepted += snap.RecordsAccepted
		steadyShed += snap.RecordsShed
		if snap.Mode != "healthy" {
			steadyMode = snap.Mode
		}
	}
	servers = servers[:0]
	clients := o.Servers * (o.Streamers + o.SlowReaders + o.Disconnectors)
	q := quantiles(run.latencies, 0.50, 0.99)
	rep.AddRow("steady", fmt.Sprint(o.Servers), fmt.Sprint(clients),
		fmt.Sprintf("%.1f", o.Duration.Seconds()), fmt.Sprint(steadyAccepted),
		fmt.Sprintf("%.0f", float64(steadyAccepted)/o.Duration.Seconds()),
		ms(q[0]), ms(q[1]), fmt.Sprint(steadyShed), steadyMode,
		fmt.Sprintf("%.1f", float64(run.heapMax)/(1<<20)))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("steady: %d sessions abandoned mid-epoch (reaped server-side), %d transport errors", run.disconnect, run.errs))

	// Overload phase: one credit-starved server over a slowed dataflow,
	// flooded by producers that ignore every rejection.
	ov, err := startIngressServer(o, IngressServerOptions{Credits: 256, SlowEpochMS: 3, Seed: o.Seed + 100})
	if err != nil {
		return nil, fmt.Errorf("ingress: starting overload server: %w", err)
	}
	servers = append(servers, ov)
	ovRun := &ingressRun{}
	stopHeap = pollHeap(servers, ovRun)
	floodClients := o.Servers * o.Streamers
	deadline = time.Now().Add(o.OverloadDuration)
	for c := 0; c < floodClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			floodClient(ov.addr, tenant, o, deadline, ovRun)
		}(fmt.Sprintf("flood-%d", c))
	}
	wg.Wait()
	stopHeap()
	ovSnap, err := ov.stop()
	servers = servers[:0]
	if err != nil {
		return nil, fmt.Errorf("ingress: stopping overload server: %w", err)
	}

	q = quantiles(ovRun.latencies, 0.50, 0.99)
	rep.AddRow("overload", "1", fmt.Sprint(floodClients),
		fmt.Sprintf("%.1f", o.OverloadDuration.Seconds()), fmt.Sprint(ovSnap.RecordsAccepted),
		fmt.Sprintf("%.0f", float64(ovSnap.RecordsAccepted)/o.OverloadDuration.Seconds()),
		ms(q[0]), ms(q[1]), fmt.Sprint(ovSnap.RecordsShed), ovSnap.Mode,
		fmt.Sprintf("%.1f", float64(ovRun.heapMax)/(1<<20)))

	// The audit: overload must shed, must stay bounded, and must account
	// every offered record as accepted or shed.
	if ovSnap.RecordsShed == 0 {
		return nil, fmt.Errorf("ingress: overload run shed nothing; admission control never engaged")
	}
	delta := ovSnap.RecordsAccepted + ovSnap.RecordsShed
	if ovRun.errs == 0 && delta != ovRun.offered {
		return nil, fmt.Errorf("ingress: accounting mismatch: offered %d, server accepted+shed %d", ovRun.offered, delta)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"overload audit: offered=%d accepted=%d shed=%d (quota=%d overload=%d mode=%d) — all accounted; heap max %.1f MiB; %d transport errors",
		ovRun.offered, ovSnap.RecordsAccepted, ovSnap.RecordsShed,
		ovSnap.ShedQuota, ovSnap.ShedOverload, ovSnap.ShedMode,
		float64(ovRun.heapMax)/(1<<20), ovRun.errs))
	return rep, nil
}

// pollHeap samples every server's /v1/metricz heap gauge until stopped.
func pollHeap(servers []*ingressServer, run *ingressRun) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		hc := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, s := range servers {
					resp, err := hc.Get("http://" + s.addr + "/v1/metricz")
					if err != nil {
						continue
					}
					var m struct {
						HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
					}
					_ = json.NewDecoder(resp.Body).Decode(&m)
					resp.Body.Close()
					run.mu.Lock()
					if m.HeapAllocBytes > run.heapMax {
						run.heapMax = m.HeapAllocBytes
					}
					run.mu.Unlock()
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// streamClient is the well-behaved producer: batched sends through the
// backpressure-aware client, latencies recorded per request.
func streamClient(addr, tenant string, id int, o IngressOptions, deadline time.Time, run *ingressRun, accepted *atomic.Int64) {
	c, err := serve.Dial(addr, tenant, "wc", serve.ClientOptions{Seed: o.Seed + int64(id)})
	if err != nil {
		run.mu.Lock()
		run.errs++
		run.mu.Unlock()
		return
	}
	defer c.Close()
	recs := make([]string, o.Batch)
	for i := 0; time.Now().Before(deadline); i++ {
		for r := range recs {
			recs[r] = fmt.Sprintf("%s_%d_%d=%d", tenant, i, r, i)
		}
		start := time.Now()
		if _, err := c.SendStrings(recs...); err != nil {
			run.mu.Lock()
			run.errs++
			run.mu.Unlock()
			continue
		}
		run.record(time.Since(start))
		accepted.Add(int64(o.Batch))
	}
}

// slowReadClient pairs every write with a frontier-stamped read of it and
// then dawdles: the slow-reader population that must not hold anyone up.
func slowReadClient(addr, tenant string, o IngressOptions, deadline time.Time, run *ingressRun) {
	c, err := serve.Dial(addr, tenant, "wc", serve.ClientOptions{Seed: o.Seed})
	if err != nil {
		run.mu.Lock()
		run.errs++
		run.mu.Unlock()
		return
	}
	defer c.Close()
	for i := 0; time.Now().Before(deadline); i++ {
		key := fmt.Sprintf("%s_%d", tenant, i)
		start := time.Now()
		ack, err := c.SendStrings(key + "=1")
		if err == nil {
			_, _, err = c.Read(key, ack.Epoch)
		}
		if err != nil {
			run.mu.Lock()
			run.errs++
			run.mu.Unlock()
		} else {
			run.record(time.Since(start))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// disconnectClient opens a session, streams into the middle of an epoch,
// and vanishes without advancing or closing — the idle reaper's workload.
func disconnectClient(addr, tenant string, o IngressOptions, deadline time.Time, run *ingressRun) {
	for time.Now().Before(deadline) {
		c, err := serve.Dial(addr, tenant, "wc", serve.ClientOptions{Seed: o.Seed, MaxRetries: 2})
		if err != nil {
			run.mu.Lock()
			run.errs++
			run.mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			continue
		}
		_, _ = c.SendStrings(tenant + "_a=1")
		_, _ = c.SendStrings(tenant + "_b=2")
		// Abandon: no Advance, no Close. The session stays mid-epoch until
		// the server's idle reaper collects it.
		run.mu.Lock()
		run.disconnect++
		run.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

// floodClient is the overload producer: raw NDJSON posts with no retries,
// no backoff, and no respect for rejections. Every response is tallied so
// the audit can match offered records against the server's accounting.
func floodClient(addr, tenant string, o IngressOptions, deadline time.Time, run *ingressRun) {
	c, err := serve.Dial(addr, tenant, "wc", serve.ClientOptions{Seed: o.Seed})
	if err != nil {
		run.mu.Lock()
		run.errs++
		run.mu.Unlock()
		return
	}
	defer c.Close()
	url := "http://" + addr + "/v1/sessions/" + c.Session() + "/records"
	hc := &http.Client{}
	var body bytes.Buffer
	for i := 0; time.Now().Before(deadline); i++ {
		body.Reset()
		for r := 0; r < o.Batch; r++ {
			fmt.Fprintf(&body, "%s_%d=%d\n", tenant, i, r)
		}
		start := time.Now()
		resp, err := hc.Post(url, "application/x-ndjson", bytes.NewReader(body.Bytes()))
		if err != nil {
			run.mu.Lock()
			run.errs++
			run.mu.Unlock()
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		run.record(time.Since(start))
		run.mu.Lock()
		run.offered += int64(o.Batch)
		if resp.StatusCode != http.StatusOK {
			run.shedSeen += int64(o.Batch)
		}
		run.mu.Unlock()
	}
}
