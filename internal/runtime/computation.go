package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"naiad/internal/batchbuf"
	"naiad/internal/codec"
	"naiad/internal/graph"
	"naiad/internal/progress"
	ts "naiad/internal/timestamp"
	"naiad/internal/transport"
)

// Partitioner maps a record to an integer; the system routes all records
// that map to the same integer (mod the destination parallelism) to the
// same downstream vertex (§3.1). A nil partitioner delivers each message to
// the destination vertex co-located with the sender.
type Partitioner func(Message) uint64

// BatchPartitioner is the vectorized form: in one typed pass over a batch's
// column it fills dst (exactly b.Len() entries) with each record's
// destination — its hash mod peers — and reports whether every record has
// the same one. It reports ok false, leaving dst undefined, when the
// column's element type is foreign: the router then falls back to the boxed
// Partitioner per record. Both partitioners of a connector must agree on
// every record's hash.
type BatchPartitioner func(b *batchbuf.Batch, peers int, dst []uint32) (same, ok bool)

// TypedPartitioner builds the boxed and vectorized partitioners of a
// connector from one typed hash function, guaranteeing they agree; the
// vectorized one reads the []T column unboxed, calling h once per record.
func TypedPartitioner[T any](h func(T) uint64) (Partitioner, BatchPartitioner) {
	part := func(m Message) uint64 { return h(m.(T)) }
	bpart := func(b *batchbuf.Batch, peers int, dst []uint32) (same, ok bool) {
		data, ok := batchbuf.Data[T](b)
		if !ok {
			return false, false
		}
		dst = dst[:len(data)]
		var diff uint32
		for i, v := range data {
			dst[i] = bucket(h(v), peers)
			diff |= dst[i] ^ dst[0]
		}
		return diff == 0, true
	}
	return part, bpart
}

// bucket reduces a record's hash to one of peers destinations: h mod peers,
// by a mask when peers is a power of two.
func bucket(h uint64, peers int) uint32 {
	if p := uint64(peers); p&(p-1) == 0 {
		return uint32(h & (p - 1))
	}
	return uint32(h % uint64(peers))
}

// StageID identifies a stage of a Computation (aliasing the logical graph's
// id space).
type StageID = graph.StageID

// stageInfo is the runtime's view of a logical stage.
type stageInfo struct {
	id          graph.StageID
	name        string
	role        graph.Role
	factory     VertexFactory
	numPorts    int
	outPorts    [][]graph.ConnectorID
	pinned      int // worker id, or -1 for one vertex per worker
	reentrancy  int // max synchronous re-entrant deliveries; 0 = config default
	maxIter     int64
	hasMaxIter  bool
	logged      bool // deliveries are written to the computation's log sink
	checkpoints bool // set when any constructed vertex implements Checkpointer
}

func (s *stageInfo) parallelism(workers int) int {
	if s.pinned >= 0 {
		return 1
	}
	return workers
}

// vertexFor maps a destination vertex index to its hosting worker.
func (s *stageInfo) workerFor(vertexIdx int) int {
	if s.pinned >= 0 {
		return s.pinned
	}
	return vertexIdx
}

// connInfo is the runtime's view of a logical connector.
type connInfo struct {
	id       graph.ConnectorID
	src, dst graph.StageID
	srcPort  int
	inputIdx int // index among dst's inputs, in connection order
	part     Partitioner
	bpart    BatchPartitioner // optional vectorized form of part
	cod      codec.Codec
}

// StageOption customizes AddStage.
type StageOption func(*stageInfo)

// Pinned places the stage's single vertex on the given worker instead of
// one vertex per worker.
func Pinned(worker int) StageOption {
	return func(s *stageInfo) { s.pinned = worker }
}

// Ports declares the number of output ports (default 1). SendBy(i, …)
// emits on every connector attached to port i.
func Ports(n int) StageOption {
	return func(s *stageInfo) { s.numPorts = n }
}

// Reentrancy permits up to depth synchronous re-entrant deliveries into a
// vertex of this stage (§3.2); the default is 1 (not re-entrant).
func Reentrancy(depth int) StageOption {
	return func(s *stageInfo) { s.reentrancy = depth }
}

// MaxIterations makes a feedback stage drop messages whose loop counter has
// reached n, bounding the iterations of a loop.
func MaxIterations(n int64) StageOption {
	return func(s *stageInfo) { s.maxIter, s.hasMaxIter = n, true }
}

// Logged records every message delivered to this stage in the computation's
// log sink before the vertex sees it — the continual-logging fault
// tolerance mode of §3.4 / Figure 7c.
func Logged() StageOption {
	return func(s *stageInfo) { s.logged = true }
}

// Computation owns a timely dataflow graph and the cluster executing it.
// Build the dataflow single-threaded (AddStage/Connect/NewInput), then call
// Start, feed the inputs, and Join.
type Computation struct {
	cfg    Config
	lg     *graph.Graph
	stages []*stageInfo
	conns  []*connInfo
	inputs []*Input
	probes []*Probe

	trans    transport.Transport
	procs    []*process
	workers  []*worker
	globAcc  *accumulator
	accs     []*accumulator // per-process accumulators (AccLocal modes)
	workerWG sync.WaitGroup

	maxEpoch atomic.Int64 // highest epoch opened across inputs
	started  bool
	// running is set at the very end of a successful Start. CrashWorker
	// gates on it: the supervisor rebuilds computations on its own
	// goroutine, so a fault-injecting caller can race Start on the new
	// incarnation — the acquire/release pair orders Start's writes (the
	// worker table, the installed handlers) before any crash injection.
	running  atomic.Bool
	finished atomic.Bool
	aborted  atomic.Bool
	abortCh  chan struct{} // closed on the first fail/Abort
	failMu   sync.Mutex
	failErr  error

	monitor  *progress.SafetyMonitor
	activity atomic.Int64 // bumped on every mailbox push and worker quantum

	// Asynchronous barrier snapshots / selective rollback (see barrier.go).
	onCut         func(cut int64, snap *CutSnapshot, err error)
	onWorkerCrash func(worker int)
	cutMu         sync.Mutex
	curCut        *cutState
	lastCutID     int64

	logMu    sync.Mutex
	logSink  LogSink
	logCount atomic.Int64

	counters *stageCounters
	recovery *RecoveryMetrics
}

// LogSink receives continually-logged message batches (§3.4). Writes are
// serialized by the computation.
type LogSink interface {
	LogBatch(stage StageID, payload []byte) error
}

// NewComputation returns an empty computation with the given configuration.
func NewComputation(cfg Config) (*Computation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Computation{cfg: cfg, lg: graph.New(), abortCh: make(chan struct{})}, nil
}

// Config returns the computation's configuration.
func (c *Computation) Config() Config { return c.cfg }

// AddStage adds a stage with the given timestamp role and loop depth. The
// factory runs once per vertex, on its owning worker, at Start.
func (c *Computation) AddStage(name string, role graph.Role, depth uint8, factory VertexFactory, opts ...StageOption) StageID {
	if c.started {
		panic("runtime: AddStage after Start")
	}
	id := c.lg.AddStage(name, role, depth)
	si := &stageInfo{id: id, name: name, role: role, factory: factory, numPorts: 1, pinned: -1}
	for _, o := range opts {
		o(si)
	}
	si.outPorts = make([][]graph.ConnectorID, si.numPorts)
	c.stages = append(c.stages, si)
	return id
}

// Connect attaches src's output port srcPort to a new input of dst. The
// partitioner routes records between parallel vertices (nil keeps them
// local); the codec serializes records that cross process boundaries and
// may be nil only in single-process configurations. It returns the input
// index dst will observe in OnRecv.
func (c *Computation) Connect(src StageID, srcPort int, dst StageID, part Partitioner, cod codec.Codec) int {
	return c.ConnectBatch(src, srcPort, dst, part, nil, cod)
}

// ConnectBatch is Connect with an optional vectorized partitioner: when a
// whole typed batch crosses the connector, bpart computes its records'
// destinations in one pass instead of boxing each record through part.
// bpart may be nil; when set, part must still be provided (it remains the
// fallback for boxed batches) and must agree with bpart on every record.
func (c *Computation) ConnectBatch(src StageID, srcPort int, dst StageID, part Partitioner, bpart BatchPartitioner, cod codec.Codec) int {
	if c.started {
		panic("runtime: Connect after Start")
	}
	if bpart != nil && part == nil {
		panic("runtime: ConnectBatch with a batch partitioner but no record partitioner")
	}
	if cod == nil && c.cfg.Processes > 1 {
		panic(fmt.Sprintf("runtime: connector %s→%s needs a codec in multi-process configurations",
			c.stages[src].name, c.stages[dst].name))
	}
	ss := c.stages[src]
	if srcPort < 0 || srcPort >= ss.numPorts {
		panic(fmt.Sprintf("runtime: stage %s has %d ports, not %d", ss.name, ss.numPorts, srcPort+1))
	}
	id := c.lg.AddConnector(src, dst)
	ci := &connInfo{id: id, src: src, dst: dst, srcPort: srcPort,
		inputIdx: len(c.lg.Inputs(dst)) - 1, part: part, bpart: bpart, cod: cod}
	c.conns = append(c.conns, ci)
	ss.outPorts[srcPort] = append(ss.outPorts[srcPort], id)
	return ci.inputIdx
}

// SetLogSink installs the sink for Logged stages. Must be set before Start
// when any stage uses Logged.
func (c *Computation) SetLogSink(s LogSink) { c.logSink = s }

// LoggedBatches returns the number of batches written to the log sink.
func (c *Computation) LoggedBatches() int64 { return c.logCount.Load() }

// Graph exposes the underlying logical graph (frozen after Start).
func (c *Computation) Graph() *graph.Graph { return c.lg }

// TransportStats returns the traffic counters (valid after Start).
func (c *Computation) TransportStats() *transport.Stats { return c.trans.Stats() }

// Start freezes the graph, builds the cluster, and launches the workers.
func (c *Computation) Start() error {
	if c.started {
		return fmt.Errorf("runtime: already started")
	}
	for _, si := range c.stages {
		if !si.logged {
			continue
		}
		if c.logSink == nil {
			return fmt.Errorf("runtime: stage %s is Logged but no log sink is set", si.name)
		}
		// Logging serializes every delivered batch, so each in-connector
		// needs a codec even in single-process configurations.
		for _, cid := range c.lg.Inputs(si.id) {
			if c.conns[cid].cod == nil {
				return fmt.Errorf("runtime: Logged stage %s needs a codec on connector from %s",
					si.name, c.stages[c.conns[cid].src].name)
			}
		}
	}
	if c.onCut != nil || c.onWorkerCrash != nil {
		// Barrier snapshots log in-flight channel batches serialized, and
		// delivery logs re-decode batches on replay: every connector needs a
		// codec even in single-process configurations.
		for _, ci := range c.conns {
			if ci.cod == nil {
				return fmt.Errorf("runtime: barrier snapshots need a codec on connector %s→%s",
					c.stages[ci.src].name, c.stages[ci.dst].name)
			}
		}
	}
	if err := c.lg.Freeze(); err != nil {
		return err
	}
	c.started = true
	c.counters = newStageCounters(len(c.stages))

	switch {
	case c.cfg.Transport != nil:
		c.trans = c.cfg.Transport
	case c.cfg.UseTCP:
		t, err := transport.NewTCPLoopback(c.cfg.Processes)
		if err != nil {
			return err
		}
		c.trans = t
	default:
		c.trans = transport.NewMem(c.cfg.Processes)
	}
	if tr := c.cfg.Tracer; tr != nil {
		if err := c.attachTracer(tr); err != nil {
			return err
		}
		c.trans = observeTransport(c.trans, tr)
	}

	// Safety monitor (§3.3's invariants, checked for real): seed the
	// ground truth exactly as every worker seeds its tracker.
	if c.cfg.SafetyChecks {
		c.monitor = progress.NewSafetyMonitor(c.lg)
		for _, si := range c.stages {
			if si.role != graph.RoleInput {
				continue
			}
			c.monitor.Seed(progress.Pointstamp{Time: ts.Root(0), Loc: graph.StageLoc(si.id)},
				int64(si.parallelism(c.cfg.Workers())))
		}
	}

	// Accumulators (§3.3).
	switch c.cfg.Accumulation {
	case AccGlobal, AccLocalGlobal:
		c.globAcc = newAccumulator(func(us []update) { c.broadcastProgress(0, us) })
	}
	if c.cfg.Accumulation == AccLocal || c.cfg.Accumulation == AccLocalGlobal {
		c.accs = make([]*accumulator, c.cfg.Processes)
		for p := 0; p < c.cfg.Processes; p++ {
			p := p
			emit := func(us []update) { c.broadcastProgress(p, us) }
			if c.cfg.Accumulation == AccLocalGlobal {
				emit = func(us []update) { c.sendToGlobalAcc(p, us) }
			}
			c.accs[p] = newAccumulator(emit)
		}
	}

	// Processes and workers.
	c.procs = make([]*process, c.cfg.Processes)
	c.workers = make([]*worker, c.cfg.Workers())
	for p := 0; p < c.cfg.Processes; p++ {
		c.procs[p] = &process{comp: c, id: p}
	}
	for wid := 0; wid < c.cfg.Workers(); wid++ {
		proc := wid / c.cfg.WorkersPerProcess
		w := newWorker(c, wid, proc)
		c.workers[wid] = w
		c.procs[proc].workers = append(c.procs[proc].workers, w)
	}
	for p := 0; p < c.cfg.Processes; p++ {
		proc := c.procs[p]
		c.trans.SetHandler(p, proc.onFrame)
	}
	// A transport that can lose a frame it accepted (a dead or corrupt TCP
	// link, a chaos crash) reports it; the loss aborts the computation
	// with an error from Join instead of a hang on frames that will never
	// arrive. Installed once the workers exist, which c.fail closes.
	if fr, ok := c.trans.(transport.FailReporter); ok {
		fr.SetOnFail(c.fail)
	}
	for _, w := range c.workers {
		c.workerWG.Add(1)
		go w.run()
	}
	if c.cfg.Watchdog > 0 {
		go c.watchdog()
	}
	c.running.Store(true)
	return nil
}

// watchdog aborts the computation when no activity is observed for the
// configured duration — the never-hang backstop for fault injection.
func (c *Computation) watchdog() {
	interval := c.cfg.Watchdog
	last := c.activity.Load()
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-c.abortCh:
			return
		case <-t.C:
		}
		if c.finished.Load() {
			return
		}
		cur := c.activity.Load()
		if cur == last {
			c.fail(fmt.Errorf("runtime: watchdog: no worker activity for %v: computation stalled (lost frames or a dead peer?)", interval))
			return
		}
		last = cur
		t.Reset(interval)
	}
}

// Join waits for the computation to drain (all inputs closed and every
// event retired) and releases all resources. It returns the first vertex
// panic, if any.
func (c *Computation) Join() error {
	c.workerWG.Wait()
	c.finished.Store(true)
	if c.globAcc != nil {
		c.globAcc.close()
	}
	for _, a := range c.accs {
		a.close()
	}
	c.trans.Close()
	c.failMu.Lock()
	err := c.failErr
	c.failMu.Unlock()
	for _, p := range c.probes {
		p.finish(err)
	}
	return err
}

// Abort terminates the computation with the given error: workers stop,
// probes unblock, and Join returns err (the first error wins). External
// failure detectors — the chaos transport's crash callback, cluster
// management noticing a dead peer — use it to turn silent hangs into
// loud, attributable failures.
func (c *Computation) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("runtime: aborted")
	}
	c.fail(err)
}

// fail records the first error and aborts all workers.
func (c *Computation) fail(err error) {
	c.failMu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	c.failMu.Unlock()
	if !c.aborted.Swap(true) {
		close(c.abortCh)
		for _, w := range c.workers {
			w.mailbox.close()
		}
		c.failMu.Lock()
		first := c.failErr
		c.failMu.Unlock()
		for _, p := range c.probes {
			p.finish(first)
		}
	}
}

// Failed reports whether the computation has aborted.
func (c *Computation) Failed() bool { return c.aborted.Load() }

// Err returns the first failure recorded so far (nil while healthy). Join
// returns the same error after teardown; Err is for observers — the
// supervisor, tests — that need it while workers are still winding down.
func (c *Computation) Err() error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.failErr
}

// SetRecoveryMetrics attaches shared fault-tolerance counters. The
// supervisor passes the same instance to every incarnation of a
// computation, so restart and checkpoint counts survive teardown. Must be
// called before Start.
func (c *Computation) SetRecoveryMetrics(rm *RecoveryMetrics) {
	if c.started {
		panic("runtime: SetRecoveryMetrics after Start")
	}
	c.recovery = rm
}

// stage returns the stageInfo by id.
func (c *Computation) stage(id StageID) *stageInfo { return c.stages[id] }

// conn returns the connInfo by id.
func (c *Computation) conn(id graph.ConnectorID) *connInfo { return c.conns[id] }

// logBatch serializes a Logged stage's delivered batch to the sink.
func (c *Computation) logBatch(stage StageID, payload []byte) {
	c.logMu.Lock()
	err := c.logSink.LogBatch(stage, payload)
	c.logMu.Unlock()
	c.logCount.Add(1)
	if err != nil {
		c.fail(fmt.Errorf("runtime: log sink: %w", err))
	}
}
