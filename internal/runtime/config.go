// Package runtime is the distributed Naiad runtime (§3): workers hosting
// partitions of the physical dataflow graph, data exchange via partitioning
// functions, and the distributed progress-tracking protocol coordinating
// notification delivery.
//
// A Computation simulates a cluster inside one OS process: Config.Processes
// transport domains, each hosting Config.WorkersPerProcess worker
// goroutines. All inter-process traffic is serialized through the transport
// layer (in-memory by default, real TCP loopback optionally), so the code
// paths match a networked deployment; see DESIGN.md for the substitution
// argument.
package runtime

import (
	"fmt"
	"time"

	"naiad/internal/trace"
	"naiad/internal/transport"
)

// Accumulation selects how progress updates are combined before they are
// broadcast (§3.3). The levels correspond to the Figure 6c series.
type Accumulation uint8

const (
	// AccNone broadcasts every update individually from its worker.
	AccNone Accumulation = iota
	// AccLocal combines updates at each process before broadcasting to
	// other processes ("LocalAcc").
	AccLocal
	// AccGlobal routes per-worker batches through a central cluster-level
	// accumulator that broadcasts their net effect ("GlobalAcc").
	AccGlobal
	// AccLocalGlobal combines at the process level and then at the cluster
	// level ("Local+GlobalAcc"), Naiad's default.
	AccLocalGlobal
)

// String names the accumulation mode as Figure 6c labels it.
func (a Accumulation) String() string {
	switch a {
	case AccNone:
		return "None"
	case AccLocal:
		return "LocalAcc"
	case AccGlobal:
		return "GlobalAcc"
	case AccLocalGlobal:
		return "Local+GlobalAcc"
	}
	return fmt.Sprintf("acc(%d)", uint8(a))
}

// Config sizes and parameterizes a Computation.
type Config struct {
	// Processes is the number of simulated processes (transport domains).
	Processes int
	// WorkersPerProcess is the number of worker goroutines per process.
	WorkersPerProcess int
	// Accumulation is the progress-protocol batching level; the zero value
	// is AccNone, but NewComputation defaults it to AccLocalGlobal when the
	// whole Config is zero-valued via DefaultConfig.
	Accumulation Accumulation
	// UseTCP routes inter-process traffic over real loopback TCP sockets
	// instead of the in-memory transport.
	UseTCP bool
	// Transport, when non-nil, is used instead of the built-in in-memory
	// or TCP transport. It must span exactly Processes processes. The
	// computation owns it after Start and closes it in Join. This is how
	// fault-injecting transports (transport.Chaos) are wired in.
	Transport transport.Transport
	// SafetyChecks wires a progress.SafetyMonitor through every worker:
	// ground-truth occurrence accounting plus frontier/termination
	// assertions after every applied batch and before every notification
	// delivery (see docs/protocol.md). Violations abort the computation
	// with a descriptive error from Join. For tests and chaos runs; the
	// cost is a mutex and an O(frontier×outstanding) scan per check.
	SafetyChecks bool
	// Watchdog, when positive, aborts the computation (with an error from
	// Join) if no worker observes any activity for the duration — the
	// never-hang backstop for fault-injection runs, where lost frames
	// would otherwise stall the cluster forever. Leave zero for
	// interactive computations that may legitimately sit idle between
	// epochs.
	Watchdog time.Duration
	// BatchSize caps records per exchange batch; 0 means the default 1024.
	BatchSize int
	// MaxReentrancy bounds synchronous re-entrant delivery into a vertex
	// already executing (§3.2); 0 means the default of 16.
	MaxReentrancy int
	// CheckInvariants enables O(n²) progress-tracker verification after
	// every applied batch. For tests.
	CheckInvariants bool
	// DisableLocalFastPath turns off §3.2's synchronous same-worker
	// delivery, queueing every message instead. Ablation knob: the fast
	// path is what keeps system queues small and latency low.
	DisableLocalFastPath bool
	// NotificationsFirst inverts §3.2's messages-before-notifications
	// worker policy. Ablation knob: delivering messages first reduces the
	// amount of queued data.
	NotificationsFirst bool
	// Tracer, when non-nil, receives typed events and callback latencies
	// from every layer of the runtime (see internal/trace and
	// docs/observability.md). A nil Tracer costs one predictable branch per
	// hook; tracing never blocks the dataflow. The same Tracer may be
	// passed to successive incarnations of the same computation (the
	// supervisor does) and keeps accumulating.
	Tracer *trace.Tracer
}

// DefaultConfig returns a single-process, multi-worker configuration with
// Naiad's default accumulation.
func DefaultConfig(workers int) Config {
	return Config{Processes: 1, WorkersPerProcess: workers, Accumulation: AccLocalGlobal}
}

// Workers returns the total worker count.
func (c Config) Workers() int { return c.Processes * c.WorkersPerProcess }

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 1024
}

func (c Config) maxReentrancy() int {
	if c.MaxReentrancy > 0 {
		return c.MaxReentrancy
	}
	return 16
}

func (c Config) validate() error {
	if c.Processes <= 0 || c.WorkersPerProcess <= 0 {
		return fmt.Errorf("runtime: config needs at least one process and one worker, got %d×%d",
			c.Processes, c.WorkersPerProcess)
	}
	if c.Transport != nil && c.Transport.Processes() != c.Processes {
		return fmt.Errorf("runtime: injected transport spans %d processes, config has %d",
			c.Transport.Processes(), c.Processes)
	}
	return nil
}
