// Command benchmark is the repository's one end-to-end benchmark: five
// workloads that each lean on a different layer, a fixed set of end-to-end
// metrics measured with tracing off, and a separate traced run that gives
// the per-layer numbers. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every choice.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//	benchmark --seed N [--seconds S] [--trace 1]              every workload, one fresh process each
//	benchmark compare A.json B.json                           verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"
)

// spec names one metric with its unit, exactly as BENCHMARK.json lists it;
// end-to-end metrics also carry their direction and regression bound.
type spec struct {
	name, unit string
	better     string
	bound      float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one; README.md says what each means per workload.
var endToEnd = []spec{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run. A metric that does not apply
// to a workload reads 0 there — which is itself a prediction (codec.calls on
// keycount_mem).
var perLayer = []spec{
	{name: "serve.send_ms_p50", unit: "ms"}, {name: "serve.ack_ms_p50", unit: "ms"}, {name: "serve.admit_wait_ms_p50", unit: "ms"},
	{name: "serve.read_ms_p50", unit: "ms"}, {name: "serve.records_per_epoch", unit: "count"}, {name: "serve.shed_share", unit: "share"},

	{name: "runtime.feed_us_p50", unit: "us"}, {name: "runtime.feed_to_done_ms_p50", unit: "ms"},
	{name: "runtime.callback_busy_share", unit: "share"}, {name: "runtime.sched_idle_share", unit: "share"},
	{name: "runtime.records_delivered", unit: "count"}, {name: "runtime.notifications", unit: "count"},
	{name: "runtime.rps_1w", unit: "1/s"}, {name: "runtime.speedup_2w", unit: "x"},

	{name: "batchbuf.alloc_b_per_rec", unit: "B"}, {name: "batchbuf.gc_cycles", unit: "count"},

	{name: "lib.count_busy_us_per_krec", unit: "us"}, {name: "lib.sink_seal_ms_p50", unit: "ms"},
	{name: "lib.sink_commit_ms_p50", unit: "ms"}, {name: "lib.sink_batch_bytes", unit: "B"},

	{name: "codec.calls", unit: "count"}, {name: "codec.encode_ns_per_rec", unit: "ns"},
	{name: "codec.decode_ns_per_rec", unit: "ns"}, {name: "codec.bytes_per_rec", unit: "B"},

	{name: "transport.data_frames", unit: "count"}, {name: "transport.data_bytes", unit: "B"},
	{name: "transport.records_per_data_frame", unit: "count"}, {name: "transport.progress_frames", unit: "count"},
	{name: "transport.progress_bytes", unit: "B"}, {name: "transport.wire_us_p50", unit: "us"},
	{name: "transport.frames_dropped", unit: "count"},

	{name: "progress.iter_us_p50", unit: "us"}, {name: "progress.frames_per_iter", unit: "count"},
	{name: "progress.updates_per_epoch", unit: "count"}, {name: "progress.commit_to_probe_ms_p50", unit: "ms"},
	{name: "progress.frontier_lag_ms_max", unit: "ms"},

	{name: "supervise.cuts", unit: "count"}, {name: "supervise.cut_bytes", unit: "B"}, {name: "supervise.cut_aborts", unit: "count"},
	{name: "supervise.selective_revivals", unit: "count"}, {name: "supervise.full_restarts", unit: "count"},
	{name: "supervise.last_recovery_ms_p50", unit: "ms"}, {name: "supervise.stall_ms_p50", unit: "ms"},
	{name: "supervise.nocrash_rps", unit: "1/s"},

	{name: "span.feed_share", unit: "share"}, {name: "span.dataflow_share", unit: "share"}, {name: "span.codec_share", unit: "share"},
	{name: "span.wire_share", unit: "share"}, {name: "span.commit_share", unit: "share"}, {name: "span.notify_share", unit: "share"},
	{name: "span.send_share", unit: "share"}, {name: "span.read_share", unit: "share"},
	{name: "span.revive_share", unit: "share"}, {name: "span.catchup_share", unit: "share"},
	{name: "span.sum_error", unit: "share"},

	{name: "cpu.runtime_share", unit: "share"}, {name: "cpu.progress_share", unit: "share"}, {name: "cpu.lib_share", unit: "share"},
	{name: "cpu.batchbuf_share", unit: "share"}, {name: "cpu.codec_share", unit: "share"}, {name: "cpu.transport_share", unit: "share"},
	{name: "cpu.serve_share", unit: "share"}, {name: "cpu.supervise_share", unit: "share"}, {name: "cpu.trace_share", unit: "share"},
	{name: "cpu.gc_share", unit: "share"}, {name: "cpu.benchmark_share", unit: "share"}, {name: "cpu.other_share", unit: "share"},
	{name: "cpu.busy_cores", unit: "count"},

	{name: "tail.latency_ms_p95", unit: "ms"},

	{name: "trace.overhead_share", unit: "share"}, {name: "trace.events_dropped", unit: "count"},
}

// scenario is one benchmark workload.
type scenario struct {
	name string
	why  string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []scenario{
	{"keycount_mem", "1 process x 2 workers in memory: runtime, batchbuf, operators and sink do the work; codec and transport do none", runKeycountMem},
	{"keycount_tcp", "same dataflow over 2 processes x 1 worker on loopback TCP: half the records cross codec and transport", runKeycountTCP},
	{"loop_tcp", "WCC over seed-permuted chains on TCP: about five hundred hops moving a few records each, so progress and small frames set the time", runLoopTCP},
	{"door_rw", "2 closed-loop clients write then read their own write through the HTTP front door: admission, batcher dwell and read wake-up carry the latency", runDoorRW},
	{"crash_replay", "the keycount dataflow under the supervisor with a worker crash every few dozen epochs: cut, log, park, revive and replay do the work", runCrashReplay},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// span is a fraction of the run's measured seconds.
func (rc runConfig) span(fraction float64) time.Duration {
	return time.Duration(rc.seconds * fraction * float64(time.Second))
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64 // every metric of the requested set
	dists             map[string]dist    // in-run distribution, where the value is a quantile of samples
	notes             []string
}

func newOutcome(set []spec) *outcome {
	o := &outcome{values: make(map[string]float64), dists: make(map[string]dist)}
	for _, s := range set {
		o.values[s.name] = 0
	}
	return o
}

// median records a metric as the median of its in-run samples, keeping the
// samples' distribution for the report.
func (o *outcome) median(name string, samples []float64) {
	d := summarize(samples)
	o.dists[name], o.values[name] = d, d.Median
}

// endToEnd fills the end-to-end set from an untraced run's samples: set-up
// durations, throughput samples and latency samples.
func (o *outcome) endToEnd(setupS, rates, latencyMS []float64) {
	o.median("setup_s", setupS)
	o.median("throughput_rps", rates)
	o.median("latency_ms_p50", latencyMS)
	o.values["peak_rss_mb"] = peakRSSMB()
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hygiene stamps a result with the conditions it was measured under.
type hygiene struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	InputHash  string  `json:"input_hash"`
	Seconds    float64 `json:"seconds"`
	StealShare float64 `json:"steal_share"` // CPU time the hypervisor withheld during the run
}

// outDir is where trace and result files go: benchmark/out from the
// repository root, out from inside the benchmark directory.
var outDir = func() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}()

// bootTotal and bootSteal are the host's CPU ticks when the process started.
var bootTotal, bootSteal = cpuTicks()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, one fresh process each")
		seed    = flag.Int64("seed", 1, "input seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		repeat  = flag.Int("repeat", 1, "with no --workload: runs per workload in the set (4 or more lets compare see the spread)")
	)
	flag.Parse()
	if err := checkHost(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traced != 0}

	if *name == "" {
		os.Exit(runAll(rc, max(*repeat, 1)))
	}
	for _, w := range workloads {
		if w.name == *name {
			os.Exit(runOne(w, rc))
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
	os.Exit(2)
}

// checkHost sizes the run for the machine: GOMAXPROCS follows nproc and is
// never allowed above it — more runnable threads than cores turns every
// latency into a scheduler lottery.
func checkHost() error {
	nproc := goruntime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > nproc {
			return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; refusing to measure an oversubscribed host", n, nproc)
		}
	}
	if goruntime.GOMAXPROCS(0) > nproc {
		goruntime.GOMAXPROCS(nproc)
	}
	return nil
}

func stamp(rc runConfig) hygiene {
	total, steal := cpuTicks()
	return hygiene{
		NProc: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(),
		Commit: commitID(), Seed: rc.seed, InputHash: fmt.Sprintf("%016x", inputHash(rc.seed)), Seconds: rc.seconds,
		StealShare: share(steal-bootSteal, total-bootTotal),
	}
}

// commitID names the measured source tree: git HEAD when the tree is a
// repository, "unversioned" in an exported checkout (git is told not to look
// above the working directory, so an enclosing repository is not mistaken
// for this one).
func commitID() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unversioned"
	}
	return strings.TrimSpace(string(out))
}

// runOne measures one workload in this process and prints the contract's
// result line last. A failed oracle or a broken run exits non-zero without a
// result line: a wrong answer is never reported as a latency.
func runOne(w scenario, rc runConfig) int {
	set := endToEnd
	if rc.traced {
		set = perLayer
	}
	// No run may outlive the contract's limit, whatever the program under
	// test does: a hang becomes a failed run, not a stuck one.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: run exceeded 170 s; giving up\n", w.name)
		os.Exit(3)
	})
	o, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	h, _ := json.Marshal(stamp(rc))
	fmt.Printf("# %s trace=%v %s\n", w.name, rc.traced, h)
	line := resultLine{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	for _, s := range set {
		v, ok := o.values[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", w.name, s.name)
			return 1
		}
		line.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		if d, ok := o.dists[s.name]; ok {
			fmt.Printf("%-34s %14.4f %-6s n=%d min=%.4f median=%.4f p95=%.4f max=%.4f\n", s.name, v, s.unit, d.N, d.Min, d.Median, d.P95, d.Max)
		} else {
			fmt.Printf("%-34s %14.4f %-6s\n", s.name, v, s.unit)
		}
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "ops_attempted", o.attempted, "ops_failed", o.failed)
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	if d, err := json.Marshal(o.dists); err == nil {
		fmt.Println(distsPrefix + string(d))
	}
	if line.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: nothing was attempted\n", w.name)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setResult is the file one full set of runs leaves in out/: the hygiene
// stamp plus each workload's result line. compare reads two of them.
type setResult struct {
	Hygiene hygiene             `json:"hygiene"`
	Traced  bool                `json:"traced"`
	Runs    map[string][]setRun `json:"runs"` // workload → one result per repeat
	Claim   *string             `json:"claim"`
}

// setRun is one run inside a set: the contract's result line plus the
// in-run distribution (n, min/median/p95/max) behind each quantile metric.
type setRun struct {
	resultLine
	Dists map[string]dist `json:"dists,omitempty"`
}

// distsPrefix marks the report line that carries a run's distributions to
// runAll; the contract's result line itself has exactly four keys.
const distsPrefix = "dists: "

// runAll runs every workload in a fresh process each (clean heap, clean
// RSS high-water mark), echoes their reports, and writes the set to
// out/result-seed<N>[-trace].json.
func runAll(rc runConfig, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := setResult{Hygiene: stamp(rc), Traced: rc.traced, Runs: make(map[string][]setRun)}
	trace := "0"
	if rc.traced {
		trace = "1"
	}
	for i := 0; i < repeat*len(workloads); i++ {
		w := workloads[i%len(workloads)]
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(rc.seed, 10),
			"--seconds", strconv.FormatFloat(rc.seconds, 'f', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var run setRun
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.resultLine); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: result line: %v\n", w.name, err)
			return 1
		}
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, distsPrefix); ok {
				_ = json.Unmarshal([]byte(rest), &run.Dists) // a report line, not the contract: best effort
			}
		}
		set.Runs[w.name] = append(set.Runs[w.name], run)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", rc.seed))
	if rc.traced {
		path = filepath.Join(outDir, fmt.Sprintf("result-seed%d-trace.json", rc.seed))
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var failed int64
	for _, runs := range set.Runs {
		for _, r := range runs {
			failed += r.Failed
		}
	}
	fmt.Printf("{\"result_file\": %q, \"workloads\": %d, \"runs_each\": %d, \"ops_failed\": %d, \"claim\": null}\n",
		path, len(set.Runs), repeat, failed)
	return 0
}
