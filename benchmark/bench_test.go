package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Pinned input digests: a generator change that alters what a seed feeds
// must show up here, because it silently invalidates every recorded number.
const (
	inputHashSeed1 = "555be2d99f1b7308"
	inputHashSeed2 = "772b61dd83aabf34"
)

func TestInputsArePinnedBySeed(t *testing.T) {
	for seed, want := range map[int64]string{1: inputHashSeed1, 2: inputHashSeed2} {
		got := strconv.FormatUint(inputHash(seed), 16)
		if got != want {
			t.Errorf("seed %d generates input hash %s, pinned %s", seed, got, want)
		}
		if again := strconv.FormatUint(inputHash(seed), 16); again != got {
			t.Errorf("seed %d is not deterministic: %s then %s", seed, got, again)
		}
	}
}

// TestSeedNeverReachesTheProgram parses the benchmark's own sources and
// fails if any call into (or literal of) a naiad/internal package mentions
// the seed: the program must see generated records only.
func TestSeedNeverReachesTheProgram(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mentionsSeed := func(n ast.Node) bool {
		found := false
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr: // a field named Seed is not the seed; its value might be
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				found = found || strings.Contains(strings.ToLower(n.Name), "seed")
			}
			return !found
		}
		ast.Inspect(n, visit)
		return found
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			internal := make(map[string]bool) // local import names of naiad/internal packages
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "naiad/internal/") || path == "naiad/internal/workload" {
					continue // workload is a data-type package (Edge), not the system
				}
				local := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				internal[local] = true
			}
			fromInternal := func(e ast.Expr) bool {
				if ix, ok := e.(*ast.IndexExpr); ok { // generic instantiation
					e = ix.X
				}
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return false
				}
				id, ok := sel.X.(*ast.Ident)
				return ok && internal[id.Name]
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fromInternal(n.Fun) {
						for _, a := range n.Args {
							if mentionsSeed(a) {
								t.Errorf("%s: %s passes the seed into the program", name, fset.Position(n.Pos()))
							}
						}
					}
				case *ast.CompositeLit:
					if n.Type != nil && fromInternal(n.Type) {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok && mentionsSeed(kv.Value) {
								t.Errorf("%s: %s puts the seed into a program config", name, fset.Position(n.Pos()))
							}
						}
					}
				}
				return true
			})
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q breaks the name or why limits", w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, s := range endToEnd {
		m := c.EndToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		setup = setup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, s := range perLayer {
		if m := c.PerLayer[i]; m.Name != s.name || m.Unit != s.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, s.name, s.unit)
		}
		if !nameRE.MatchString(s.name) || len(s.name) > 64 || seen[s.name] {
			t.Errorf("per-layer name %q is malformed or repeated", s.name)
		}
		seen[s.name] = true
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks the contract's metric sets are complete, the oracle
// passed, nothing failed, and the bypass predictions hold on keycount_mem.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outDir = t.TempDir()
	setupRepeats = 2
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, seconds: 0.4, traced: traced}
			if traced {
				rc.seconds *= 2.5
			}
			o, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			set := endToEnd
			if traced {
				set = perLayer
			}
			for _, s := range set {
				v, ok := o.values[s.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, s.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, s.name, v)
				}
			}
			if o.attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", w.name, traced)
			}
			if traced && w.name == "keycount_mem" {
				for _, zero := range []string{"codec.calls", "transport.data_bytes", "transport.data_frames", "cpu.codec_share", "cpu.transport_share", "span.codec_share", "span.wire_share"} {
					if o.values[zero] != 0 {
						t.Errorf("keycount_mem bypasses codec and transport, yet %s = %v", zero, o.values[zero])
					}
				}
			}
			if traced && w.name == "keycount_tcp" && (o.values["codec.calls"] == 0 || o.values["transport.data_bytes"] == 0) {
				t.Errorf("keycount_tcp must cross the wire: codec.calls=%v transport.data_bytes=%v",
					o.values["codec.calls"], o.values["transport.data_bytes"])
			}
			if traced && o.values["span.sum_error"] > 0.05 {
				t.Errorf("%s: span self times miss the root by %v", w.name, o.values["span.sum_error"])
			}
		}
	}
}

func TestSpanSelfTimesSumToRoot(t *testing.T) {
	tree := &spanTree{}
	tree.root("epoch", []string{"feed", "dataflow", "commit", "notify"}, []int64{0, 10, 100, 110, 120})
	log := &spanLog{}
	log.add("wire", 20, 60)
	log.add("wire", 40, 80) // overlaps the first: only [60,80) is charged
	log.add("codec", 85, 95)
	log.add("codec", 500, 600) // outside every root
	if dropped := tree.adopt(log, "dataflow"); dropped != 1 {
		t.Fatalf("dropped %d leaf spans, want 1", dropped)
	}
	b := tree.breakdown()
	if b.sumError != 0 {
		t.Fatalf("self times miss the root by %v", b.sumError)
	}
	want := map[string]float64{"feed": 10, "dataflow": 20, "wire": 60, "codec": 10, "commit": 10, "notify": 10}
	for n, w := range want {
		if got := b.shares[n] * 120; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("%s self time %v, want %v", n, got, w)
		}
	}
}

func TestCPUSamplesAreChargedToTheRightLayer(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "naiad/internal/lib.FoldByKey[...].func1", "naiad/internal/runtime.(*worker).invokeRecv"}, "lib"},
		{[]string{"encoding/gob.(*Encoder).Encode", "naiad/internal/codec.gobCodec[...].EncodeColumn", "main.(*timedCodec).EncodeColumn", "naiad/internal/runtime.encodeDataInto"}, "codec"},
		{[]string{"encoding/gob.(*Encoder).Encode", "naiad/internal/codec.gobCodec[...].EncodeBatch", "naiad/internal/lib.canonicalBytes[...]", "naiad/internal/runtime.(*worker).deliverNotify"}, "lib"},
		{[]string{"syscall.write", "net.(*conn).Write", "naiad/internal/transport.(*TCP).Send", "naiad/internal/runtime.(*worker).flushData"}, "transport"},
		{[]string{"naiad/internal/timestamp.Timestamp.Less", "naiad/internal/progress.(*Tracker).Apply"}, "progress"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{[]string{"main.zipfRing"}, "benchmark"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("stack %v charged to %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) []setRun {
		var runs []setRun
		for _, v := range vals {
			m := make(map[string]metricValue)
			for _, s := range endToEnd {
				m[s.name] = metricValue{Value: 100, Unit: s.unit}
			}
			m["latency_ms_p50"] = metricValue{Value: v, Unit: "ms"}
			runs = append(runs, setRun{resultLine: resultLine{Correct: true, Attempted: 10, Metrics: m}})
		}
		return runs
	}
	a := &setResult{Runs: map[string][]setRun{
		"keycount_mem": mk(10, 10.1, 9.9, 10), "keycount_tcp": mk(10, 10.1, 9.9, 10), "loop_tcp": mk(10, 10.1, 9.9, 10)}}
	b := &setResult{Runs: map[string][]setRun{
		"keycount_mem": mk(10.2, 10.3, 10.1, 10.2), // +2 %: ok
		"keycount_tcp": mk(13, 13.1, 12.9, 13),     // +30 %: worse
		"loop_tcp":     mk(8, 10, 12, 14)}}         // spread wider than the bound: unresolved
	b.Runs["loop_tcp"][0].Failed = 1
	got := make(map[string]string)
	for _, r := range compareSets(a, b) {
		if r.metric == "latency_ms_p50" || r.metric == "ops_failed/ops_attempted" {
			got[r.workload+"/"+r.metric] = r.verdict
		}
	}
	want := map[string]string{
		"keycount_mem/latency_ms_p50": "ok", "keycount_tcp/latency_ms_p50": "worse", "loop_tcp/latency_ms_p50": "unresolved",
		"keycount_mem/ops_failed/ops_attempted": "ok", "loop_tcp/ops_failed/ops_attempted": "worse",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: verdict %q, want %q", k, got[k], w)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	s := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	if q1, q3 := quartile(s, 1), quartile(s, 3); q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestRefusesOversubscribedHost(t *testing.T) {
	t.Setenv("GOMAXPROCS", "4096")
	if err := checkHost(); err == nil {
		t.Error("GOMAXPROCS above nproc was accepted")
	}
}
