// Command naiad-bench regenerates the paper's tables and figures: one
// experiment per table/figure of the SOSP 2013 evaluation, plus the chaos
// battery and the serving-door overload audit, printed as aligned text
// tables. See EXPERIMENTS.md for recorded runs and the paper-vs-measured
// comparison. It is not the performance judge: layer and end-to-end
// numbers come from `bash benchmark/run.sh` (benchmark/README.md).
//
// Usage:
//
//	naiad-bench -exp=all          # run everything at default scale
//	naiad-bench -exp=6a,6c,t1     # run a subset
//	naiad-bench -exp=6d -scale=2  # double the workload sizes
//
// An id that names no experiment exits 2 before anything runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"naiad/internal/harness"
)

// retired maps the ids of the experiments the end-to-end benchmark
// superseded to the run.sh arguments and metrics that now measure the same
// layer.
var retired = map[string]string{
	"progress": "--workload loop_tcp (cpu.progress_share, progress.iter_us_p50)",
	"pipeline": "--workload keycount_mem (runtime.rps_1w, batchbuf.alloc_b_per_rec)",
	"recovery": "--workload crash_replay (span.revive_share, span.catchup_share, supervise.last_recovery_ms_p50)",
	"trace":    "--workload keycount_mem --trace 1 (trace.overhead_share)",
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: 6a,6b,6c,6d,6e,t1,7a,7b,7c,8,chaos,ingress or 'all'")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	jsonPath := flag.String("json", "", "also write the reports of the run experiments to this file as JSON")
	// Child mode: -exp=ingress re-execs this binary as the server processes.
	ingressServer := flag.Bool("ingress-server", false, "run as an ingress server child process (internal; used by -exp=ingress)")
	ingressCredits := flag.Int("ingress-credits", 0, "ingress server child: global credit pool (0 = steady default)")
	ingressSlowMS := flag.Int("ingress-slow-ms", 0, "ingress server child: per-epoch dataflow slowdown in ms")
	ingressSeed := flag.Int64("ingress-seed", 1, "ingress server child: PRNG seed")
	flag.Parse()

	if *ingressServer {
		err := harness.IngressServerMain(harness.IngressServerOptions{
			Credits:     *ingressCredits,
			SlowEpochMS: *ingressSlowMS,
			Seed:        *ingressSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "naiad-bench: ingress server: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// all is what -exp=all runs, in this order.
	all := []string{"6a", "6b", "6c", "6d", "6e", "t1", "7a", "7b", "7c", "8", "chaos", "ingress"}
	experiments := map[string]func(scale int) (*harness.Report, error){
		"6a": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig6a()
			o.RecordsPerWorker *= k
			return harness.Fig6a(o)
		},
		"6b": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig6b()
			o.Iterations *= int64(k)
			return harness.Fig6b(o)
		},
		"6c": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig6c()
			o.Nodes *= k
			o.Edges *= k
			return harness.Fig6c(o)
		},
		"6d": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig6d()
			o.Documents *= k
			o.Edges *= k
			o.Nodes *= k
			return harness.Fig6d(o)
		},
		"6e": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig6e()
			o.DocsPerWorker *= k
			o.EdgesPerWorker *= k
			o.NodesPerWorker *= k
			return harness.Fig6e(o)
		},
		"t1": func(k int) (*harness.Report, error) {
			o := harness.DefaultTable1()
			o.PRNodes *= k
			o.PREdges *= k
			o.WCCLen *= k
			o.ASPLen *= k
			return harness.Table1(o)
		},
		"7a": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig7a()
			o.Nodes *= k
			o.Edges *= k
			return harness.Fig7a(o)
		},
		"7b": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig7b()
			o.Records *= k
			return harness.Fig7b(o)
		},
		"7c": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig7c()
			o.TweetsPerEpoch *= k
			return harness.Fig7c(o)
		},
		"8": func(k int) (*harness.Report, error) {
			o := harness.DefaultFig8()
			o.TweetsPerEpoch *= k
			return harness.Fig8(o)
		},
		"chaos": func(k int) (*harness.Report, error) {
			o := harness.DefaultChaos()
			o.Nodes *= k
			o.Edges *= k
			return harness.Chaos(o)
		},
		"ingress": func(k int) (*harness.Report, error) {
			o := harness.DefaultIngress()
			o.Duration *= time.Duration(k)
			o.OverloadDuration *= time.Duration(k)
			bin, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("resolving server binary: %w", err)
			}
			o.ServerBin = bin
			return harness.Ingress(o)
		},
	}

	ids := all
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	bad := false
	for i, id := range ids {
		id = strings.TrimSpace(id)
		ids[i] = id
		if hint, ok := retired[id]; ok {
			fmt.Fprintf(os.Stderr, "naiad-bench: experiment %q is retired; measure it with: bash benchmark/run.sh %s\n", id, hint)
		} else if experiments[id] == nil {
			fmt.Fprintf(os.Stderr, "naiad-bench: unknown experiment %q\n", id)
		} else {
			continue
		}
		bad = true
	}
	if bad {
		os.Exit(2)
	}
	var reports []*harness.Report
	for _, id := range ids {
		rep, err := experiments[id](*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "naiad-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(rep)
		reports = append(reports, rep)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "naiad-bench: encoding %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "naiad-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
