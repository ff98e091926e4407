// Command univibench regenerates the tables and figures of the UniviStor
// paper's evaluation (CLUSTER'18, §III) on the simulated cluster.
//
// Usage:
//
//	univibench -fig fig6a                 # one figure at paper scale
//	univibench -all -quick                # every figure, laptop scale
//	univibench -fig fig9 -scales 64,512   # custom process counts
//	univibench -list                      # show available figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"univistor/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure id to regenerate (see -list)")
		all      = flag.Bool("all", false, "regenerate every figure and ablation")
		quick    = flag.Bool("quick", false, "laptop-scale sweep (small scales, small data)")
		scales   = flag.String("scales", "", "comma-separated process counts (overrides default sweep)")
		verbose  = flag.Bool("v", false, "print progress per data point")
		list     = flag.Bool("list", false, "list available figure ids")
		traceTo  = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) of each run to this path (last run wins)")
		smoke    = flag.Bool("chaos-smoke", false, "run every figure with fault injection armed and sweep all invariants; exit 1 on any violation")
		spec     = flag.String("chaos-spec", "", "chaos spec for -chaos-smoke (default: the built-in non-destructive schedule)")
		perf     = flag.Bool("perf", false, "time the figure sweeps under the incremental and global allocators and write the comparison JSON")
		perfOut  = flag.String("out", "BENCH_PR10.json", "output path for the -perf report")
		perfReps = flag.Int("perf-reps", 3, "repetitions per sweep and mode in -perf (best-of)")
		perfFigs = flag.String("perf-figs", "", "comma-separated figure ids for -perf (default: fig5a,fig6a,fig7,fig8,fig9; non-quick -perf appends fig8@1k/4k/16k rank sweeps)")
		workers  = flag.Int("workers", 0, "solver worker pool size per engine (0 = runtime.NumCPU(); results are byte-identical at any value)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available figures and ablations:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}

	o := bench.DefaultOptions()
	if *quick {
		o = bench.QuickOptions()
	}
	if *scales != "" {
		var ss []int
		for _, tok := range strings.Split(*scales, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "univibench: bad scale %q\n", tok)
				os.Exit(2)
			}
			ss = append(ss, n)
		}
		o.Scales = ss
	}
	o.Verbose = *verbose
	o.Progress = os.Stderr
	o.TracePath = *traceTo
	o.Workers = *workers

	switch {
	case *perf:
		var figs []string
		for _, tok := range strings.Split(*perfFigs, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				figs = append(figs, tok)
			}
		}
		rep, err := bench.RunPerf(o, *quick, figs, *perfReps, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "univibench: %v\n", err)
			os.Exit(2)
		}
		if err := rep.WriteFile(*perfOut); err != nil {
			fmt.Fprintf(os.Stderr, "univibench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("perf: largest sweep %s speedup %.2fx (incremental vs global allocator); report written to %s\n",
			rep.LargestSweep, rep.HeadlineSpeedup, *perfOut)
	case *smoke:
		results, err := bench.ChaosSmoke(o, *spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "univibench: %v\n", err)
			os.Exit(2)
		}
		bad := 0
		for _, r := range results {
			fmt.Printf("%-8s stacks=%d faults=%d sweeps=%d violations=%d\n",
				r.Fig, len(r.Reports), r.Faults(), r.Checks(), r.Violations())
			for _, rep := range r.Reports {
				for _, v := range rep.Violations {
					fmt.Printf("  VIOLATION [%s]: %s\n", rep.Spec, v)
					bad++
				}
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "univibench: chaos smoke found %d invariant violation(s)\n", bad)
			os.Exit(1)
		}
		fmt.Println("chaos smoke: all invariants held on every workload")
	case *all:
		for _, r := range bench.All(o) {
			r.Print(os.Stdout)
			fmt.Println()
		}
	case *fig != "":
		f, ok := bench.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "univibench: unknown figure %q; try -list\n", *fig)
			os.Exit(2)
		}
		f(o).Print(os.Stdout)
	default:
		fmt.Fprintln(os.Stderr, "univibench: need -fig <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}
}
