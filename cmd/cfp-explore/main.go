// cfp-explore runs the paper's design-space exploration and regenerates
// its tables and figures.
//
// Typical usage:
//
//	cfp-explore -save results.json          # full run (all machines × all benchmarks)
//	cfp-explore -load results.json -table 8 # reprint Table 8 from a saved run
//	cfp-explore -load results.json -figure 3 -ascii
//	cfp-explore -table 6                    # cost model only, no exploration
//
// Observability (see docs/OBSERVABILITY.md):
//
// Persistent caching (see docs/PERFORMANCE.md):
//
//	cfp-explore -cache-dir .cfp-cache -save results.json
//	  First run fills the cache; re-runs with the same flags are
//	  near-instant and bit-identical. -cache=off ignores the directory
//	  for one run without clearing it.
//
// Observability, continued:
//
//	cfp-explore -sample 8 -trace trace.json -metrics metrics.json
//	  -trace FILE    Chrome trace_event JSON of every pipeline span
//	                 (parse, opt passes, partition, schedule, regalloc,
//	                 spill, reference sim) — open in chrome://tracing or
//	                 Perfetto
//	  -metrics FILE  flat JSON dump: compiles/sec, failures, per-worker
//	                 busy/queue-wait time, per-phase span totals
//	  -pprof ADDR    live net/http/pprof endpoint while exploring
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"customfit/internal/bench"
	"customfit/internal/cli"
	"customfit/internal/core"
	"customfit/internal/dist"
	"customfit/internal/dse"
	"customfit/internal/machine"
	"customfit/internal/tables"
)

// parseWorkers interprets the dual-mode -workers flag: a bare integer
// is the local compile-worker count; anything else is a comma-separated
// list of cfp-serve base URLs ("http://" assumed when no scheme is
// given) selecting a distributed run.
func parseWorkers(s string) (fleet []string, local int, err error) {
	s = strings.TrimSpace(s)
	if n, aerr := strconv.Atoi(s); aerr == nil {
		return nil, n, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		fleet = append(fleet, part)
	}
	if len(fleet) == 0 {
		return nil, 0, fmt.Errorf("-workers %q: want a worker count or a comma-separated list of cfp-serve URLs", s)
	}
	return fleet, 0, nil
}

var tool *cli.Tool

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate a paper table (3, 6, 7, 8, 9, 10); 0 = all")
		figure     = flag.Int("figure", 0, "emit a paper figure's data (3 or 4)")
		ascii      = flag.Bool("ascii", true, "render figures as ASCII scatter plots (false = CSV)")
		svgDir     = flag.String("svg", "", "also write figures as SVG files into this directory")
		width      = flag.Int("width", 96, "reference workload width in pixels")
		workers    = flag.String("workers", "0", "parallel compile workers (0 = GOMAXPROCS), or a comma-separated list of cfp-serve URLs for a distributed run (e.g. http://h1:8080,http://h2:8080 — see docs/DISTRIBUTED.md)")
		save       = flag.String("save", "", "save exploration results to this JSON file")
		load       = flag.String("load", "", "load previously saved results instead of exploring")
		sample     = flag.Int("sample", 1, "evaluate every Nth machine (1 = full space)")
		progress   = flag.Bool("progress", true, "print progress while exploring")
		claims     = flag.Bool("claims", false, "print the paper's headline-claim quantities from the results")
		cachePush  = flag.Bool("cache-push", true, "distributed runs: ship warm cache entries with each shard so workers skip compiles the fleet already did (needs -cache-dir; see docs/DISTRIBUTED.md)")
		ablation   = flag.Bool("ablation", false, "run the compiler design-choice ablation study and exit")
		corr       = flag.Bool("correction", false, "run the cluster-correction validation study and exit")
		repertoire = flag.Bool("repertoire", false, "run the min/max ALU repertoire study and exit")
	)
	tool = cli.NewTool("cfp-explore", cli.WithCache(), cli.WithOps())
	flag.Parse()
	if err := tool.Start(); err != nil {
		fatal(err)
	}
	defer tool.Close()

	if *ablation {
		runAblation(*width)
		return
	}
	if *corr {
		runCorrection(*width)
		return
	}
	if *repertoire {
		benches := []*bench.Benchmark{
			bench.ByName("H"), bench.ByName("DH"), bench.ByName("DHEF"),
			bench.ByName("D"), bench.ByName("A"),
		}
		archs := []machine.Arch{
			{ALUs: 4, MULs: 2, Regs: 128, L2Ports: 2, L2Lat: 2, Clusters: 1},
			{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 4, L2Lat: 2, Clusters: 2},
			{ALUs: 16, MULs: 4, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 4},
		}
		fmt.Print(dse.SummarizeRepertoireStudy(dse.RunRepertoireStudy(benches, archs, *width)))
		return
	}

	// Tables 1/2/6/7 need no exploration.
	if *table == 1 || *table == 2 {
		var ind, jam []tables.BenchDesc
		for _, b := range bench.Individual() {
			ind = append(ind, tables.BenchDesc{Name: b.Name, Desc: b.Desc})
		}
		for _, b := range bench.Jammed() {
			jam = append(jam, tables.BenchDesc{Name: b.Name, Desc: b.Desc})
		}
		fmt.Print(tables.Table1And2(ind, jam))
		return
	}
	if *table == 6 {
		fmt.Print(tables.Table6(machine.DefaultCostModel))
		return
	}
	if *table == 7 {
		fmt.Print(tables.Table7(machine.DefaultCycleModel))
		return
	}

	var res *dse.Results
	var err error
	if *load != "" {
		res, err = dse.Load(*load)
		if err != nil {
			fatal(err)
		}
	} else {
		fleet, localWorkers, werr := parseWorkers(*workers)
		if werr != nil {
			fatal(werr)
		}
		// Custom-op axis: "off" (nil set) keeps the exploration
		// bit-identical to the 6-tuple era; "auto" mines the suite.
		opSet, oerr := core.ResolveOps(*tool.OpsSel, bench.All(), *width, *tool.OpsN)
		if oerr != nil {
			fatal(oerr)
		}
		if opSet != nil {
			fmt.Fprintf(os.Stderr, "custom ops: %s\n", strings.Join(opSet.Wire(), " | "))
		}
		// Ctrl-C stops scheduling new evaluations (and, distributed,
		// drains the fleet's in-flight shard jobs) and exits promptly
		// instead of killing the process mid-flight (telemetry and the
		// cache still flush).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		if len(fleet) > 0 {
			// Distributed run: shard the grid across cfp-serve workers
			// and merge to the same Results a local run would produce.
			// The coordinator's cache (when configured) seeds warm-up
			// pushes; -cache=off rides every shard request so the whole
			// fleet runs cold.
			cache, cerr := tool.OpenCache()
			if cerr != nil {
				fatal(cerr)
			}
			res, err = dist.Explore(ctx, dist.Options{
				Workers:    fleet,
				Width:      *width,
				Sample:     *sample,
				Ops:        opSet,
				Cache:      cache,
				PushWarmup: *cachePush,
				CacheMode:  tool.CacheCfg.Mode,
			})
		} else {
			e := dse.NewExplorer()
			e.Width = *width
			e.Workers = localWorkers
			cache, cerr := tool.OpenCache()
			if cerr != nil {
				fatal(cerr)
			}
			e.Cache = cache
			if *sample > 1 || opSet != nil {
				archs := machine.FullSpace()
				if *sample > 1 {
					var thinned []machine.Arch
					for i := 0; i < len(archs); i += *sample {
						thinned = append(thinned, archs[i])
					}
					archs = thinned
				}
				// The baseline must be present for speedups.
				hasBase := false
				for _, a := range archs {
					if a == machine.Baseline {
						hasBase = true
					}
				}
				if !hasBase {
					archs = append(archs, machine.Baseline)
				}
				if opSet != nil {
					archs = machine.CrossOps(archs, opSet, machine.DefaultMasks(opSet))
				}
				e.Archs = archs
			}
			if *progress {
				e.Progress = func(p dse.ProgressInfo) {
					if p.Done%25 == 0 || p.Done == p.Total {
						fmt.Fprintf(os.Stderr, "\rexploring: %d/%d evaluations  %.1f/s  ETA %-8v failures %d",
							p.Done, p.Total, p.RatePerSec, p.ETA.Round(time.Second), p.Failed)
						if p.Cancelled > 0 {
							fmt.Fprintf(os.Stderr, " cancelled %d", p.Cancelled)
						}
						fmt.Fprint(os.Stderr, " ")
						if p.Done == p.Total {
							fmt.Fprintln(os.Stderr)
						}
					}
				}
			}
			res, err = e.RunCtx(ctx)
		}
		stop()
		if errors.Is(err, dse.ErrCancelled) {
			fmt.Fprintln(os.Stderr, "\ncfp-explore: interrupted, exploration abandoned")
			tool.Close()
			os.Exit(130)
		}
		if err != nil {
			fatal(err)
		}
		if *save != "" {
			if err := res.Save(*save); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "results saved to %s\n", *save)
		}
	}

	if *claims {
		fmt.Print(res.ComputeClaims().String())
		return
	}

	if *figure != 0 {
		var names []string
		switch *figure {
		case 3:
			for _, b := range bench.Individual() {
				if b.Name != "E" { // the paper's Figure 3 shows A C D F G H
					names = append(names, b.Name)
				}
			}
		case 4:
			for _, b := range bench.Jammed() {
				names = append(names, b.Name)
			}
		default:
			fatal(fmt.Errorf("unknown figure %d", *figure))
		}
		for _, n := range names {
			if *svgDir != "" {
				path := fmt.Sprintf("%s/figure%d-%s.svg", *svgDir, *figure, n)
				if err := os.WriteFile(path, []byte(tables.ScatterSVG(res, n, 0, 0)), 0o644); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
			if *ascii {
				fmt.Print(tables.ScatterASCII(res, n, 72, 16))
			} else {
				fmt.Print(tables.ScatterCSV(res, n))
			}
		}
		return
	}

	ranges0 := []float64{0, 0.10, math.Inf(1)}
	ranges50 := []float64{0, 0.10, 0.50, math.Inf(1)}
	switch *table {
	case 0:
		fmt.Print(tables.Table6(machine.DefaultCostModel))
		fmt.Println()
		fmt.Print(tables.Table7(machine.DefaultCycleModel))
		fmt.Println()
		fmt.Print(tables.Stats(res.Stats))
		fmt.Println()
		fmt.Println("== Table 8: low cost (< 5.0) ==")
		fmt.Print(tables.Selection(res, 5, ranges0))
		fmt.Println("== Table 9: medium cost (< 10.0) ==")
		fmt.Print(tables.Selection(res, 10, ranges50))
		fmt.Println("== Table 10: high cost (< 15.0) ==")
		fmt.Print(tables.Selection(res, 15, ranges0))
	case 3:
		fmt.Print(tables.Stats(res.Stats))
	case 8:
		fmt.Print(tables.Selection(res, 5, ranges0))
	case 9:
		fmt.Print(tables.Selection(res, 10, ranges50))
	case 10:
		fmt.Print(tables.Selection(res, 15, ranges0))
	default:
		fatal(fmt.Errorf("unknown table %d", *table))
	}
}

func fatal(err error) {
	if tool != nil {
		tool.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cfp-explore:", err)
	os.Exit(1)
}

// runAblation measures each compiler design choice's contribution by
// disabling it in isolation (internal/dse/ablation.go).
func runAblation(width int) {
	benches := []*bench.Benchmark{
		bench.ByName("A"), bench.ByName("F"), bench.ByName("H"), bench.ByName("DHEF"),
	}
	archs := []machine.Arch{
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 2, L2Lat: 4, Clusters: 2},
		{ALUs: 16, MULs: 4, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 4},
		{ALUs: 16, MULs: 4, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 8},
	}
	results := dse.RunAblation(benches, archs, width)
	fmt.Print(dse.SummarizeAblation(results))
}

// runCorrection reproduces and validates the paper's cluster-correction
// approximation (internal/dse/correction.go).
func runCorrection(width int) {
	ev := dse.NewEvaluator()
	ev.Width = width
	fitBenches := []*bench.Benchmark{bench.ByName("D"), bench.ByName("G"), bench.ByName("C")}
	fitPoints := []machine.Arch{
		{ALUs: 8, MULs: 4, Regs: 256, L2Ports: 1, L2Lat: 4, Clusters: 1},
		{ALUs: 16, MULs: 8, Regs: 512, L2Ports: 2, L2Lat: 4, Clusters: 1},
	}
	cor, err := dse.FitCorrections(ev, fitBenches, fitPoints)
	if err != nil {
		fatal(err)
	}
	valBenches := []*bench.Benchmark{
		bench.ByName("A"), bench.ByName("F"), bench.ByName("H"), bench.ByName("DH"),
	}
	valPoints := []machine.Arch{
		{ALUs: 8, MULs: 2, Regs: 128, L2Ports: 1, L2Lat: 4, Clusters: 1},
		{ALUs: 16, MULs: 4, Regs: 512, L2Ports: 4, L2Lat: 2, Clusters: 1},
	}
	errs := dse.ValidateCorrections(ev, cor, valBenches, valPoints)
	fmt.Print(dse.SummarizeCorrectionStudy(cor, errs))
}
