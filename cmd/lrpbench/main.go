// Command lrpbench regenerates the tables and figures of the LRP paper
// (Druschel & Banga, OSDI '96) from the simulated reproduction, and
// checks the paper's qualitative shapes against a fresh run.
//
// Usage:
//
//	lrpbench [-quick] [-seed N] [-v] [-plot] [-parallel N] [-json] [-out FILE] \
//	         [-faultplan FILE] [-cpuprofile FILE] [-memprofile FILE] \
//	         table1|fig3|mlfrr|fig4|table2|fig5|ablations|media|faults|smp|wan|all|check
//
// Each experiment prints the same rows or series the paper reports;
// EXPERIMENTS.md records a side-by-side comparison with the published
// numbers. All requested experiments run through exp.RunSuite: with
// -parallel > 1 every independent simulation world across the whole
// suite draws from one bounded worker pool, and results are assembled
// in canonical order. Every world is a private deterministic
// simulation, so output is byte-identical at any parallelism. -v
// reports per-experiment wall-clock timings and a final wall-vs-user
// CPU utilization summary on stderr.
//
// -json replaces the text tables on stdout with the versioned JSON
// suite (internal/results schema); -out FILE additionally saves that
// JSON suite to FILE, whatever stdout carries. The check verb runs all
// eight experiments plus the faults, smp and wan sweeps, evaluates every
// paper-shape assertion (ordering of systems, BSD's livelock collapse,
// NI-LRP's flat overload curve, fairness bands, traffic separation,
// robustness under impairment, multi-core scaling), and exits non-zero
// if any fail.
//
// The faults verb runs the internal/fault robustness curves — goodput,
// p99 latency, and victim-CPU share for every architecture under each
// impairment class (bursty loss, reordering, duplication, corruption,
// jitter, link flaps, DMA-ring overruns, spurious interrupts, mbuf-pool
// pressure), plus TCP goodput versus reordering depth. It is not part
// of `all`, so the archived canonical suite output stays byte-stable.
//
// The smp verb runs the multi-core scaling sweep: single-queue versus
// RSS multi-queue receive for BSD, SOFT-LRP, and NI-LRP across 1, 2,
// and 4 simulated CPUs. Like faults, it is standalone and not part of
// `all`.
//
// The wan verb runs the internet-scale sweep: a million modeled clients
// (aggregated into a handful of stackless generator procs per topology,
// internal/pop) offer open-loop load through multi-hop chains and
// fan-in trees (internal/topo) whose transit gateways run the same
// kernel architecture as the server, with two cells additionally
// impaired per hop by shipped scenarios (scenarios/*.json). Like faults
// and smp, it is standalone and not part of `all`.
//
// -faultplan FILE loads a fault-injection plan (the scenarios/*.json
// format) and applies it network-wide to every simulation world the
// requested experiments build: any experiment under any impairment.
// Runs with a plan are still fully deterministic, but do not compare
// them against the archived clean outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"lrp/internal/exp"
	"lrp/internal/fault"
	"lrp/internal/render"
	"lrp/internal/results"
)

var doPlot bool

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "shorter runs (smoke test)")
	seed := flag.Uint64("seed", 1, "traffic generator seed")
	verbose := flag.Bool("v", false, "print progress, per-experiment timings, and a utilization summary")
	parallel := flag.Int("parallel", 0, "max concurrent simulation worlds (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the JSON result suite on stdout instead of text tables")
	outPath := flag.String("out", "", "also write the JSON result suite to FILE")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE when the run completes")
	faultPlan := flag.String("faultplan", "", "apply a fault plan (scenarios/*.json format) network-wide to every world")
	flag.BoolVar(&doPlot, "plot", false, "render ASCII charts for the figures")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lrpbench [-quick] [-seed N] [-v] [-plot] [-parallel N] [-json] [-out FILE] [-faultplan FILE] [-cpuprofile FILE] [-memprofile FILE] table1|fig3|mlfrr|fig4|table2|fig5|ablations|media|faults|smp|wan|all|check\n")
		fmt.Fprintf(os.Stderr, "check runs all, faults, smp and wan, and exits 1 if any paper-shape assertion fails\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	opt := exp.Options{Quick: *quick, Seed: *seed, Parallel: *parallel}
	if opt.Parallel <= 0 {
		opt.Parallel = runtime.GOMAXPROCS(0)
	}
	if *faultPlan != "" {
		data, err := os.ReadFile(*faultPlan)
		if err != nil {
			fatal(err)
		}
		plan, err := fault.ParsePlan(data)
		if err != nil {
			fatal(err)
		}
		opt.FaultPlan = &plan
	}
	if *verbose {
		// Progress and the timing callbacks arrive from concurrent
		// experiment drivers and sweep workers; serialize them.
		var mu sync.Mutex
		opt.Progress = func(s string) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintln(os.Stderr, s)
		}
		started := make(map[string]time.Time)
		opt.ExpStart = func(name string) {
			mu.Lock()
			defer mu.Unlock()
			started[name] = time.Now()
		}
		opt.ExpDone = func(name string) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(os.Stderr, "lrpbench: %-9s done in %.2fs\n", name, time.Since(started[name]).Seconds())
		}
	}

	which := strings.ToLower(flag.Arg(0))
	var names []string
	check := false
	switch which {
	case "all":
		names = exp.Experiments
	case "check":
		// The canonical eight plus the standalone faults, smp and wan
		// sweeps: CheckSuite holds the robustness, scaling and
		// internet-scale curves to their shapes whenever they are
		// present, and check is where every assertion should run.
		names = append(append([]string{}, exp.Experiments...), "faults", "smp", "wan")
		check = true
	default:
		names = []string{which}
	}

	start := time.Now()
	userStart := userCPUSeconds()
	suite, err := exp.RunSuite(opt, names...)
	if err != nil {
		flag.Usage()
		return 2
	}
	if *verbose {
		wall := time.Since(start).Seconds()
		user := userCPUSeconds() - userStart
		util := 0.0
		if wall > 0 {
			util = user / wall
		}
		fmt.Fprintf(os.Stderr, "lrpbench: suite wall %.2fs, user CPU %.2fs, utilization %.2fx (parallel=%d)\n",
			wall, user, util, opt.Parallel)
	}
	if !*jsonOut && !check {
		for _, e := range suite.Experiments {
			render.Experiment(os.Stdout, e, render.Options{Plot: doPlot})
			if len(names) > 1 {
				fmt.Println()
			}
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := suite.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *jsonOut && !check {
		if err := suite.Encode(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if check {
		return report(os.Stdout, suite, *jsonOut)
	}
	return 0
}

// userCPUSeconds reads the runtime's cumulative user-CPU estimate: the
// -v utilization summary compares it against wall time as a proxy for
// "how busy the worker pool kept the machine". On a single-CPU host the
// ratio tops out near 1.0x no matter the -parallel value.
func userCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lrpbench:", err)
	os.Exit(1)
}

// report prints the shape-check verdict and returns the exit code.
func report(w io.Writer, suite *results.Suite, asJSON bool) int {
	violations := results.CheckSuite(suite)
	if violations == nil {
		violations = []results.Violation{} // `"violations": []`, not null
	}
	if asJSON {
		out := struct {
			Schema     int                 `json:"schema"`
			Pass       bool                `json:"pass"`
			Violations []results.Violation `json:"violations"`
		}{results.SchemaVersion, len(violations) == 0, violations}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, string(b))
	} else {
		for _, v := range violations {
			fmt.Fprintln(w, "FAIL", v)
		}
		if len(violations) == 0 {
			fmt.Fprintf(w, "ok: all paper-shape assertions hold across %d experiments\n", len(suite.Experiments))
		} else {
			fmt.Fprintf(w, "%d shape violation(s)\n", len(violations))
		}
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}
